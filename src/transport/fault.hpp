// Deterministic, seeded fault injection for the message fabric.
//
// A FaultInjector sits between send() and delivery (in the FaultTransport
// decorator and in the virtual-time scheduler) and decides, per message,
// whether to drop it, duplicate it, or delay it. Decisions are a pure
// function of (seed, src, dst, per-link message index), so a schedule is
// replayable: the same seed over the same per-link traffic produces the
// same faults regardless of thread interleaving. The chaos harness relies
// on this to rerun a failing schedule byte-for-byte.
//
// Eligibility is scoped by an optional predicate over (src, dst, tag) so a
// test can target control traffic while leaving bulk data alone, and a
// max_faults cap bounds total injected damage per run.
//
// A duplicated message re-delivers the same refcounted payload view: both
// deliveries alias one buffer, so duplication is O(1) regardless of
// payload size (and cannot diverge byte-wise between the two copies).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "transport/message.hpp"

namespace ccf::transport {

/// Replayable fault schedule. All probabilities are in [0, 1]; a message
/// is first tested for drop, then (if kept) for duplication, then for
/// extra delay — so one message can be both duplicated and delayed.
struct FaultPlan {
  std::uint64_t seed = 0;
  double drop_prob = 0;
  double duplicate_prob = 0;
  double delay_prob = 0;
  /// Extra delay drawn uniformly from [delay_min_seconds, delay_max_seconds].
  double delay_min_seconds = 0;
  double delay_max_seconds = 0;
  /// Restricts which messages may be faulted; null means all are eligible.
  /// Must be a pure function (called under the injector's lock).
  std::function<bool(ProcId src, ProcId dst, Tag tag)> eligible;
  /// Hard cap on the number of faulted messages (drops + dups + delays
  /// each count once); further messages pass through untouched.
  std::uint64_t max_faults = UINT64_MAX;
};

struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  double extra_delay_seconds = 0;

  bool faulted() const { return drop || duplicate || extra_delay_seconds > 0; }
};

struct FaultStats {
  std::uint64_t eligible = 0;   ///< messages the plan applied to
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Decides the fate of the next message on the (src, dst) link.
  FaultDecision decide(ProcId src, ProcId dst, Tag tag);

  FaultStats stats() const;
  const FaultPlan& plan() const { return plan_; }

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_;
  FaultStats stats_;
  std::uint64_t faults_injected_ = 0;
  /// Per-link message index: the replay key together with the seed.
  std::map<std::pair<ProcId, ProcId>, std::uint64_t> link_counts_;
};

}  // namespace ccf::transport
