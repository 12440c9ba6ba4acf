// Cluster launcher: registers process bodies, runs them to completion under
// the selected execution mode, and propagates the first failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/process_context.hpp"
#include "transport/fault.hpp"
#include "transport/transport.hpp"

namespace ccf::runtime {

enum class ExecutionMode {
  RealThreads,    ///< one OS thread per process, wall-clock time
  VirtualTime,    ///< deterministic discrete-event virtual time
  RealProcesses,  ///< one forked OS process per process (runtime/process_cluster.hpp)
};

struct ClusterOptions {
  ExecutionMode mode = ExecutionMode::VirtualTime;
  std::shared_ptr<const transport::LatencyModel> latency = transport::zero_model();
  /// Virtual time ProcessContext::copy() charges in VirtualTime mode; the
  /// wall-clock modes pay for the real memcpy instead.
  CopyCostModel copy_cost = CopyCostModel::pentium4_preset();
  /// Optional seeded fault injector applied to every send (both modes).
  std::shared_ptr<transport::FaultInjector> faults;
  /// Livelock guard for VirtualTime mode: the run throws once this many
  /// events have been processed. Harnesses that execute many short runs
  /// (model checking, shrinking) set a small bound so a livelocked
  /// scenario surfaces as a fast failure instead of an apparent hang.
  std::uint64_t max_events = 500'000'000;
  /// Message fabric for the wall-clock modes (RealThreads and
  /// RealProcesses): the in-memory fabric by default, or the real SHM+TCP
  /// backend. Ignored by VirtualTime, which models the network instead of
  /// running one.
  transport::TransportOptions transport;
};

/// Ships a process body's results across a process boundary. Bodies are
/// closures that write into launcher-side slots; under ExecutionMode::
/// RealProcesses those writes land in the child's copy-on-write memory,
/// so `encode` runs in the child after the body returns and `decode`
/// applies the bytes to the real slots in the launcher. In-process modes
/// ignore the channel — the body's writes were already direct.
struct ResultChannel {
  std::function<std::vector<std::byte>()> encode;
  std::function<void(const std::vector<std::byte>&)> decode;
};

class Cluster {
 public:
  virtual ~Cluster() = default;

  /// Registers a process. Ids must be unique and non-negative.
  virtual void add_process(ProcId id, ProcessBody body) = 0;

  /// Registers a process whose results need shipping across a process
  /// boundary. In-process backends ignore `channel`.
  virtual void add_process(ProcId id, ProcessBody body, ResultChannel channel) {
    (void)channel;
    add_process(id, std::move(body));
  }

  /// Runs all processes to completion; rethrows the first process failure.
  virtual void run() = 0;

  /// Virtual end time (VirtualTime mode) or elapsed wall seconds.
  virtual double end_time() const = 0;

  /// Structural transport counters after run(); all zero for backends
  /// that do not track them (VirtualTime).
  virtual transport::TransportCounters transport_counters() const { return {}; }
};

std::unique_ptr<Cluster> make_cluster(const ClusterOptions& options = {});

/// Applies deployment environment overrides to `options` (docs/DEPLOY.md):
///   CCF_MODE=sim|threads|procs   execution mode
///   CCF_TRANSPORT=fabric|real    wall-clock message fabric
/// Unset or empty variables leave `options` untouched; unknown values
/// throw InvalidArgument. Returns true if anything changed.
bool apply_env_overrides(ClusterOptions& options);

}  // namespace ccf::runtime
