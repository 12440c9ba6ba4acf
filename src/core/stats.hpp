// Per-process statistics collected by the coupling runtime.
//
// The Figure-4 reproduction needs the per-iteration export durations of
// the slowest exporter process; Eq.(1)/(2) need the per-request
// unnecessary-buffering times T_i and their total T_ub. Stats objects are
// owned by the harness (one slot per process) and filled in by the
// process bodies.
//
// Every stats struct is one trivially copyable block of fixed counters
// (a public base, so its members read as the struct's own) plus its
// variable-length series. A forked process ships each block as raw bytes
// and each series as a vector (core/result_codec.hpp); counter blocks made
// only of std::uint64_t fold with one rule, sum_counters.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/timestamp.hpp"
#include "core/trace.hpp"
#include "dist/transfer_stats.hpp"
#include "mem/governor.hpp"

namespace ccf::core {

/// Fixed counters of one exported region. The dist::TransferStats base is
/// the data-plane copy accounting (docs/PERF.md) the region's sends fill in.
struct ExportCounters : dist::TransferStats {
  std::uint64_t exports = 0;
  std::uint64_t transfers = 0;  ///< matched snapshots actually shipped
  BufferStats buffer;

  std::uint64_t buddy_helps_received = 0;
  std::uint64_t local_decisions = 0;  ///< requests this process decided itself

  /// Matcher observation counters, summed over the region's connections
  /// (ExportHistory::EvalCounters; model-checking conformance interface).
  std::uint64_t matcher_evaluations = 0;
  std::uint64_t matcher_pending = 0;

  /// Finite-buffer backpressure (stalls on MemoryOptions::budget_bytes).
  std::uint64_t stalls = 0;
  double stall_seconds = 0;

  // Failure tolerance (all zero on a lossless fabric).
  std::uint64_t duplicate_requests = 0;  ///< retried/duplicated requests replayed
  std::uint64_t reordered_requests = 0;  ///< requests parked until a gap filled
  std::uint64_t degraded_conns = 0;      ///< connections force-closed by stall timeout
};

struct ExportRegionStats : ExportCounters {
  std::string region;

  /// Duration of each export call (paper Fig. 4 y-axis), in ctx.now() secs.
  std::vector<double> export_seconds;

  /// Timestamp of each export, aligned with export_seconds.
  std::vector<Timestamp> export_timestamps;

  /// Per-request unnecessary buffering time T_i (Eq. 1), in request order.
  std::vector<double> t_i;

  /// Recorded trace events (FrameworkOptions::trace; empty when off or
  /// the region is unconnected). render_trace_listing prints them.
  std::vector<TraceEvent> trace_events;

  /// Total unnecessary buffering time T_ub (Eq. 2).
  double t_ub() const {
    double s = 0;
    for (double v : t_i) s += v;
    return s;
  }
};

/// Fixed counters of one imported region.
struct ImportCounters {
  std::uint64_t imports = 0;
  std::uint64_t matches = 0;
  std::uint64_t no_matches = 0;

  /// Collective BufferPressure response (MemoryOptions::
  /// importer_throttle_seconds; zero unless the exporter is governed).
  std::uint64_t pressure_throttles = 0;
  double throttle_seconds = 0;
};

struct ImportRegionStats : ImportCounters {
  std::string region;
  std::vector<double> import_seconds;
  std::vector<Timestamp> matched_timestamps;
};

/// Per-process failure-tolerance accounting (see FrameworkOptions).
/// Everything stays zero/false on a lossless fabric.
struct FaultToleranceStats {
  std::uint64_t request_retries = 0;   ///< re-sent import requests after timeout
  std::uint64_t stale_answers = 0;     ///< duplicate/out-of-date answers discarded
  std::uint64_t heartbeats = 0;        ///< rep heartbeats consumed
  std::uint64_t commit_retries = 0;    ///< startup geometry handshake retries
  std::uint64_t conn_done_retries = 0; ///< re-sent shutdown notifications
  std::uint64_t reparents = 0;         ///< tree fallbacks: dead sub-rep, now direct
  bool rep_departed = false;           ///< finished via departure timeout
};

/// Fixed per-process counters.
struct ProcCounters {
  FaultToleranceStats ft;
  double finished_at = 0;  ///< ctx.now() when the process body completed

  /// Process-wide memory-governor accounting (zero when ungoverned).
  mem::GovernorStats governor;
  std::uint64_t pressure_signals = 0;  ///< ProcPressure edges sent to the rep
  std::uint64_t pressure_notices = 0;  ///< PressureBcast level changes received
};

struct ProcStats : ProcCounters {
  std::vector<ExportRegionStats> exports;
  std::vector<ImportRegionStats> imports;

  /// App results the process body handed to CouplingRuntime::publish, by
  /// series name.
  std::map<std::string, std::vector<double>> published;

  /// The published series `name` (empty if nothing was published to it).
  const std::vector<double>& series(const std::string& name) const {
    static const std::vector<double> kNone;
    auto it = published.find(name);
    return it == published.end() ? kNone : it->second;
  }
};

/// The one merge rule for counter blocks: the sum of every counter over
/// `parts` (elements are a `Block` or derive from it). `Block` must consist
/// of std::uint64_t counters only, which the assertion approximates: no
/// padding, no floating point, 8-byte size and alignment.
template <typename Block, typename Range>
Block sum_counters(const Range& parts) {
  static_assert(std::has_unique_object_representations_v<Block> &&
                    sizeof(Block) % sizeof(std::uint64_t) == 0 &&
                    alignof(Block) == alignof(std::uint64_t),
                "sum_counters needs a block of std::uint64_t counters");
  using Words = std::array<std::uint64_t, sizeof(Block) / sizeof(std::uint64_t)>;
  Words total{};
  for (const Block& part : parts) {
    const auto words = std::bit_cast<Words>(part);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += words[i];
  }
  return std::bit_cast<Block>(total);
}

}  // namespace ccf::core
