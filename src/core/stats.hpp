// Per-process statistics collected by the coupling runtime.
//
// The Figure-4 reproduction needs the per-iteration export durations of
// the slowest exporter process; Eq.(1)/(2) need the per-request
// unnecessary-buffering times T_i and their total T_ub. Stats objects are
// owned by the harness (one slot per process) and filled in by the
// process bodies, which run in the same address space in both execution
// modes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/timestamp.hpp"
#include "mem/governor.hpp"

namespace ccf::core {

struct ExportRegionStats {
  std::string region;
  std::uint64_t exports = 0;
  std::uint64_t transfers = 0;  ///< matched snapshots actually shipped
  BufferStats buffer;

  // Data-plane copy accounting (dist::TransferStats, folded in by the
  // exporter state; see docs/PERF.md).
  std::uint64_t bytes_delivered = 0;    ///< payload element bytes shipped
  std::uint64_t bytes_pack_copied = 0;  ///< extra pack-copy bytes (partial pieces)
  std::uint64_t sends_aliased = 0;      ///< full-box sends aliasing the pooled frame
  std::uint64_t sends_packed = 0;       ///< partial pieces packed into a wire frame

  /// Extra copies per delivered byte beyond the snapshot memcpy and the
  /// importer's final unpack: 0 when every send aliased the pooled frame,
  /// 1 when every send was a packed partial piece.
  double copies_per_delivered_byte() const {
    if (bytes_delivered == 0) return 0.0;
    return static_cast<double>(bytes_pack_copied) / static_cast<double>(bytes_delivered);
  }

  /// Duration of each export call (paper Fig. 4 y-axis), in ctx.now() secs.
  std::vector<double> export_seconds;

  /// Timestamp of each export, aligned with export_seconds.
  std::vector<Timestamp> export_timestamps;

  /// Per-request unnecessary buffering time T_i (Eq. 1), in request order.
  std::vector<double> t_i;

  /// Total unnecessary buffering time T_ub (Eq. 2).
  double t_ub() const {
    double s = 0;
    for (double v : t_i) s += v;
    return s;
  }

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

struct ImportRegionStats {
  std::string region;
  std::uint64_t imports = 0;
  std::uint64_t matches = 0;
  std::uint64_t no_matches = 0;
  std::vector<double> import_seconds;
  std::vector<Timestamp> matched_timestamps;

  /// Collective BufferPressure response (MemoryOptions::
  /// importer_throttle_seconds; zero unless the exporter is governed).
  std::uint64_t pressure_throttles = 0;
  double throttle_seconds = 0;
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

struct ProcStats {
  std::vector<ExportRegionStats> exports;
  std::vector<ImportRegionStats> imports;
  FaultToleranceStats ft;
  double finished_at = 0;  ///< ctx.now() when the process body completed

  /// Process-wide memory-governor accounting (zero when ungoverned).
  mem::GovernorStats governor;
  std::uint64_t pressure_signals = 0;  ///< ProcPressure edges sent to the rep
  std::uint64_t pressure_notices = 0;  ///< PressureBcast level changes received
};

}  // namespace ccf::core
