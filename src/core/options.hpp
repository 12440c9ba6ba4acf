// Framework-level behaviour switches.
#pragma once

#include <cstddef>
#include <string>

namespace ccf::core {

/// Buffer-governance knobs (src/mem, docs/MEMORY.md). With the defaults
/// every knob is off and the framework buffers exactly as the ungoverned
/// baseline — byte for byte.
struct MemoryOptions {
  /// Per-process byte budget for resident snapshot frames, spanning all
  /// of the process's exported regions. 0 = governance off. This is the
  /// one buffer limit: an export that would exceed it first spills cold
  /// snapshots (when spill_directory is set), then stalls the exporter
  /// on framework traffic until requests free space. Without a spill
  /// directory it is the paper's finite buffer space (§6).
  std::size_t budget_bytes = 0;

  /// Directory for the file-backed spill tier. When set, cold-but-still-
  /// matchable snapshots are demoted to disk instead of stalling the
  /// exporter, and restored byte-identically on a late MATCH. "" = no
  /// spill tier (the exporter stalls or soft-exceeds instead).
  std::string spill_directory;

  /// Extra modeled compute an importing process performs before issuing a
  /// request on a connection whose exporter announced BufferPressure.
  /// 0 = pressure notices are recorded but do not throttle.
  double importer_throttle_seconds = 0;

  /// True when the budget (and with it the governor) is active.
  bool governed() const { return budget_bytes > 0; }
};

/// Pressure watermarks as fractions of MemoryOptions::budget_bytes.
/// Crossing the high one raises collective BufferPressure (PROTOCOL.md);
/// pressure clears once usage falls back to the low one — the hysteresis
/// band keeps the control traffic from flapping.
inline constexpr double kLowWatermark = 0.5;
inline constexpr double kHighWatermark = 0.9;

/// Failure-tolerant waits (FrameworkOptions::retry_timeout_seconds > 0):
/// each successive retry waits this factor longer, up to
/// FrameworkOptions::backoff_cap_seconds().
inline constexpr double kRetryBackoffFactor = 2.0;

/// Retries of a worker's geometry or answer wait before it gives up with
/// util::TimeoutError (the shutdown wait has no limit: the departure
/// window bounds it); the reps' resend ledgers presume delivery after as
/// many.
inline constexpr int kMaxRetries = 64;

struct FrameworkOptions {
  /// The paper's optimization (§4.1). When the rep answers a request from
  /// a mixture of PENDING and decisive responses, it forwards the final
  /// answer to the still-PENDING processes so they can skip buffering
  /// data that can never be the match. Disable to get the baseline the
  /// paper compares against (Figure 8).
  bool buddy_help = true;

  /// Record per-process event traces (Figures 5/7/8 listings).
  bool trace = false;

  /// Cap on recorded trace events per process.
  std::size_t trace_max_events = 1 << 20;

  /// Buffer governance: the memory budget (finite buffer space), spill
  /// tier and backpressure throttle. All off by default.
  MemoryOptions memory;

  /// Modeled dispatch cost charged by rep shards and sub-reps per unit of
  /// control work: once per plain inbound wire message, and once per
  /// *entry* of a batched TreeUp/TreeDown frame — so the charge is
  /// framing-neutral and pipelined partial frames (ProgramSpec::
  /// tree_flush_count) overlap rather than shrink it. 0 (default) charges
  /// nothing — virtual end times stay identical to the pre-tree runtime.
  /// Nonzero makes the single-rep funnel serialization visible in virtual
  /// time, which is what `bench_rep_scale` sweeps (docs/PERF.md).
  double rep_dispatch_seconds = 0;

  /// Chaos hook: sub-rep `debug_kill_subrep` of program
  /// `debug_kill_subrep_program` exits silently at virtual time
  /// `debug_kill_subrep_at`, simulating a mid-run aggregator death. Its
  /// children detect the silence after departure_window_seconds() and
  /// re-parent onto the rep shards directly. -1 = disabled.
  int debug_kill_subrep = -1;
  double debug_kill_subrep_at = 0;
  std::string debug_kill_subrep_program;

  // --- failure tolerance -------------------------------------------------
  // Everything below defaults to "off": with the defaults, the protocol
  // behaves exactly as the lossless baseline (zero happy-path drift). The
  // machinery only matters on a faulty fabric (see transport::FaultInjector).

  /// Base timeout for a proc waiting on its rep (import answers, the
  /// commit-time geometry broadcast, shutdown). On expiry the proc
  /// re-sends its request; the protocol's sequence numbers make the
  /// duplicates idempotent end-to-end. 0 disables retries entirely
  /// (plain blocking receives). The one failure-tolerance setting: the
  /// backoff cap, heartbeat interval and departure window derive from it.
  double retry_timeout_seconds = 0;

  /// True when the retry/liveness machinery is active.
  bool failure_tolerance() const { return retry_timeout_seconds > 0; }

  /// Cap on the exponential retry backoff (kRetryBackoffFactor).
  double backoff_cap_seconds() const { return 16 * retry_timeout_seconds; }

  /// Reps emit a heartbeat to their own procs this often while idle, so
  /// workers in timeout loops can tell "rep is slow" from "rep is gone".
  double heartbeat_interval_seconds() const { return 10 * retry_timeout_seconds; }

  /// Silence that reads as departure: a worker that hears nothing from
  /// its rep for this long re-parents (sub-rep gone) or finishes degraded
  /// (rep gone); a sub-rep that hears nothing from above exits; an
  /// exporter stalled on its memory budget this long force-closes its
  /// connections. 20 heartbeats.
  double departure_window_seconds() const { return 200 * retry_timeout_seconds; }
};

}  // namespace ccf::core
