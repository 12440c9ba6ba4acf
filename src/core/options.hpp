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

  /// Watermarks as fractions of the budget (0 <= low <= high <= 1).
  /// Crossing `high` raises collective BufferPressure (PROTOCOL.md);
  /// pressure clears once usage falls back to `low` — the hysteresis band
  /// keeps the control traffic from flapping.
  double low_watermark = 0.5;
  double high_watermark = 0.9;

  /// Directory for the file-backed spill tier. When set, cold-but-still-
  /// matchable snapshots are demoted to disk instead of stalling the
  /// exporter, and restored byte-identically on a late MATCH. "" = no
  /// spill tier (the exporter stalls or soft-exceeds instead).
  std::string spill_directory;

  /// Extra modeled compute an importing process performs before issuing a
  /// request on a connection whose exporter announced BufferPressure.
  /// 0 = pressure notices are recorded but do not throttle.
  double importer_throttle_seconds = 0;

  /// Max frames parked on the BufferPool free-list arena awaiting reuse
  /// (the PR 3 recycling arena). Frames beyond the cap are released to
  /// the heap instead of parked.
  std::size_t arena_capacity = 8;

  /// Byte cap across all parked arena frames; 0 = no byte cap. Bounds the
  /// arena across phase changes, where snapshot sizes grow and best-fit
  /// would otherwise accumulate the largest frames forever.
  std::size_t arena_max_bytes = 0;

  /// True when the budget (and with it the governor) is active.
  bool governed() const { return budget_bytes > 0; }
};

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

  /// Buffer governance: the memory budget (finite buffer space),
  /// watermarks, spill tier, backpressure throttle, and arena caps. All
  /// off by default.
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
  /// children detect the silence via departure_timeout_seconds and
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
  /// (plain blocking receives).
  double retry_timeout_seconds = 0;

  /// Exponential backoff: each successive retry waits `backoff_factor`
  /// times longer, capped at `retry_backoff_max_seconds` (0 = cap at
  /// 16x the base timeout).
  double retry_backoff_factor = 2.0;
  double retry_backoff_max_seconds = 0;

  /// Retries per blocking wait before giving up with util::TimeoutError.
  int max_retries = 64;

  /// Reps emit a heartbeat to their own procs every interval while idle,
  /// so workers in timeout loops can distinguish "rep is slow" from "rep
  /// is gone". 0 disables heartbeats.
  double heartbeat_interval_seconds = 0;

  /// A worker in its shutdown service loop that has heard nothing from
  /// its rep for this long presumes the rep departed and finishes
  /// degraded instead of blocking forever. Requires heartbeats to be
  /// meaningful. 0 = wait forever.
  double departure_timeout_seconds = 0;

  /// An exporter stalled on the memory budget for this long with no
  /// request traffic force-closes its connections (degraded, unconnected
  /// mode: later exports skip send/buffer work) instead of waiting
  /// forever on a dead importer. 0 = wait forever.
  double stall_timeout_seconds = 0;

  /// True when the retry/liveness machinery is active.
  bool failure_tolerance() const { return retry_timeout_seconds > 0; }

  /// Effective backoff cap (resolves the 0 = "16x base" default).
  double backoff_cap_seconds() const {
    return retry_backoff_max_seconds > 0 ? retry_backoff_max_seconds
                                         : 16 * retry_timeout_seconds;
  }
};

}  // namespace ccf::core
