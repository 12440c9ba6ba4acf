// The paper's §5 micro-benchmark: program F (4 processes, one slowed)exports
// f(t,x,y) snapshots; program U (4/8/16/32 processes) imports 1-in-20 of
// them under REGL matching. Reproduces Figure 4's per-iteration export
// times of the slowest exporter process, and (with tracing) the Figure
// 5/7/8 listings.
//
// Compute costs are expressed as multiples of one export-buffering copy
// (the local block memcpy cost under the cluster's CopyCostModel), so the
// regime — which side is faster, where the knee lands — is invariant to
// the configured array size. Defaults reproduce the paper's regimes:
//   U=4,8  -> importer slower, every export buffered (Fig 4a/4b, flat);
//   U=16   -> importer catches up slowly (Fig 4c, knee ~hundreds of iters);
//   U=32   -> importer much faster (Fig 4d, knee within tens of iters).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/system.hpp"
#include "runtime/cluster.hpp"
#include "sim/imbalance.hpp"

namespace ccf::sim {

struct MicrobenchParams {
  int importer_procs = 16;
  int exporter_procs = 4;
  dist::Index rows = 1024;
  dist::Index cols = 1024;

  int num_exports = 1001;
  double export_t0 = 0.6;       ///< first export at t0 + dt (paper: 1.6)
  double export_dt = 1.0;
  double request_stride = 20.0; ///< import x = stride, 2*stride, ... (1-in-20 matched)
  double tolerance = 2.5;
  core::MatchPolicy policy = core::MatchPolicy::REGL;

  /// Per-iteration compute of the fast exporter processes, as a multiple
  /// of one buffering copy cost C.
  double fast_compute_factor = 1.43;
  /// Per-iteration compute of the slow process p_s (ranks-1), in C.
  double slow_compute_factor = 3.57;
  /// Optional load-imbalance pattern. When set it overrides the
  /// fast/slow pair: each rank's per-iteration compute is
  /// fast_compute_factor * imbalance->factor(rank, nprocs, iter) * C.
  std::optional<ImbalanceModel> imbalance;
  /// Importer program's total per-iteration work in C (divided evenly
  /// among its processes — more processes, faster importer, as in §5).
  double importer_work_factor = 1143.0;
  /// One-time importer initialization work in C (setting up the initial
  /// condition before the first import), same per-process division.
  double importer_init_factor = 1143.0;

  bool buddy_help = true;
  bool trace = false;                ///< record p_s's event listing
  std::size_t trace_max_events = 4096;

  /// Finite buffer space (MemoryOptions::budget_bytes): resident-snapshot
  /// budget per exporter process, in snapshots of its local block (0 =
  /// unlimited). Without a spill directory the exporter stalls at the
  /// budget; with one it first demotes cold snapshots to the spill tier
  /// and keeps running.
  std::size_t memory_budget_snapshots = 0;
  /// Spill-tier directory ("" = no spill tier: stall or soft-exceed).
  std::string spill_directory;

  runtime::ExecutionMode mode = runtime::ExecutionMode::VirtualTime;
  /// Per-message network latency as a multiple of the copy cost C. On the
  /// paper's testbed (2 MB blocks, GigE) latency was ~0.036 C; expressing
  /// it relative to C keeps the regime boundaries invariant when the
  /// benchmark is run at reduced array sizes.
  double net_latency_factor = 0.04;
  double net_bandwidth = 110e6;  ///< bytes/s for data pieces (GigE-class)
};

struct MicrobenchResult {
  MicrobenchParams params;

  /// Slowest exporter process's per-iteration export durations (Fig 4
  /// y-axis) and their timestamps.
  std::vector<double> slow_export_seconds;
  std::vector<double> slow_export_timestamps;

  core::ExportRegionStats slow_stats;                ///< p_s, region r1
  std::vector<core::ExportRegionStats> exporter_stats;  ///< all F ranks
  mem::GovernorStats slow_governor;  ///< p_s's process-wide governor accounting
  core::ImportRegionStats importer_rank0_stats;
  core::RepResult exporter_rep;

  std::string slow_trace;  ///< Fig 5-style listing (when params.trace)

  double end_time = 0;          ///< cluster end time (virtual seconds)
  double copy_cost_seconds = 0; ///< the cost unit C used for the factors

  /// Mean export time per request-period block (stride/dt iterations per
  /// block), computed over the analysed prefix (tail artifact trimmed).
  std::vector<double> block_mean_seconds;
  std::size_t block_iterations = 0;  ///< iterations per block

  /// First iteration index after which the export-time series stays on
  /// its final plateau (the paper's "iterations to reach optimal state").
  /// Computed over request-period blocks so the one matched (and thus
  /// buffered) export per block does not read as noise.
  std::size_t settle_iteration = 0;

  /// Mean export seconds over the first/last `window` iterations.
  double initial_mean = 0;
  double plateau_mean = 0;
};

MicrobenchResult run_microbench(const MicrobenchParams& params);

}  // namespace ccf::sim
