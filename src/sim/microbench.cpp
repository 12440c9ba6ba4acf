#include "sim/microbench.hpp"

#include <cmath>

#include "sim/forcing.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace ccf::sim {

using core::Config;
using core::ConnectionSpec;
using core::CouplingRuntime;
using core::ProgramSpec;

MicrobenchResult run_microbench(const MicrobenchParams& params) {
  CCF_REQUIRE(params.exporter_procs >= 1, "need at least one exporter process");
  CCF_REQUIRE(params.importer_procs >= 1, "need at least one importer process");
  CCF_REQUIRE(params.num_exports >= 1, "need at least one export");
  CCF_REQUIRE(params.request_stride > 0 && params.export_dt > 0, "positive steps required");

  Config config;
  config.add_program(ProgramSpec{"F", "cluster0", "/bin/F", params.exporter_procs, {}});
  config.add_program(ProgramSpec{"U", "cluster1", "/bin/U", params.importer_procs, {}});
  config.add_connection(ConnectionSpec{"F", "r1", "U", "r1", params.policy, params.tolerance});

  runtime::ClusterOptions cluster_options;
  cluster_options.mode = params.mode;

  core::FrameworkOptions fw;
  fw.buddy_help = params.buddy_help;
  fw.trace = params.trace;
  fw.trace_max_events = params.trace_max_events;
  // Resolved below once the exporter block size is known.

  const dist::BlockDecomposition decomp_f =
      dist::BlockDecomposition::make_grid(params.rows, params.cols, params.exporter_procs);
  const dist::BlockDecomposition decomp_u =
      dist::BlockDecomposition::make_grid(params.rows, params.cols, params.importer_procs);

  // The cost unit C: buffering one exporter-local block snapshot.
  const int slow_rank = params.exporter_procs - 1;
  const std::size_t slow_block_bytes =
      static_cast<std::size_t>(decomp_f.box_of(slow_rank).count()) * sizeof(double);
  const double unit = cluster_options.copy_cost.cost_seconds(slow_block_bytes);
  cluster_options.latency = std::make_shared<const transport::BandwidthLatency>(
      params.net_latency_factor * unit, params.net_bandwidth);
  if (params.memory_budget_snapshots > 0) {
    fw.memory.budget_bytes = params.memory_budget_snapshots * slow_block_bytes;
    fw.memory.spill_directory = params.spill_directory;
  }

  const int num_requests = static_cast<int>(std::floor(
      (params.export_t0 + params.num_exports * params.export_dt) / params.request_stride));

  core::CoupledSystem system(config, cluster_options, fw);

  system.set_program_body("F", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r1", decomp_f);
    rt.commit();
    ForcingField forcing(decomp_f, rt.rank());
    forcing.fill(params.export_t0);
    const bool slow = rt.rank() == slow_rank;
    const double base_seconds =
        unit * (slow ? params.slow_compute_factor : params.fast_compute_factor);
    for (int k = 1; k <= params.num_exports; ++k) {
      const double t = params.export_t0 + k * params.export_dt;
      double compute_seconds = base_seconds;
      if (params.imbalance) {
        compute_seconds = unit * params.fast_compute_factor *
                          params.imbalance->factor(rt.rank(), params.exporter_procs, k);
      }
      ctx.compute(compute_seconds);  // the per-iteration computational task
      forcing.touch(t);
      rt.export_region("r1", t, forcing.field());
    }
    rt.finalize();
  });

  system.set_program_body("U", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r1", decomp_u);
    rt.commit();
    dist::DistArray2D<double> input(decomp_u, rt.rank());
    const double per_proc_work =
        unit * params.importer_work_factor / params.importer_procs;
    ctx.compute(unit * params.importer_init_factor / params.importer_procs);
    for (int j = 1; j <= num_requests; ++j) {
      (void)rt.import_region("r1", params.request_stride * j, input);
      ctx.compute(per_proc_work);  // the solver's time step
    }
    rt.finalize();
  });

  system.run();

  MicrobenchResult result;
  result.params = params;
  result.copy_cost_seconds = unit;
  result.end_time = system.end_time();
  result.exporter_rep = system.rep_result("F");

  for (int r = 0; r < params.exporter_procs; ++r) {
    const core::ProcStats& stats = system.proc_stats("F", r);
    CCF_CHECK(stats.exports.size() == 1, "exporter should have exactly one region");
    result.exporter_stats.push_back(stats.exports[0]);
  }
  result.slow_stats = result.exporter_stats[static_cast<std::size_t>(slow_rank)];
  result.slow_governor = system.proc_stats("F", slow_rank).governor;
  result.slow_export_seconds = result.slow_stats.export_seconds;
  result.slow_export_timestamps = result.slow_stats.export_timestamps;
  result.slow_trace = system.trace_listing("F", slow_rank, "r1");

  const core::ProcStats& u0 = system.proc_stats("U", 0);
  CCF_CHECK(u0.imports.size() == 1, "importer should have exactly one region");
  result.importer_rank0_stats = u0.imports[0];

  // Analyse only exports up to the last request's timestamp: everything
  // after it is necessarily buffered again (no request information exists
  // beyond the final region), a tail artifact of the finite run.
  const double last_request_t = num_requests * params.request_stride;
  std::vector<double> analysed = result.slow_export_seconds;
  for (std::size_t i = 0; i < result.slow_export_timestamps.size(); ++i) {
    if (result.slow_export_timestamps[i] > last_request_t) {
      analysed.resize(i);
      break;
    }
  }
  // Aggregate into request-period blocks: each block holds exactly one
  // matched (buffered + transferred) export, so block means isolate the
  // trend from the periodic matched-copy spike.
  const std::size_t block =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::lround(params.request_stride / params.export_dt)));
  result.block_iterations = block;
  for (std::size_t start = 0; start + block <= analysed.size(); start += block) {
    result.block_mean_seconds.push_back(util::mean_of(analysed, start, start + block));
  }
  const std::size_t window = std::min<std::size_t>(3, std::max<std::size_t>(
                                                          result.block_mean_seconds.size(), 1));
  result.settle_iteration =
      util::settle_index(result.block_mean_seconds, window, 0.10) * block;
  result.initial_mean = util::mean_of(analysed, 0, std::min(block, analysed.size()));
  const std::size_t tail = window * block;
  result.plateau_mean = util::mean_of(
      analysed, analysed.size() > tail ? analysed.size() - tail : 0, analysed.size());
  return result;
}

}  // namespace ccf::sim
