#include "modelcheck/explorer.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/system.hpp"
#include "transport/fault.hpp"
#include "transport/latency.hpp"

namespace ccf::modelcheck {

namespace {

using core::Config;
using core::ConnectionSpec;
using core::CoupledSystem;
using core::CouplingRuntime;
using core::FrameworkOptions;
using core::ProgramSpec;
using dist::BlockDecomposition;
using dist::DistArray2D;
using transport::FaultInjector;
using transport::FaultPlan;

/// Only the control plane is faulted (as in the chaos harness): the
/// failure-tolerance protocol recovers control losses end-to-end, while
/// payload reassembly is not the subject under test.
bool control_plane_only(transport::ProcId, transport::ProcId, transport::Tag tag) {
  return tag >= core::kTagImportRequest && tag < core::kTagDataBase;
}

FrameworkOptions framework_options(const Scenario& s) {
  FrameworkOptions fw;
  fw.buddy_help = s.buddy_help;
  fw.trace = true;  // structured events are the conformance observable
  if (s.faults.enabled) {
    fw.retry_timeout_seconds = 0.05;
    fw.retry_backoff_factor = 2.0;
    fw.max_retries = 64;
    fw.heartbeat_interval_seconds = 0.5;
    fw.departure_timeout_seconds = 10.0;
  }
  return fw;
}

}  // namespace

Observation run_scenario(const Scenario& s) {
  Config config;
  ProgramSpec e_spec{"E", "h", "/e", s.exporter_procs, {}};
  ProgramSpec i_spec{"I", "h", "/i", s.importer_procs, {}};
  e_spec.rep_fanin = i_spec.rep_fanin = s.rep_fanin;
  e_spec.rep_shards = i_spec.rep_shards = s.rep_shards;
  config.add_program(e_spec);
  config.add_program(i_spec);
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", s.policy, s.tolerance, {}});

  const auto rows = static_cast<dist::Index>(s.rows);
  const auto cols = static_cast<dist::Index>(s.cols);
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, s.exporter_procs);
  const auto i_decomp = BlockDecomposition::make_grid(rows, cols, s.importer_procs);

  FrameworkOptions fw = framework_options(s);
  std::filesystem::path spill_dir;
  if (s.budget_snapshots > 0) {
    // Budget in units of the largest exporter block, so a budget of N
    // snapshots means the same degree of eviction pressure on every rank.
    std::size_t max_block_bytes = 0;
    for (int r = 0; r < s.exporter_procs; ++r) {
      max_block_bytes = std::max(
          max_block_bytes,
          static_cast<std::size_t>(e_decomp.box_of(r).count()) * sizeof(double));
    }
    fw.memory.budget_bytes = static_cast<std::size_t>(s.budget_snapshots) * max_block_bytes;
    // Per process as well as per seed: concurrent explorers (parallel
    // test binaries walking the same seeds) must not share, and remove,
    // each other's directory.
    spill_dir = std::filesystem::temp_directory_path() /
                ("ccf_mc_spill_" + std::to_string(::getpid()) + "_" + std::to_string(s.seed));
    fw.memory.spill_directory = spill_dir.string();
  }

  runtime::ClusterOptions cluster_options;
  cluster_options.mode = runtime::ExecutionMode::VirtualTime;
  cluster_options.latency = std::make_shared<const transport::FixedLatency>(s.latency_seconds);
  // Scenarios are tiny (<= a few thousand protocol messages); anything in
  // the millions is a livelock. Bounding it keeps shrink candidates from
  // spinning for minutes — they throw and count as a failing run instead.
  cluster_options.max_events = 2'000'000;
  std::shared_ptr<FaultInjector> faults;
  if (s.faults.enabled) {
    FaultPlan plan;
    plan.seed = s.faults.seed;
    plan.drop_prob = s.faults.drop_prob;
    plan.duplicate_prob = s.faults.duplicate_prob;
    plan.delay_prob = s.faults.delay_prob;
    plan.delay_min_seconds = s.faults.delay_min_seconds;
    plan.delay_max_seconds = s.faults.delay_max_seconds;
    plan.eligible = control_plane_only;
    faults = std::make_shared<FaultInjector>(plan);
    cluster_options.faults = faults;
  }
  CoupledSystem system(config, cluster_options, fw);

  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    const double step = s.exporter_step_seconds[static_cast<std::size_t>(rt.rank())];
    for (Timestamp t : s.exports) {
      ctx.compute(step);
      // The payload carries the version so the importer can verify the
      // shipped snapshot is exactly the matched one.
      data.fill([&](dist::Index, dist::Index) { return t; });
      rt.export_region("r", t, data);
    }
    rt.finalize();
  });

  Observation obs;
  obs.importer_answers.resize(static_cast<std::size_t>(s.importer_procs));
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    auto& answers = obs.importer_answers[static_cast<std::size_t>(rt.rank())];
    const double step = s.importer_step_seconds[static_cast<std::size_t>(rt.rank())];
    for (Timestamp x : s.requests) {
      ctx.compute(step);
      const auto status = rt.import_region("r", x, data);
      RankAnswer a;
      a.matched = status.ok();
      if (a.matched) {
        a.version = status.matched;
        a.payload = data.data()[0];
      }
      answers.push_back(a);
    }
    rt.finalize();
  });

  try {
    system.run();
    obs.completed = true;
  } catch (const std::exception& e) {
    obs.error = e.what();
    if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
    return obs;  // stats/traces are unreliable after a failed run
  }
  // Spill files themselves are cleaned up by each SpillStore's destructor
  // when the runtimes die; only the per-scenario directory remains.
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);

  for (int r = 0; r < s.exporter_procs; ++r) {
    obs.exporter_stats.push_back(system.proc_stats("E", r));
    obs.exporter_events.push_back(system.trace_events("E", r, "r"));
  }
  for (int r = 0; r < s.importer_procs; ++r) {
    obs.importer_stats.push_back(system.proc_stats("I", r));
  }
  obs.exporter_rep = system.rep_result("E");
  obs.importer_rep = system.rep_result("I");
  if (faults) {
    const auto fs = faults->stats();
    obs.faults_injected = fs.dropped + fs.duplicated + fs.delayed;
  }
  return obs;
}

}  // namespace ccf::modelcheck
