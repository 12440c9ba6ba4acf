// Chaos harness for the hierarchical representative layer
// (docs/PROTOCOL.md, "Hierarchical representatives").
//
// Batched control frames (kTagTreeUp / kTagTreeDown) concentrate many
// per-rank control messages into single wire messages, so dropping one
// frame loses a whole wave of a subtree's responses at once — a much
// harsher fault than the flat protocol ever sees. The retry machinery
// must still converge every seeded schedule to the fault-free answers.
// A sub-rep dying mid-run is the aggregator-specific failure mode: its
// children detect the silence (not even relayed heartbeats arrive),
// re-parent onto the rep shards directly, and the run completes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/system.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;
using transport::FaultInjector;
using transport::FaultPlan;

struct Answer {
  bool matched = false;
  Timestamp version = 0;

  bool operator==(const Answer& o) const {
    return matched == o.matched && (!matched || version == o.version);
  }
};

struct Workload {
  int exporter_procs = 6;
  int importer_procs = 2;
  int fanin = 2;
  int shards = 1;
  int flush_count = 0;  ///< pipelined partial frames (0 = one per wave)
  std::vector<Timestamp> exports;
  std::vector<Timestamp> requests;
};

Workload default_workload() {
  Workload w;
  for (int i = 1; i <= 14; ++i) w.exports.push_back(i * 1.0);
  w.requests = {2.0, 5.5, 6.0, 9.5, 13.0};
  return w;
}

FrameworkOptions tolerant_options() {
  FrameworkOptions fw;
  fw.retry_timeout_seconds = 0.05;
  fw.heartbeat_interval_seconds = 0.5;
  fw.departure_timeout_seconds = 10.0;
  return fw;
}

/// The batched-frame tags sit inside the control window, so the flat
/// harness's control-plane filter faults them too; this filter narrows the
/// chaos to frames only — every lost message is a lost batch.
bool frames_only(transport::ProcId, transport::ProcId, transport::Tag tag) {
  return tag == kTagTreeUp || tag == kTagTreeDown;
}

bool control_plane_only(transport::ProcId, transport::ProcId, transport::Tag tag) {
  return tag >= kTagImportRequest && tag < kTagDataBase;
}

struct RunResult {
  std::vector<std::vector<Answer>> per_rank;
  std::vector<ProcStats> exporter_stats;
  std::uint64_t faults_injected = 0;
};

RunResult run_system(const Workload& wl, const FrameworkOptions& fw,
                     std::shared_ptr<FaultInjector> faults) {
  Config config;
  ProgramSpec e{"E", "h", "/e", wl.exporter_procs, {}};
  e.rep_fanin = wl.fanin;
  e.rep_shards = wl.shards;
  e.tree_flush_count = wl.flush_count;
  config.add_program(e);
  config.add_program(ProgramSpec{"I", "h", "/i", wl.importer_procs, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, 2.5, {}});

  runtime::ClusterOptions cluster_options;
  cluster_options.mode = runtime::ExecutionMode::VirtualTime;
  cluster_options.latency = std::make_shared<const transport::FixedLatency>(1e-3);
  cluster_options.faults = faults;
  CoupledSystem system(config, cluster_options, fw);

  const dist::Index rows = 12, cols = 12;
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, wl.exporter_procs);
  const auto i_decomp = BlockDecomposition::make_grid(rows, cols, wl.importer_procs);

  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (Timestamp t : wl.exports) {
      ctx.compute(1e-4);
      data.fill([&](dist::Index, dist::Index) { return t; });
      rt.export_region("r", t, data);
    }
    rt.finalize();
  });

  RunResult result;
  result.per_rank.resize(static_cast<std::size_t>(wl.importer_procs));
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    auto& answers = result.per_rank[static_cast<std::size_t>(rt.rank())];
    for (Timestamp x : wl.requests) {
      ctx.compute(1e-4);
      const auto status = rt.import_region("r", x, data);
      if (status.ok()) {
        EXPECT_DOUBLE_EQ(data.data()[0], status.matched);
        answers.push_back({true, status.matched});
      } else {
        answers.push_back({false, 0});
      }
    }
    rt.finalize();
  });

  system.run();
  for (int r = 0; r < wl.exporter_procs; ++r) {
    result.exporter_stats.push_back(system.proc_stats("E", r));
  }
  if (faults) {
    const auto fs = faults->stats();
    result.faults_injected = fs.dropped + fs.duplicated + fs.delayed;
  }
  return result;
}

void expect_same_answers(const RunResult& run, const std::vector<Answer>& reference,
                         const std::string& label) {
  for (std::size_t rank = 0; rank < run.per_rank.size(); ++rank) {
    const auto& answers = run.per_rank[rank];
    ASSERT_EQ(answers.size(), reference.size()) << label << " rank " << rank;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(answers[i] == reference[i])
          << label << " rank " << rank << " request " << i << ": got ("
          << answers[i].matched << ", " << answers[i].version << "), expected ("
          << reference[i].matched << ", " << reference[i].version << ")";
    }
  }
}

TEST(TreeChaos, DroppedAndReorderedFramesConvergeAcrossSeeds) {
  const Workload wl = default_workload();
  const RunResult reference = run_system(wl, tolerant_options(), nullptr);
  ASSERT_FALSE(reference.per_rank.empty());
  const std::vector<Answer>& expected = reference.per_rank[0];

  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_prob = 0.1;
    plan.duplicate_prob = 0.1;
    plan.delay_prob = 0.2;  // delayed frames arrive out of order
    plan.delay_min_seconds = 0.02;
    plan.delay_max_seconds = 0.2;
    plan.eligible = frames_only;
    RunResult run;
    try {
      run = run_system(wl, tolerant_options(), std::make_shared<FaultInjector>(plan));
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": " << e.what();
    }
    expect_same_answers(run, expected, "frames seed " + std::to_string(seed));
    total_faults += run.faults_injected;
  }
  EXPECT_GT(total_faults, 30u);
}

TEST(TreeChaos, FullControlPlaneChaosWithTreeAndShards) {
  Workload wl = default_workload();
  wl.fanin = 3;
  wl.shards = 2;
  const RunResult reference = run_system(wl, tolerant_options(), nullptr);
  ASSERT_FALSE(reference.per_rank.empty());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_prob = 0.1;
    plan.duplicate_prob = 0.1;
    plan.delay_prob = 0.1;
    plan.delay_min_seconds = 0.02;
    plan.delay_max_seconds = 0.15;
    plan.eligible = control_plane_only;
    RunResult run;
    try {
      run = run_system(wl, tolerant_options(), std::make_shared<FaultInjector>(plan));
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": " << e.what();
    }
    expect_same_answers(run, reference.per_rank[0], "mixed seed " + std::to_string(seed));
  }
}

TEST(TreeChaos, PipelinedPartialFramesConvergeAcrossFlushThresholds) {
  // Pipelined aggregation changes the framing — a wave's entries leave
  // in several partial TreeUp/TreeDown frames instead of one — but not
  // the aggregate, so every flush threshold must produce the per-wave
  // baseline's answers. flush_count=1 is the extreme: one entry per
  // frame, maximum frame count, every batching invariant stressed.
  const Workload baseline = default_workload();
  const RunResult reference = run_system(baseline, tolerant_options(), nullptr);
  ASSERT_FALSE(reference.per_rank.empty());

  for (const int flush : {1, 2, 4}) {
    Workload wl = baseline;
    wl.flush_count = flush;

    // Fault-free: answers identical at every threshold.
    const RunResult clean = run_system(wl, tolerant_options(), nullptr);
    expect_same_answers(clean, reference.per_rank[0],
                        "flush " + std::to_string(flush) + " clean");

    // Under frame chaos a lost partial frame loses fewer entries than a
    // lost whole-wave frame, but the retry machinery must converge all
    // the same.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      FaultPlan plan;
      plan.seed = seed;
      plan.drop_prob = 0.1;
      plan.duplicate_prob = 0.1;
      plan.delay_prob = 0.2;
      plan.delay_min_seconds = 0.02;
      plan.delay_max_seconds = 0.2;
      plan.eligible = frames_only;
      RunResult run;
      try {
        run = run_system(wl, tolerant_options(), std::make_shared<FaultInjector>(plan));
      } catch (const std::exception& e) {
        FAIL() << "flush " << flush << " seed " << seed << ": " << e.what();
      }
      expect_same_answers(run, reference.per_rank[0],
                          "flush " + std::to_string(flush) + " seed " +
                              std::to_string(seed));
    }
  }
}

TEST(TreeChaos, SubRepDeathMidRunReparentsAndConverges) {
  const Workload wl = default_workload();
  const RunResult reference = run_system(wl, tolerant_options(), nullptr);
  ASSERT_FALSE(reference.per_rank.empty());

  FrameworkOptions fw = tolerant_options();
  fw.departure_timeout_seconds = 1.0;
  fw.debug_kill_subrep = 0;  // leaf node covering exporter ranks 0..1
  fw.debug_kill_subrep_at = 0.02;
  fw.debug_kill_subrep_program = "E";

  const RunResult run = run_system(wl, fw, nullptr);
  expect_same_answers(run, reference.per_rank[0], "subrep-kill");
  std::uint64_t reparents = 0;
  for (const auto& stats : run.exporter_stats) reparents += stats.ft.reparents;
  EXPECT_GT(reparents, 0u);
}

TEST(TreeChaos, SubRepDeathUnderFrameChaosStillConverges) {
  const Workload wl = default_workload();
  const RunResult reference = run_system(wl, tolerant_options(), nullptr);

  FrameworkOptions fw = tolerant_options();
  fw.departure_timeout_seconds = 1.0;
  fw.debug_kill_subrep = 1;
  fw.debug_kill_subrep_at = 0.05;
  fw.debug_kill_subrep_program = "E";

  FaultPlan plan;
  plan.seed = 9;
  plan.drop_prob = 0.08;
  plan.delay_prob = 0.1;
  plan.delay_min_seconds = 0.02;
  plan.delay_max_seconds = 0.1;
  plan.eligible = frames_only;
  const RunResult run = run_system(wl, fw, std::make_shared<FaultInjector>(plan));
  expect_same_answers(run, reference.per_rank[0], "subrep-kill-chaos");
}

}  // namespace
}  // namespace ccf::core
