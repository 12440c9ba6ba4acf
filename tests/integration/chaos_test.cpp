// Chaos harness: the coupling protocol under a faulty fabric.
//
// A seeded FaultInjector drops, duplicates, and delays control-plane
// messages (requests, forwards, responses, answers, geometry, shutdown)
// while the failure-tolerance machinery — sequence-numbered idempotent
// control messages, timeout/backoff retries, heartbeats, departure
// detection, stall degrade — keeps the system live. Under every fault
// schedule the runs must
//   * terminate (a wedged run raises DeadlockError / exceeds max_events),
//   * produce only legal rep aggregates (violations throw),
//   * give every importer rank the identical answer sequence, and
//   * match the answers of a fault-free run of the same workload
//     (delivery faults perturb timing, never semantics).
// Virtual-time mode makes each schedule deterministic and replayable from
// its seed.
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
  int exporter_procs = 3;
  int importer_procs = 2;
  std::vector<Timestamp> exports;
  std::vector<Timestamp> requests;
};

Workload default_workload() {
  Workload w;
  for (int i = 1; i <= 18; ++i) w.exports.push_back(i * 1.0);
  w.requests = {2.0, 5.5, 6.0, 9.5, 13.0, 17.5};
  return w;
}

FrameworkOptions tolerant_options() {
  FrameworkOptions fw;
  fw.retry_timeout_seconds = 0.05;
  fw.retry_backoff_factor = 2.0;
  fw.max_retries = 64;
  fw.heartbeat_interval_seconds = 0.5;
  fw.departure_timeout_seconds = 10.0;
  return fw;
}

/// Only the control plane is faulted: data pieces and collective traffic
/// pass untouched (payload reassembly is not the subject under test; the
/// protocol recovers control losses end-to-end).
bool control_plane_only(transport::ProcId, transport::ProcId, transport::Tag tag) {
  return tag >= kTagImportRequest && tag < kTagDataBase;
}

struct RunResult {
  std::vector<std::vector<Answer>> per_rank;  ///< importer answers, by rank
  std::vector<ProcStats> exporter_stats;
  std::vector<ProcStats> importer_stats;
  std::uint64_t faults_injected = 0;
};

RunResult run_system(const Workload& wl, const FrameworkOptions& fw,
                     std::shared_ptr<FaultInjector> faults) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", wl.exporter_procs, {}});
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
        // The payload identifies the shipped version: it must be the
        // matched one even after duplicated/reordered control traffic.
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
  for (int r = 0; r < wl.importer_procs; ++r) {
    result.importer_stats.push_back(system.proc_stats("I", r));
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

TEST(Chaos, FaultFreeTolerantRunMatchesBaselineWithZeroOverheadCounters) {
  const Workload wl = default_workload();
  const RunResult baseline = run_system(wl, FrameworkOptions{}, nullptr);
  const RunResult tolerant = run_system(wl, tolerant_options(), nullptr);
  ASSERT_FALSE(baseline.per_rank.empty());
  expect_same_answers(tolerant, baseline.per_rank[0], "tolerant-vs-baseline");
  // On a lossless fabric the tolerance machinery must never fire.
  for (const auto& stats : tolerant.importer_stats) {
    EXPECT_EQ(stats.ft.request_retries, 0u);
    EXPECT_EQ(stats.ft.stale_answers, 0u);
    EXPECT_EQ(stats.ft.commit_retries, 0u);
    EXPECT_EQ(stats.ft.conn_done_retries, 0u);
    EXPECT_FALSE(stats.ft.rep_departed);
  }
  for (const auto& stats : tolerant.exporter_stats) {
    for (const auto& e : stats.exports) {
      EXPECT_EQ(e.duplicate_requests, 0u);
      EXPECT_EQ(e.reordered_requests, 0u);
      EXPECT_EQ(e.degraded_conns, 0u);
    }
  }
}

TEST(Chaos, TwentyFourSeededFaultSchedulesConvergeToFaultFreeAnswers) {
  const Workload wl = default_workload();
  const RunResult reference = run_system(wl, tolerant_options(), nullptr);
  ASSERT_FALSE(reference.per_rank.empty());
  const std::vector<Answer>& expected = reference.per_rank[0];

  std::uint64_t total_faults = 0, total_retries = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_prob = 0.15;
    plan.duplicate_prob = 0.15;
    plan.delay_prob = 0.15;
    plan.delay_min_seconds = 0.02;
    plan.delay_max_seconds = 0.2;
    plan.eligible = control_plane_only;
    RunResult run;
    try {
      run = run_system(wl, tolerant_options(), std::make_shared<FaultInjector>(plan));
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": " << e.what();
    }
    expect_same_answers(run, expected, "seed " + std::to_string(seed));
    total_faults += run.faults_injected;
    for (const auto& stats : run.importer_stats) total_retries += stats.ft.request_retries;
  }
  // The harness must actually have exercised the machinery, not run clean.
  EXPECT_GT(total_faults, 100u);
  EXPECT_GT(total_retries, 0u);
}

TEST(Chaos, ReplaySameSeedProducesIdenticalFaultSchedule) {
  const Workload wl = default_workload();
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 0.2;
  plan.duplicate_prob = 0.2;
  plan.delay_prob = 0.2;
  plan.delay_min_seconds = 0.02;
  plan.delay_max_seconds = 0.2;
  plan.eligible = control_plane_only;
  auto inj_a = std::make_shared<FaultInjector>(plan);
  auto inj_b = std::make_shared<FaultInjector>(plan);
  const RunResult a = run_system(wl, tolerant_options(), inj_a);
  const RunResult b = run_system(wl, tolerant_options(), inj_b);
  // Virtual time + per-link decision indexing: byte-for-byte replay.
  EXPECT_EQ(inj_a->stats().dropped, inj_b->stats().dropped);
  EXPECT_EQ(inj_a->stats().duplicated, inj_b->stats().duplicated);
  EXPECT_EQ(inj_a->stats().delayed, inj_b->stats().delayed);
  ASSERT_FALSE(a.per_rank.empty());
  expect_same_answers(b, a.per_rank[0], "replay");
}

TEST(Chaos, DroppedShutdownIsSurvivedViaDepartureDetection) {
  const Workload wl = default_workload();
  const RunResult reference = run_system(wl, tolerant_options(), nullptr);

  FaultPlan plan;
  plan.seed = 3;
  plan.drop_prob = 1.0;
  plan.eligible = [](transport::ProcId, transport::ProcId, transport::Tag tag) {
    return tag == kTagShutdownProc;
  };
  FrameworkOptions fw = tolerant_options();
  fw.departure_timeout_seconds = 2.0;
  const RunResult run = run_system(wl, fw, std::make_shared<FaultInjector>(plan));

  // Every shutdown notice was eaten, yet the run terminated with the
  // right answers: the procs noticed their rep went silent and left.
  expect_same_answers(run, reference.per_rank[0], "dropped-shutdown");
  EXPECT_GT(run.faults_injected, 0u);
  bool any_departed = false;
  for (const auto& stats : run.importer_stats) any_departed |= stats.ft.rep_departed;
  for (const auto& stats : run.exporter_stats) any_departed |= stats.ft.rep_departed;
  EXPECT_TRUE(any_departed);
}

TEST(Chaos, StalledExporterDegradesWhenImporterDepartureNoticeIsLost) {
  // The importer issues one early request and leaves; every ConnFinished
  // notification (initial + first retries) is eaten, so the exporter
  // keeps buffering for a connection that will never consume, hits its
  // finite buffer cap, stalls — and must degrade via the stall timeout
  // instead of blocking forever. A later heartbeat-tick retry finally
  // gets through and completes the shutdown handshake.
  Workload wl;
  wl.exporter_procs = 2;
  wl.importer_procs = 1;
  for (int i = 1; i <= 30; ++i) wl.exports.push_back(i * 1.0);
  wl.requests = {2.0};

  FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 1.0;
  plan.max_faults = 3;
  plan.eligible = [](transport::ProcId, transport::ProcId, transport::Tag tag) {
    return tag == kTagConnFinished;
  };

  FrameworkOptions fw = tolerant_options();
  fw.memory.budget_bytes = 4 * (12 / 2) * 12 * sizeof(double);  // ~4 snapshots
  fw.stall_timeout_seconds = 0.2;

  const RunResult run = run_system(wl, fw, std::make_shared<FaultInjector>(plan));
  ASSERT_EQ(run.per_rank.at(0).size(), 1u);
  EXPECT_TRUE(run.per_rank[0][0].matched);
  EXPECT_EQ(run.faults_injected, 3u);
  std::uint64_t stalls = 0, degraded = 0;
  for (const auto& stats : run.exporter_stats) {
    for (const auto& e : stats.exports) {
      stalls += e.stalls;
      degraded += e.degraded_conns;
    }
  }
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(degraded, 0u);
}

TEST(Chaos, FinalizeWithUnfinishedPipelinedImportsThrows) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", 1, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", 1, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, 1.0, {}});
  runtime::ClusterOptions cluster_options;
  cluster_options.mode = runtime::ExecutionMode::VirtualTime;
  CoupledSystem system(config, cluster_options, FrameworkOptions{});
  const auto decomp = BlockDecomposition::make_grid(4, 4, 1);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, 0);
    rt.export_region("r", 1.0, data);
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    (void)rt.import_request("r", 1.0);
    EXPECT_EQ(rt.pending_imports("r"), 1u);
    rt.finalize();  // never waited on the ticket
  });
  EXPECT_THROW(system.run(), util::InvalidArgument);
}

}  // namespace
}  // namespace ccf::core
