// Micro-benchmark driver under other execution conditions: real threads
// (preemptive scheduling), load-imbalance models, finite buffer caps —
// the matched transfer set must be identical in every configuration
// (timing independence of the temporal model).
#include <gtest/gtest.h>

#include "sim/microbench.hpp"

namespace ccf::sim {
namespace {

MicrobenchParams tiny() {
  MicrobenchParams p;
  p.rows = 32;
  p.cols = 32;
  p.exporter_procs = 4;
  p.importer_procs = 4;
  p.num_exports = 61;
  return p;
}

TEST(MicrobenchModes, RealThreadsProduceSameMatches) {
  MicrobenchParams p = tiny();
  const MicrobenchResult virt = run_microbench(p);
  p.mode = runtime::ExecutionMode::RealThreads;
  const MicrobenchResult threads = run_microbench(p);
  EXPECT_EQ(threads.importer_rank0_stats.matched_timestamps,
            virt.importer_rank0_stats.matched_timestamps);
  EXPECT_EQ(threads.importer_rank0_stats.matches, virt.importer_rank0_stats.matches);
  for (const auto& stats : threads.exporter_stats) {
    EXPECT_EQ(stats.transfers, virt.exporter_stats[0].transfers);
  }
}

TEST(MicrobenchModes, ImbalanceModelsPreserveMatches) {
  MicrobenchParams base = tiny();
  base.importer_procs = 16;
  base.num_exports = 201;
  const MicrobenchResult reference = run_microbench(base);
  ASSERT_GT(reference.importer_rank0_stats.matches, 0u);

  for (ImbalanceKind kind :
       {ImbalanceKind::Jitter, ImbalanceKind::SlowJitter, ImbalanceKind::Rotating,
        ImbalanceKind::Burst}) {
    MicrobenchParams p = base;
    ImbalanceModel model;
    model.kind = kind;
    model.slow_factor = 3.0;
    model.amplitude = 1.5;
    model.period = 30;
    p.imbalance = model;
    const MicrobenchResult r = run_microbench(p);
    EXPECT_EQ(r.importer_rank0_stats.matched_timestamps,
              reference.importer_rank0_stats.matched_timestamps)
        << "model " << to_string(kind);
  }
}

TEST(MicrobenchModes, BufferCapPreservesMatches) {
  MicrobenchParams p = tiny();
  p.importer_procs = 4;  // slower importer: buffering pressure
  const MicrobenchResult unbounded = run_microbench(p);
  p.memory_budget_snapshots = 5;  // no spill directory: the exporter stalls
  const MicrobenchResult capped = run_microbench(p);
  EXPECT_EQ(capped.importer_rank0_stats.matched_timestamps,
            unbounded.importer_rank0_stats.matched_timestamps);
  EXPECT_GT(capped.slow_stats.stalls, 0u);
  EXPECT_LE(capped.slow_stats.buffer.peak_entries, 5u);
}

TEST(MicrobenchModes, TraceBoundedUnderLongRuns) {
  MicrobenchParams p = tiny();
  p.trace = true;
  p.trace_max_events = 64;
  const MicrobenchResult r = run_microbench(p);
  // Bounded capture: the listing exists but respects the cap.
  std::size_t lines = 0;
  for (char c : r.slow_trace) {
    if (c == '\n') ++lines;
  }
  EXPECT_LE(lines, 64u);
  EXPECT_GT(lines, 0u);
}

}  // namespace
}  // namespace ccf::sim
