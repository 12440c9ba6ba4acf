// Bounded-memory buffer governance (src/mem): budget enforcement through
// decidability-ranked eviction to the spill tier, byte-identical restores
// on late matches, soft-exceed degradation when a single snapshot exceeds
// the budget, buddy-help frees of spilled never-match snapshots, arena
// caps, and collective-backpressure importer throttling.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/system.hpp"

namespace ccf::core {
namespace {

namespace fs = std::filesystem;
using dist::BlockDecomposition;
using dist::DistArray2D;

Config make_config(int exp_procs, int imp_procs, MatchPolicy policy = MatchPolicy::REGL,
                   double tolerance = 0.5) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", exp_procs, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", imp_procs, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", policy, tolerance, {}});
  return config;
}

/// Creates (and empties) a per-test spill directory under the system tmp.
std::string spill_dir(const std::string& test) {
  const fs::path dir = fs::temp_directory_path() / ("ccf_memgov_" + test);
  fs::remove_all(dir);
  return dir.string();
}

// The acceptance workload: a slow importer lets two exporter ranks run
// far ahead, so the ungoverned run buffers many snapshots.
struct RunOutput {
  std::vector<ProcStats> exporter_stats;
  std::vector<std::pair<bool, Timestamp>> answers;
  std::vector<double> payloads;
};

RunOutput run_slow_importer(const FrameworkOptions& fw) {
  const dist::Index side = 16;
  const auto decomp = BlockDecomposition::make_grid(side, side, 2);
  Config config = make_config(2, 2);
  CoupledSystem system(config, runtime::ClusterOptions{}, fw);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 60; ++k) {
      ctx.compute(1e-6);
      data.fill([&](dist::Index, dist::Index) { return static_cast<double>(k); });
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });
  RunOutput out;
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    ctx.compute(5e-3);  // slow start: the exporter races ahead
    for (double x : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0}) {
      const auto st = rt.import_region("r", x, data);
      if (rt.rank() == 0) {
        out.answers.emplace_back(st.ok(), st.matched);
        out.payloads.push_back(data.data()[0]);
      }
      ctx.compute(5e-3);
    }
    rt.finalize();
  });
  system.run();
  for (int r = 0; r < 2; ++r) out.exporter_stats.push_back(system.proc_stats("E", r));
  return out;
}

TEST(MemoryGovernance, QuarterBudgetMatchesUnboundedAnswersAndWireBytes) {
  const RunOutput unbounded = run_slow_importer(FrameworkOptions{});
  const std::size_t unbounded_peak = unbounded.exporter_stats[0].exports[0].buffer.peak_bytes;
  ASSERT_GT(unbounded_peak, 0u);

  FrameworkOptions fw;
  fw.memory.budget_bytes = unbounded_peak / 4;
  fw.memory.spill_directory = spill_dir("quarter_budget");
  const RunOutput governed = run_slow_importer(fw);

  // Identical collective answers and identical shipped payloads.
  ASSERT_EQ(governed.answers, unbounded.answers);
  ASSERT_EQ(governed.payloads, unbounded.payloads);

  for (int r = 0; r < 2; ++r) {
    const ExportRegionStats& g = governed.exporter_stats[static_cast<std::size_t>(r)].exports[0];
    const ExportRegionStats& u = unbounded.exporter_stats[static_cast<std::size_t>(r)].exports[0];
    // Same wire traffic: governance moves bytes to disk, never onto the
    // fabric.
    EXPECT_EQ(g.bytes_delivered, u.bytes_delivered) << "rank " << r;
    EXPECT_EQ(g.transfers, u.transfers) << "rank " << r;
    // Peak residency bounded by the budget, paid for by evictions.
    EXPECT_LE(g.buffer.peak_bytes, fw.memory.budget_bytes) << "rank " << r;
    EXPECT_GT(g.buffer.evictions, 0u) << "rank " << r;
    EXPECT_EQ(g.buffer.evictions,
              g.buffer.restores + g.buffer.spill_frees + g.buffer.live_spilled_entries)
        << "rank " << r;
    EXPECT_EQ(g.buffer.live_spilled_entries, 0u) << "rank " << r;
    EXPECT_LE(governed.exporter_stats[static_cast<std::size_t>(r)].governor.peak_charged_bytes, fw.memory.budget_bytes)
        << "rank " << r;
  }
  fs::remove_all(fw.memory.spill_directory);
}

TEST(MemoryGovernance, EvictThenLateMatchRestoresByteIdentically) {
  // One snapshot of budget: every buffered export beyond the first is
  // demoted to disk. The late request then matches a *spilled* version,
  // which must come back byte-for-byte before shipping.
  const dist::Index side = 8;
  const auto decomp = BlockDecomposition::make_grid(side, side, 1);
  const std::size_t snapshot =
      static_cast<std::size_t>(decomp.box_of(0).count()) * sizeof(double);
  Config config = make_config(1, 1);
  FrameworkOptions fw;
  fw.memory.budget_bytes = snapshot;
  fw.memory.spill_directory = spill_dir("late_match");
  CoupledSystem system(config, runtime::ClusterOptions{}, fw);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 12; ++k) {
      ctx.compute(1e-6);
      // Element-unique payload so a restore that scrambled any byte of
      // the frame shows up in the importer's array.
      data.fill([&](dist::Index i, dist::Index j) {
        return 1000.0 * k + static_cast<double>(i * side + j);
      });
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> out(decomp, rt.rank());
    ctx.compute(1e-2);  // every export happens (and spills) first
    const auto st = rt.import_region("r", 5.0, out);
    ASSERT_TRUE(st.ok());
    ASSERT_DOUBLE_EQ(st.matched, 5.0);
    for (dist::Index i = 0; i < side; ++i) {
      for (dist::Index j = 0; j < side; ++j) {
        ASSERT_DOUBLE_EQ(out.data()[i * side + j], 1000.0 * 5 + static_cast<double>(i * side + j))
            << "element (" << i << "," << j << ")";
      }
    }
    rt.finalize();
  });
  system.run();
  const auto stats = system.proc_stats("E", 0).exports.at(0);
  EXPECT_GT(stats.buffer.evictions, 0u);
  EXPECT_GT(stats.buffer.restores, 0u);  // the match came back from disk
  EXPECT_LE(stats.buffer.peak_bytes, snapshot);
  fs::remove_all(fw.memory.spill_directory);
}

TEST(MemoryGovernance, BudgetBelowOneSnapshotDegradesInsteadOfDeadlocking) {
  // No snapshot can ever fit: stalling would never help, so the governor
  // is exceeded softly (bounded-buffering degraded mode) and the run
  // completes with correct answers.
  const auto decomp = BlockDecomposition::make_grid(8, 8, 1);
  Config config = make_config(1, 1);
  FrameworkOptions fw;
  fw.memory.budget_bytes = 1;  // absurdly small: any snapshot exceeds it
  fw.memory.spill_directory = spill_dir("tiny_budget");
  CoupledSystem system(config, runtime::ClusterOptions{}, fw);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 30; ++k) {
      ctx.compute(1e-4);
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> out(decomp, rt.rank());
    EXPECT_TRUE(rt.import_region("r", 25.0, out).ok());
    rt.finalize();
  });
  system.run();  // must terminate (no deadlock)
  const ProcStats stats = system.proc_stats("E", 0);
  EXPECT_EQ(stats.exports.at(0).transfers, 1u);
  // The budget was genuinely exceeded (soft), and pressure was raised.
  // (The raise and clear both happen within one export call here — the
  // snapshot is stored, matched, shipped, and freed in one go — so the
  // edge-triggered proc->rep signal correctly coalesces to nothing.)
  EXPECT_GT(stats.governor.peak_charged_bytes, fw.memory.budget_bytes);
  EXPECT_GT(stats.governor.pressure_raises, 0u);
  fs::remove_all(fw.memory.spill_directory);
}

TEST(MemoryGovernance, BuddyHelpFreesSpilledSnapshotsWithoutRestore) {
  // Two exporter ranks, one much slower. The fast rank decides MATCH
  // while the slow rank answers PENDING; the rep's buddy-help then lets
  // the slow rank free everything below the match — including snapshots
  // already demoted to disk, which must be dropped without a restore
  // round-trip (spill_frees, not restores).
  const dist::Index side = 8;
  const auto e_decomp = BlockDecomposition::make_grid(side, side, 2);
  const auto i_decomp = BlockDecomposition::make_grid(side, side, 1);
  const std::size_t snapshot =
      static_cast<std::size_t>(e_decomp.box_of(0).count()) * sizeof(double);
  Config config = make_config(2, 1, MatchPolicy::REGL, 2.0);
  FrameworkOptions fw;
  fw.memory.budget_bytes = snapshot;  // one-snapshot budget: spill everything else
  fw.memory.spill_directory = spill_dir("buddy_help");
  CoupledSystem system(config, runtime::ClusterOptions{}, fw);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    const double step = rt.rank() == 0 ? 1e-5 : 2e-3;  // rank 1 lags far behind
    for (int k = 1; k <= 12; ++k) {
      ctx.compute(step);
      data.fill([&](dist::Index, dist::Index) { return static_cast<double>(k); });
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", i_decomp);
    rt.commit();
    DistArray2D<double> out(i_decomp, rt.rank());
    // Request when the slow rank has buffered (and spilled) ~7 versions
    // but not yet produced the match: rank 0 answers MATCH@8, rank 1
    // answers PENDING, and the rep's help frees rank 1's spilled tail.
    ctx.compute(1.5e-2);
    for (double x : {8.0, 12.0}) {
      const auto st = rt.import_region("r", x, out);
      EXPECT_TRUE(st.ok());
      ctx.compute(1e-3);
    }
    rt.finalize();
  });
  system.run();
  const auto slow = system.proc_stats("E", 1).exports.at(0);
  EXPECT_GT(slow.buddy_helps_received, 0u);
  EXPECT_GT(slow.buffer.spill_frees, 0u);  // freed on disk, no restore
  EXPECT_EQ(slow.buffer.evictions,
            slow.buffer.restores + slow.buffer.spill_frees + slow.buffer.live_spilled_entries);
  EXPECT_EQ(slow.buffer.live_spilled_entries, 0u);
  fs::remove_all(fw.memory.spill_directory);
}

TEST(MemoryGovernance, ImporterThrottlesWhileExporterUnderPressure) {
  const dist::Index side = 16;
  const auto decomp = BlockDecomposition::make_grid(side, side, 2);
  const std::size_t snapshot =
      static_cast<std::size_t>(decomp.box_of(0).count()) * sizeof(double);
  Config config = make_config(2, 2);
  FrameworkOptions fw;
  fw.memory.budget_bytes = 2 * snapshot;
  fw.memory.low_watermark = 0.25;
  fw.memory.high_watermark = 0.5;
  fw.memory.spill_directory = spill_dir("throttle");
  fw.memory.importer_throttle_seconds = 1e-4;
  CoupledSystem system(config, runtime::ClusterOptions{}, fw);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 60; ++k) {
      ctx.compute(1e-6);
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });
  std::vector<std::uint64_t> throttles(2, 0);
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> out(decomp, rt.rank());
    ctx.compute(5e-3);  // exporter races ahead and crosses the watermark
    for (double x : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0}) {
      EXPECT_TRUE(rt.import_region("r", x, out).ok());
      ctx.compute(1e-3);
    }
    const auto stats = rt.stats_snapshot().imports.at(0);
    throttles[static_cast<std::size_t>(rt.rank())] = stats.pressure_throttles;
    rt.finalize();
  });
  system.run();
  // Pressure flowed proc -> rep -> peer rep -> importer procs, and the
  // importers gave the exporter breathing room.
  const RepResult& exporter_rep = system.rep_result("E");
  const RepResult& importer_rep = system.rep_result("I");
  EXPECT_GT(exporter_rep.pressure_notices, 0u);
  EXPECT_GT(importer_rep.pressure_broadcasts, 0u);
  EXPECT_GT(system.proc_stats("E", 0).pressure_signals, 0u);
  EXPECT_GT(throttles[0] + throttles[1], 0u);
  for (int r = 0; r < 2; ++r) {
    const auto& istats = system.proc_stats("I", r).imports.at(0);
    EXPECT_EQ(istats.pressure_throttles, throttles[static_cast<std::size_t>(r)]);
  }
  fs::remove_all(fw.memory.spill_directory);
}

TEST(MemoryGovernance, DefaultOptionsKeepGovernanceCountersAtZero) {
  // With default MemoryOptions nothing may change: no governor, no spill,
  // no pressure traffic, byte-for-byte the ungoverned baseline.
  const RunOutput out = run_slow_importer(FrameworkOptions{});
  for (const ProcStats& stats : out.exporter_stats) {
    EXPECT_EQ(stats.governor.charged_bytes, 0u);
    EXPECT_EQ(stats.governor.peak_charged_bytes, 0u);
    EXPECT_EQ(stats.pressure_signals, 0u);
    EXPECT_EQ(stats.pressure_notices, 0u);
    for (const auto& e : stats.exports) {
      EXPECT_EQ(e.buffer.evictions, 0u);
      EXPECT_EQ(e.buffer.restores, 0u);
      EXPECT_EQ(e.buffer.spill_bytes, 0u);
      EXPECT_EQ(e.buffer.spill_frees, 0u);
    }
  }
}

}  // namespace
}  // namespace ccf::core
