// Finite buffer space tests (paper §6 future work): backpressure stalls,
// cap enforcement, connection-close releases, and the safe-to-stall
// exception that keeps the system deadlock-free.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;

Config make_config(int exp_procs, int imp_procs, double tolerance = 0.5) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", exp_procs, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", imp_procs, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, tolerance});
  return config;
}

TEST(FiniteBuffer, CapBoundsPeakOccupancyViaStalls) {
  // Importer much slower: unbounded mode buffers everything; with a cap
  // the exporter stalls until requests free space.
  const dist::Index side = 16;
  const auto decomp = BlockDecomposition::make_grid(side, side, 2);
  const std::size_t snapshot =
      static_cast<std::size_t>(decomp.box_of(0).count()) * sizeof(double);

  auto run = [&](std::size_t cap) {
    Config config = make_config(2, 2);
    FrameworkOptions fw;
    fw.memory.budget_bytes = cap;  // no spill directory: a hard cap
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
    system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
      rt.define_import_region("r", decomp);
      rt.commit();
      DistArray2D<double> out(decomp, rt.rank());
      ctx.compute(5e-3);  // slow start: exporter races ahead
      for (double x : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0}) {
        const auto st = rt.import_region("r", x, out);
        EXPECT_TRUE(st.ok());
        EXPECT_DOUBLE_EQ(out.data()[0], st.matched);
        ctx.compute(5e-3);
      }
      rt.finalize();
    });
    system.run();
    return system.proc_stats("E", 0).exports.at(0);
  };

  const auto unbounded = run(0);
  EXPECT_EQ(unbounded.stalls, 0u);
  EXPECT_GT(unbounded.buffer.peak_bytes, 8 * snapshot);

  const auto capped = run(8 * snapshot);
  EXPECT_GT(capped.stalls, 0u);
  EXPECT_GT(capped.stall_seconds, 0.0);
  EXPECT_LE(capped.buffer.peak_bytes, 8 * snapshot);
  // Correctness unchanged: same number of matched transfers.
  EXPECT_EQ(capped.transfers, unbounded.transfers);
}

TEST(FiniteBuffer, SoftCapWhenStallWouldBlockProgress) {
  // The importer requests a *future* timestamp and then blocks on the
  // exporter's data; the exporter must keep producing (outstanding
  // request!) even though the budget is full — the budget is exceeded
  // softly instead of deadlocking.
  const auto decomp = BlockDecomposition::make_grid(8, 8, 1);
  const std::size_t snapshot =
      static_cast<std::size_t>(decomp.box_of(0).count()) * sizeof(double);
  // The wide tolerance keeps the snapshots inside [15, 25] buffered as
  // candidates while the request for 25 is PENDING, and a budget of one
  // snapshot is full as soon as one of them is: from then on every export
  // would stall but for ExportRegionState::safe_to_stall.
  Config config = make_config(1, 1, 10.0);
  FrameworkOptions fw;
  fw.memory.budget_bytes = snapshot;
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
    // Requested immediately (exporter has produced nothing yet): the
    // exporter answers PENDING and must keep exporting to resolve it.
    EXPECT_TRUE(rt.import_region("r", 25.0, out).ok());
    rt.finalize();
  });
  system.run();  // must terminate (no deadlock)
  const auto stats = system.proc_stats("E", 0).exports.at(0);
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_GT(stats.buffer.peak_bytes, snapshot);  // exceeded softly
}

TEST(FiniteBuffer, ImporterDepartureReleasesConnection) {
  // After the importing program finishes, a ConnClosed notification frees
  // every snapshot held for it and future exports skip buffering.
  const auto decomp = BlockDecomposition::make_grid(8, 8, 2);
  Config config = make_config(2, 2);
  CoupledSystem system(config, runtime::ClusterOptions{}, FrameworkOptions{});
  std::vector<std::size_t> late_live_bytes(2, SIZE_MAX);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 200; ++k) {
      ctx.compute(1e-5);
      rt.export_region("r", k, data);
    }
    const auto stats = rt.stats_snapshot().exports.at(0);
    late_live_bytes[static_cast<std::size_t>(rt.rank())] = stats.buffer.live_bytes;
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> out(decomp, rt.rank());
    EXPECT_TRUE(rt.import_region("r", 5.0, out).ok());
    rt.finalize();  // leaves while the exporter still has 100+ exports to go
  });
  system.run();
  // After the importer left, buffering stopped and old snapshots were
  // freed: the live pool at the exporter's end is empty.
  EXPECT_EQ(late_live_bytes[0], 0u);
  EXPECT_EQ(late_live_bytes[1], 0u);
  const auto stats = system.proc_stats("E", 0).exports.at(0);
  EXPECT_GT(stats.buffer.skips, 100u);  // post-departure exports skipped
}

}  // namespace
}  // namespace ccf::core
