// Process-mode equivalence: the same coupled workload, run once in the
// default simulated mode and once as genuinely forked OS processes over
// the real SHM/TCP transport, must produce byte-identical coupling
// answers and identical deterministic statistics. The bodies execute in
// children, so everything the launcher reports here arrived over the
// ResultChannel pipes (core/result_codec) — direct writes stay behind in
// copy-on-write memory, so app results come back as published series.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "collectives/communicator.hpp"
#include "collectives/reduce_ops.hpp"
#include "core/report.hpp"
#include "core/system.hpp"
#include "sim/forcing.hpp"
#include "sim/wave2d.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;

constexpr int kExporterRanks = 2;
constexpr int kImporterRanks = 2;
const std::vector<Timestamp> kExports = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
const std::vector<Timestamp> kRequests = {1.5, 4.0, 5.5, 8.5, 11.0};

struct Answer {
  bool matched = false;
  Timestamp version = 0;

  bool operator==(const Answer& o) const {
    return matched == o.matched && (!matched || version == o.version);
  }
};

/// Runs the workload and returns the importer's answer sequence. In
/// process mode the importer body additionally checks its answers (and
/// the delivered data values) against `expected` inside the child and
/// throws — the only failure signal that crosses the fork.
CoupledSystem run_workload(runtime::ClusterOptions cluster_options,
                           const std::vector<Answer>& expected = {}) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", kExporterRanks, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", kImporterRanks, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, 2.5, {}});
  CoupledSystem system(config, cluster_options, FrameworkOptions{});

  const dist::Index rows = 8, cols = 8;
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, kExporterRanks);
  const auto i_decomp = BlockDecomposition::make_grid(rows, cols, kImporterRanks);

  system.set_program_body("E", [e_decomp](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (Timestamp t : kExports) {
      ctx.compute(1e-4);
      data.fill([t](dist::Index, dist::Index) { return t; });
      rt.export_region("r", t, data);
    }
    rt.finalize();
  });

  system.set_program_body(
      "I", [i_decomp, expected](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
        rt.define_import_region("r", i_decomp);
        rt.commit();
        DistArray2D<double> data(i_decomp, rt.rank());
        for (std::size_t k = 0; k < kRequests.size(); ++k) {
          ctx.compute(1e-4);
          const auto status = rt.import_region("r", kRequests[k], data);
          const Answer got{status.ok(), status.ok() ? status.matched : 0};
          if (got.matched && data.data()[0] != status.matched)
            throw util::Error("imported data does not carry the matched version");
          // `expected` was captured before the fork, so the child still
          // sees the reference run's answers through its COW mapping.
          if (!expected.empty() && !(got == expected[k]))
            throw util::Error("process-mode answer diverged from the in-process run");
        }
        rt.finalize();
      });

  system.run();
  return system;
}

/// The deterministic answer sequence as the exporter's rep recorded it.
std::vector<Answer> rep_answers(const CoupledSystem& system) {
  std::vector<Answer> out;
  for (const AnswerMsg& a : system.rep_result("E").answers)
    out.push_back({a.result == MatchResult::Match,
                   a.result == MatchResult::Match ? a.matched : 0});
  return out;
}

TEST(ProcessMode, ForkedRunMatchesInProcessAnswersOverShm) {
  const CoupledSystem reference = run_workload(runtime::ClusterOptions{});
  EXPECT_EQ(reference.transport_kind("E"), "sim");
  const auto want = rep_answers(reference);
  ASSERT_FALSE(want.empty());

  runtime::ClusterOptions procs;
  procs.mode = runtime::ExecutionMode::RealProcesses;
  // Children validate their own answers against `want`; the launcher
  // cross-checks everything that came back over the result pipes.
  const CoupledSystem forked = run_workload(procs, want);
  EXPECT_EQ(forked.transport_kind("E"), "shm") << "one host => pure SHM";
  EXPECT_EQ(rep_answers(forked), want);

  for (int r = 0; r < kImporterRanks; ++r) {
    const ProcStats& got = forked.proc_stats("I", r);
    const ProcStats& ref = reference.proc_stats("I", r);
    ASSERT_EQ(got.imports.size(), 1u);
    EXPECT_EQ(got.imports[0].imports, ref.imports[0].imports);
    EXPECT_EQ(got.imports[0].matches, ref.imports[0].matches);
    EXPECT_EQ(got.imports[0].no_matches, ref.imports[0].no_matches);
    EXPECT_EQ(got.imports[0].matched_timestamps, ref.imports[0].matched_timestamps);
  }
  for (int r = 0; r < kExporterRanks; ++r) {
    const ProcStats& got = forked.proc_stats("E", r);
    const ProcStats& ref = reference.proc_stats("E", r);
    ASSERT_EQ(got.exports.size(), 1u);
    EXPECT_EQ(got.exports[0].exports, ref.exports[0].exports);
    EXPECT_EQ(got.exports[0].export_timestamps, ref.exports[0].export_timestamps);
    EXPECT_GT(got.exports[0].exports, 0u)
        << "zeros would mean the result pipe shipped nothing";
  }
  const RepResult& rep = forked.rep_result("E");
  EXPECT_EQ(rep.requests_forwarded, reference.rep_result("E").requests_forwarded);
  EXPECT_EQ(rep.answers_sent, reference.rep_result("E").answers_sent);

  EXPECT_EQ(forked.transport_counters().decode_errors, 0u);
  EXPECT_GT(forked.transport_counters().shm_frames, 0u);
  EXPECT_EQ(forked.transport_counters().tcp_frames, 0u);
}

TEST(ProcessMode, SplitNodesRouteTheCouplingOverTcp) {
  const CoupledSystem reference = run_workload(runtime::ClusterOptions{});
  const auto want = rep_answers(reference);
  ASSERT_FALSE(want.empty());

  ::setenv("CCF_NODES", "split", 1);
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("CCF_NODES"); }
  } guard;

  runtime::ClusterOptions procs;
  procs.mode = runtime::ExecutionMode::RealProcesses;
  const CoupledSystem forked = run_workload(procs, want);
  EXPECT_EQ(forked.transport_kind("E"), "tcp") << "split nodes => coupling rides TCP";
  EXPECT_EQ(rep_answers(forked), want);
  EXPECT_GT(forked.transport_counters().tcp_frames, 0u);
  EXPECT_EQ(forked.transport_counters().decode_errors, 0u);
}

TEST(ProcessMode, ReportCsvRecordsTheDeployedTransport) {
  runtime::ClusterOptions procs;
  procs.mode = runtime::ExecutionMode::RealProcesses;
  const CoupledSystem forked = run_workload(procs);
  const std::string path = ::testing::TempDir() + "ccf_process_mode_report.csv";
  write_run_report_csv(forked, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  EXPECT_NE(line.find(",transport"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(line.substr(line.rfind(',') + 1), "shm") << line;
  }
  EXPECT_GT(rows, 0);
  std::remove(path.c_str());
}

/// coupled_diffusion's workload (examples/coupled_diffusion.cpp, smaller):
/// forcing program F exports every fine step, wave solver U imports once
/// per coarse step and publishes its global energy from rank 0.
std::vector<double> coupled_diffusion_trajectory(runtime::ExecutionMode mode) {
  const dist::Index grid = 24;
  const int coarse_steps = 6, refine = 4, solver_procs = 3, forcing_procs = 2;
  const double solver_dt = 0.1, forcing_dt = solver_dt / refine;
  Config config;
  config.add_program(ProgramSpec{"F", "h", "/f", forcing_procs, {}});
  config.add_program(ProgramSpec{"U", "h", "/u", solver_procs, {}});
  config.add_connection(ConnectionSpec{"F", "f", "U", "f", MatchPolicy::REGL, solver_dt, {}});
  runtime::ClusterOptions cluster_options;
  cluster_options.mode = mode;
  CoupledSystem system(config, cluster_options, FrameworkOptions{});
  const auto f_layout = BlockDecomposition::make_grid(grid, grid, forcing_procs);
  const auto u_layout = BlockDecomposition::make_grid(grid, grid, solver_procs);

  system.set_program_body("F", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("f", f_layout);
    rt.commit();
    sim::ForcingField forcing(f_layout, rt.rank());
    for (int k = 1; k <= coarse_steps * refine; ++k) {
      forcing.fill(k * forcing_dt);
      ctx.compute(1e-5);
      rt.export_region("f", k * forcing_dt, forcing.field());
    }
    rt.finalize();
  });
  system.set_program_body("U", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("f", u_layout);
    rt.commit();
    const auto peers = system.layout().program("U").proc_ids();
    sim::WaveSolver2D solver(u_layout, rt.rank(), peers, solver_dt);
    DistArray2D<double> forcing(u_layout, rt.rank());
    collectives::Communicator comm(ctx, peers);
    for (int step = 1; step <= coarse_steps; ++step) {
      CCF_CHECK(rt.import_region("f", step * solver_dt, forcing).ok(), "forcing import failed");
      solver.step(ctx, forcing);
      const double energy = comm.all_reduce_one(solver.local_energy(), collectives::Sum{});
      if (rt.rank() == 0) rt.publish("energy", energy);
    }
    rt.finalize();
  });
  system.run();
  return system.proc_stats("U", 0).series("energy");
}

TEST(ProcessMode, CoupledDiffusionTrajectoryIsBitwiseIdenticalInEveryMode) {
  const std::vector<double> sim = coupled_diffusion_trajectory(runtime::ExecutionMode::VirtualTime);
  ASSERT_EQ(sim.size(), 6u);
  EXPECT_GT(sim.back(), 0.0);
  for (const auto mode :
       {runtime::ExecutionMode::RealThreads, runtime::ExecutionMode::RealProcesses}) {
    const std::vector<double> got = coupled_diffusion_trajectory(mode);
    ASSERT_EQ(got.size(), sim.size()) << "mode " << static_cast<int>(mode);
    for (std::size_t i = 0; i < sim.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(sim[i]))
          << "mode " << static_cast<int>(mode) << " step " << i + 1;
    }
  }
}

}  // namespace
}  // namespace ccf::core
