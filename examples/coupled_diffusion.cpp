// The paper's motivating application, end to end: a parallel solver for
//     u_tt = u_xx + u_yy + f(t, x, y)
// (program U) coupled to an external forcing-function component (program
// F) that runs on a finer time scale. U imports f once per coarse step;
// F exports every fine step; REGL approximate matching picks the freshest
// forcing version not newer than the solver's time.
//
// This exercises the full stack with real physics: ghost-halo exchange
// inside U, buffering/matching/buddy-help between the programs, and MxN
// redistribution between different process layouts.
//
// Usage: ./build/examples/coupled_diffusion [--grid=64] [--coarse-steps=20]
//        [--refine=10] [--solver-procs=4] [--forcing-procs=2] [--threads]
#include <cstdio>

#include "collectives/communicator.hpp"
#include "collectives/reduce_ops.hpp"
#include "core/system.hpp"
#include "sim/forcing.hpp"
#include "sim/wave2d.hpp"
#include "util/cli.hpp"

using namespace ccf;
using core::CouplingRuntime;
using dist::BlockDecomposition;
using dist::DistArray2D;

int main(int argc, char** argv) {
  util::CliParser cli("coupled_diffusion",
                      "Coupled 2-D wave/diffusion solver with an external forcing component");
  cli.add_option("grid", "64", "global grid size (grid x grid)");
  cli.add_option("coarse-steps", "20", "solver steps (one import per step)");
  cli.add_option("refine", "10", "forcing steps per solver step (time-scale ratio)");
  cli.add_option("solver-procs", "4", "processes in the solver program U");
  cli.add_option("forcing-procs", "2", "processes in the forcing program F");
  cli.add_flag("threads", "run on real threads instead of virtual time");
  if (!cli.parse(argc, argv)) return 0;

  const auto grid = static_cast<dist::Index>(cli.get_int("grid"));
  const int coarse_steps = static_cast<int>(cli.get_int("coarse-steps"));
  const int refine = static_cast<int>(cli.get_int("refine"));
  const int solver_procs = static_cast<int>(cli.get_int("solver-procs"));
  const int forcing_procs = static_cast<int>(cli.get_int("forcing-procs"));
  const double solver_dt = 0.1;
  const double forcing_dt = solver_dt / refine;

  core::Config config;
  config.add_program(core::ProgramSpec{"F", "localhost", "./forcing", forcing_procs, {}});
  config.add_program(core::ProgramSpec{"U", "localhost", "./solver", solver_procs, {}});
  // Tolerance of one solver step: accept the freshest forcing version in
  // (t - dt, t].
  config.add_connection(
      core::ConnectionSpec{"F", "f", "U", "f", core::MatchPolicy::REGL, solver_dt});

  runtime::ClusterOptions cluster_options;
  cluster_options.mode = cli.get_bool("threads") ? runtime::ExecutionMode::RealThreads
                                                 : runtime::ExecutionMode::VirtualTime;
  core::CoupledSystem system(config, cluster_options, core::FrameworkOptions{});

  const auto f_layout = BlockDecomposition::make_grid(grid, grid, forcing_procs);
  const auto u_layout = BlockDecomposition::make_grid(grid, grid, solver_procs);
  const int total_fine_steps = coarse_steps * refine;

  system.set_program_body("F", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("f", f_layout);
    rt.commit();
    sim::ForcingField forcing(f_layout, rt.rank());
    for (int k = 1; k <= total_fine_steps; ++k) {
      const double t = k * forcing_dt;
      forcing.fill(t);       // full analytic evaluation each fine step
      ctx.compute(1e-5);     // plus modeled computation time
      rt.export_region("f", t, forcing.field());
    }
    rt.finalize();
  });

  system.set_program_body("U", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("f", u_layout);
    rt.commit();
    std::vector<transport::ProcId> peers =
        system.layout().program("U").proc_ids();
    sim::WaveSolver2D solver(u_layout, rt.rank(), peers, solver_dt);
    DistArray2D<double> forcing(u_layout, rt.rank());
    collectives::Communicator comm(ctx, peers);
    for (int step = 1; step <= coarse_steps; ++step) {
      const double t = step * solver_dt;
      const auto status = rt.import_region("f", t, forcing);
      CCF_CHECK(status.ok(), "forcing import failed at t=" << t);
      solver.step(ctx, forcing);
      const double energy = comm.all_reduce_one(solver.local_energy(), collectives::Sum{});
      if (rt.rank() == 0) rt.publish("energy", energy);
    }
    rt.finalize();
  });

  system.run();
  const std::vector<double>& energy_series = system.proc_stats("U", 0).series("energy");

  std::printf("== coupled diffusion/wave run ==\n");
  std::printf("grid %lldx%lld, U: %d procs (dt=%.2f), F: %d procs (dt=%.3f, %dx finer)\n",
              static_cast<long long>(grid), static_cast<long long>(grid), solver_procs,
              solver_dt, forcing_procs, forcing_dt, refine);
  std::printf("solver energy trajectory (sum u^2):\n");
  for (std::size_t i = 0; i < energy_series.size(); ++i) {
    std::printf("  step %2zu  t=%4.1f  energy %.6e\n", i + 1, static_cast<double>(i + 1) * solver_dt,
                energy_series[i]);
  }

  const auto& f_stats = system.proc_stats("F", 0).exports.at(0);
  const auto& u_stats = system.proc_stats("U", 0).imports.at(0);
  std::printf("\nF rank 0: %llu exports, %llu buffered, %llu skipped, %llu transferred\n",
              static_cast<unsigned long long>(f_stats.exports),
              static_cast<unsigned long long>(f_stats.buffer.stores),
              static_cast<unsigned long long>(f_stats.buffer.skips),
              static_cast<unsigned long long>(f_stats.transfers));
  std::printf("U rank 0: %llu imports, %llu matched, %llu no-match\n",
              static_cast<unsigned long long>(u_stats.imports),
              static_cast<unsigned long long>(u_stats.matches),
              static_cast<unsigned long long>(u_stats.no_matches));
  std::printf("matched forcing timestamps:");
  for (double t : u_stats.matched_timestamps) std::printf(" %.2f", t);
  std::printf("\nend time: %.4f %s seconds\n", system.end_time(), system.clock());
  return 0;
}
