// A three-component pipeline in the style of the Sun-to-Earth space
// weather simulations that motivate the paper's framework (§1, [7]):
//
//   solarwind (2 procs, finest cadence)
//       | REGL tol 0.05        driving plasma flux
//       v
//   magnetosphere (4 procs, heat solver, medium cadence, pipelined imports)
//       | REGL tol 0.5         field energy density
//       v
//   ionosphere (3 procs, wave solver, coarsest cadence)
//
// Each component runs its own time scale and numerical model; the
// framework's approximate matching absorbs the cadence mismatches and the
// middle component overlaps its solves with the next import via the
// non-blocking import API.
//
// Usage: ./build/examples/space_weather [--grid=48] [--steps=12] [--report-csv=path]
#include <cstdio>
#include <iostream>

#include "collectives/communicator.hpp"
#include "collectives/reduce_ops.hpp"
#include "core/report.hpp"
#include "core/system.hpp"
#include "sim/forcing.hpp"
#include "sim/heat2d.hpp"
#include "sim/wave2d.hpp"
#include "util/cli.hpp"

using namespace ccf;
using core::CouplingRuntime;
using dist::BlockDecomposition;
using dist::DistArray2D;
using dist::Index;

int main(int argc, char** argv) {
  util::CliParser cli("space_weather",
                      "Three-component multi-physics pipeline (solar wind -> "
                      "magnetosphere -> ionosphere)");
  cli.add_option("grid", "48", "global grid size");
  cli.add_option("steps", "12", "ionosphere (coarsest) steps");
  cli.add_option("report-csv", "", "optional CSV stats output path");
  if (!cli.parse(argc, argv)) return 0;

  const auto grid = static_cast<Index>(cli.get_int("grid"));
  const int coarse_steps = static_cast<int>(cli.get_int("steps"));
  const int mid_per_coarse = 5;   // magnetosphere steps per ionosphere step
  const int fine_per_mid = 4;     // solar-wind exports per magnetosphere step
  const double mid_dt = 0.1;
  const double fine_dt = mid_dt / fine_per_mid;
  const double coarse_dt = mid_dt * mid_per_coarse;

  core::Config config;
  config.add_program(core::ProgramSpec{"solarwind", "c0", "/bin/sw", 2, {}});
  config.add_program(core::ProgramSpec{"magnetosphere", "c1", "/bin/mag", 4, {}});
  config.add_program(core::ProgramSpec{"ionosphere", "c2", "/bin/iono", 3, {}});
  config.add_connection(core::ConnectionSpec{"solarwind", "flux", "magnetosphere", "flux",
                                             core::MatchPolicy::REGL, 2 * fine_dt});
  config.add_connection(core::ConnectionSpec{"magnetosphere", "energy", "ionosphere", "energy",
                                             core::MatchPolicy::REGL, mid_dt});

  core::CoupledSystem system(config, runtime::ClusterOptions{}, core::FrameworkOptions{});
  const auto sw_layout = BlockDecomposition::make_grid(grid, grid, 2);
  const auto mag_layout = BlockDecomposition::make_grid(grid, grid, 4);
  const auto iono_layout = BlockDecomposition::make_grid(grid, grid, 3);

  const int total_mid_steps = coarse_steps * mid_per_coarse;
  const int total_fine_steps = total_mid_steps * fine_per_mid;

  // --- solar wind: analytic driver, finest cadence --------------------------
  system.set_program_body("solarwind", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("flux", sw_layout);
    rt.commit();
    sim::ForcingField flux(sw_layout, rt.rank());
    for (int k = 1; k <= total_fine_steps; ++k) {
      const double t = k * fine_dt;
      flux.fill(t * 40.0);  // faster orbital motion for visible dynamics
      ctx.compute(2e-5);
      rt.export_region("flux", t, flux.field());
    }
    rt.finalize();
  });

  // --- magnetosphere: heat solver driven by the flux, pipelined imports -----
  system.set_program_body("magnetosphere", [&](CouplingRuntime& rt,
                                               runtime::ProcessContext& ctx) {
    rt.define_import_region("flux", mag_layout);
    rt.define_export_region("energy", mag_layout);
    rt.commit();
    const auto peers = system.layout().program("magnetosphere").proc_ids();
    sim::HeatSolver2D solver(mag_layout, rt.rank(), peers, /*alpha=*/0.2, mid_dt);
    DistArray2D<double> flux(mag_layout, rt.rank());
    DistArray2D<double> energy(mag_layout, rt.rank());
    // Pipeline: keep one import in flight ahead of the solve.
    auto ticket = rt.import_request("flux", mid_dt);
    for (int k = 1; k <= total_mid_steps; ++k) {
      const double t = k * mid_dt;
      CCF_CHECK(rt.import_wait(ticket, flux).ok(), "flux import failed at t=" << t);
      if (k < total_mid_steps) ticket = rt.import_request("flux", (k + 1) * mid_dt);
      solver.step(ctx, flux);
      ctx.compute(5e-5);
      energy.fill([&](Index r, Index c) {
        const double u = solver.u().at(r, c);
        return u * u;  // field energy density
      });
      rt.export_region("energy", t, energy);
    }
    rt.finalize();
  });

  // --- ionosphere: wave solver forced by the energy density, coarsest -------
  system.set_program_body("ionosphere", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("energy", iono_layout);
    rt.commit();
    const auto peers = system.layout().program("ionosphere").proc_ids();
    sim::WaveSolver2D solver(iono_layout, rt.rank(), peers, coarse_dt);
    DistArray2D<double> forcing(iono_layout, rt.rank());
    collectives::Communicator comm(ctx, peers);
    for (int k = 1; k <= coarse_steps; ++k) {
      const double t = k * coarse_dt;
      const auto st = rt.import_region("energy", t, forcing);
      CCF_CHECK(st.ok(), "energy import failed at t=" << t);
      solver.step(ctx, forcing);
      ctx.compute(2e-4);
      const double e = comm.all_reduce_one(solver.local_energy(), collectives::Sum{});
      if (rt.rank() == 0) rt.publish("energy", e);
    }
    rt.finalize();
  });

  system.run();
  const std::vector<double>& iono_energy = system.proc_stats("ionosphere", 0).series("energy");

  std::printf("== space-weather pipeline ==\n");
  std::printf("grid %lldx%lld; cadences: solarwind dt=%.3f, magnetosphere dt=%.2f, "
              "ionosphere dt=%.2f\n\n",
              static_cast<long long>(grid), static_cast<long long>(grid), fine_dt, mid_dt,
              coarse_dt);
  std::printf("ionosphere response energy per coarse step:\n ");
  for (double e : iono_energy) std::printf(" %.3e", e);
  std::printf("\n\n");
  core::print_run_report(system, std::cout);

  if (!cli.get("report-csv").empty()) {
    core::write_run_report_csv(system, cli.get("report-csv"));
    std::printf("stats CSV written to %s\n", cli.get("report-csv").c_str());
  }
  return 0;
}
