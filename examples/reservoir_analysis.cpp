// Reservoir simulation + detached analysis, in the style of the paper's
// second motivating application ("multi-scale multiresolution petroleum
// reservoir simulation", §1 [9], and CUMULVS-style visualization [5]):
//
//   reservoir (4 procs): pressure diffusion around injection/production
//       wells, exporting the pressure field every step;
//   analysis (2 procs): a monitoring component that samples the field at
//       sparse, irregular "interactive" times with a small tolerance —
//       some requests legitimately find NO MATCH and the monitor just
//       carries on (the loosely coupled contract: components never wait
//       on each other's schedules).
//
// Usage: ./build/examples/reservoir_analysis [--steps=120]
#include <cstdio>
#include <iostream>

#include "collectives/communicator.hpp"
#include "collectives/reduce_ops.hpp"
#include "core/report.hpp"
#include "core/system.hpp"
#include "sim/heat2d.hpp"
#include "util/cli.hpp"

using namespace ccf;
using core::CouplingRuntime;
using dist::BlockDecomposition;
using dist::DistArray2D;
using dist::Index;

int main(int argc, char** argv) {
  util::CliParser cli("reservoir_analysis",
                      "Reservoir pressure simulation with a detached sparse monitor");
  cli.add_option("steps", "120", "reservoir steps");
  if (!cli.parse(argc, argv)) return 0;
  const int steps = static_cast<int>(cli.get_int("steps"));

  constexpr Index kN = 40;
  constexpr double kDt = 0.5;

  core::Config config;
  config.add_program(core::ProgramSpec{"reservoir", "c0", "/bin/res", 4, {}});
  config.add_program(core::ProgramSpec{"analysis", "c1", "/bin/mon", 2, {}});
  // Tight tolerance: the monitor wants a field within 1.2 time units of
  // its sampling instant or nothing at all.
  config.add_connection(
      core::ConnectionSpec{"reservoir", "pressure", "analysis", "pressure",
                           core::MatchPolicy::REG, 1.2});

  core::CoupledSystem system(config, runtime::ClusterOptions{}, core::FrameworkOptions{});
  const auto res_layout = BlockDecomposition::make_grid(kN, kN, 4);
  const auto mon_layout = BlockDecomposition::make_grid(kN, kN, 2);

  system.set_program_body("reservoir", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("pressure", res_layout);
    rt.commit();
    std::vector<transport::ProcId> peers;
    for (int r = 0; r < 4; ++r) peers.push_back(ctx.id() - rt.rank() + r);
    sim::HeatSolver2D solver(res_layout, rt.rank(), peers, /*alpha=*/0.4, kDt);
    DistArray2D<double> wells(res_layout, rt.rank());
    // Injection well (positive source) and production well (sink).
    wells.fill([&](Index r, Index c) {
      if (r >= 8 && r < 12 && c >= 8 && c < 12) return 2.0;     // injector
      if (r >= 28 && r < 32 && c >= 28 && c < 32) return -1.5;  // producer
      return 0.0;
    });
    DistArray2D<double> field(res_layout, rt.rank());
    for (int k = 1; k <= steps; ++k) {
      solver.step(ctx, wells);
      ctx.compute(2e-5);
      field.fill([&](Index r, Index c) { return solver.u().at(r, c); });
      rt.export_region("pressure", k * kDt, field);
    }
    rt.finalize();
  });

  system.set_program_body("analysis", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("pressure", mon_layout);
    rt.commit();
    std::vector<transport::ProcId> peers;
    for (int r = 0; r < 2; ++r) peers.push_back(ctx.id() - rt.rank() + r);
    collectives::Communicator comm(ctx, peers);
    DistArray2D<double> field(mon_layout, rt.rank());
    // Irregular sampling instants, including some beyond the run's end
    // (NO MATCH) — an interactive user poking at the simulation.
    const double horizon = steps * kDt;
    for (double frac : {0.07, 0.18, 0.21, 0.44, 0.71, 0.97, 1.35, 1.62}) {
      const double want = frac * horizon;
      const auto st = rt.import_region("pressure", want, field);
      ctx.compute(1e-3);  // "rendering"
      double inj = 0, prod = 0;
      if (st.ok()) {
        const dist::Box box = field.local_box();
        for (Index r = box.row_begin; r < box.row_end; ++r) {
          for (Index c = box.col_begin; c < box.col_end; ++c) {
            if (r >= 8 && r < 12 && c >= 8 && c < 12) inj += field.at(r, c);
            if (r >= 28 && r < 32 && c >= 28 && c < 32) prod += field.at(r, c);
          }
        }
      }
      inj = comm.all_reduce_one(inj, collectives::Sum{});
      prod = comm.all_reduce_one(prod, collectives::Sum{});
      if (rt.rank() == 0) {
        rt.publish("wanted", want);
        rt.publish("matched", st.ok() ? 1.0 : 0.0);
        rt.publish("version", st.ok() ? st.matched : 0.0);
        rt.publish("injector_p", inj / 16);
        rt.publish("producer_p", prod / 16);
      }
    }
    rt.finalize();
  });

  system.run();
  const core::ProcStats& monitor = system.proc_stats("analysis", 0);
  const std::vector<double>& wanted = monitor.series("wanted");

  std::printf("== reservoir + detached analysis ==\n");
  std::printf("reservoir: %lldx%lld pressure field, %d steps of dt=%.1f; monitor samples\n"
              "at irregular instants with REG tolerance 1.2 (sparse coupling)\n\n",
              static_cast<long long>(kN), static_cast<long long>(kN), steps, kDt);
  std::printf("  wanted t   result      version   mean p(injector)  mean p(producer)\n");
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    if (monitor.series("matched")[i] != 0) {
      std::printf("  %8.2f   matched    %8.2f   %15.4f   %15.4f\n", wanted[i],
                  monitor.series("version")[i], monitor.series("injector_p")[i],
                  monitor.series("producer_p")[i]);
    } else {
      std::printf("  %8.2f   NO MATCH (simulation never produced a version this close)\n",
                  wanted[i]);
    }
  }
  std::printf("\n");
  core::print_run_report(system, std::cout);
  return 0;
}
