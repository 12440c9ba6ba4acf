// Shared-boundary coupling: two independently developed heat-solver
// domains sitting side by side exchange only their adjacent edge strips —
// the paper's "interfaces between components, which are the shared
// boundaries ... between physical models" (§1) — using windowed
// connections (a sub-box of the exporter's domain per connection).
//
//   left domain (2 procs)              right domain (3 procs)
//   [0,32)x[0,32)                      [0,32)x[0,32)
//        east strip [0,32)x[28,32)  ->  right's "west_in" 32x4 region
//        left's "east_in" 32x4     <-   west strip [0,32)x[0,4)
//
// Each solver folds the imported strip into its forcing near the shared
// edge, so heat generated on one side visibly leaks into the other.
//
// Usage: ./build/examples/boundary_coupling [--steps=16]
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
using dist::Box;
using dist::DistArray2D;
using dist::Index;

namespace {

constexpr Index kN = 32;        // each domain is kN x kN
constexpr Index kStrip = 4;     // exchanged strip width
constexpr double kDt = 0.2;

/// One domain's body: solve, export the strip facing the peer, import the
/// peer's strip, and use it as extra forcing along the shared edge.
void run_domain(CouplingRuntime& rt, runtime::ProcessContext& ctx,
                const BlockDecomposition& layout, const BlockDecomposition& strip_layout,
                bool is_left, int steps, double source_heat) {
  rt.define_export_region("state", layout);
  rt.define_import_region(is_left ? "east_in" : "west_in", strip_layout);
  rt.commit();

  const std::string import_region = is_left ? "east_in" : "west_in";
  // Program processes have contiguous global ids (rank 0 first).
  std::vector<transport::ProcId> my_procs;
  for (int r = 0; r < layout.nprocs(); ++r) {
    my_procs.push_back(ctx.id() - rt.rank() + r);
  }
  sim::HeatSolver2D solver(layout, rt.rank(), my_procs, /*alpha=*/0.25, kDt);
  DistArray2D<double> state(layout, rt.rank());
  DistArray2D<double> forcing(layout, rt.rank());
  DistArray2D<double> peer_strip(strip_layout, rt.rank());
  collectives::Communicator comm(ctx, my_procs);

  for (int k = 1; k <= steps; ++k) {
    const double t = k * kDt;
    // Internal heat source: the left domain has one, the right does not.
    forcing.fill([&](Index r, Index c) {
      // Source band sits right against the shared (east) edge so its heat
      // reaches the exchanged strip within a few steps.
      const bool near_edge =
          r > kN / 4 && r < 3 * kN / 4 && c >= kN - kStrip - 4 && c < kN - kStrip;
      return is_left && near_edge ? source_heat : 0.0;
    });
    // Fold the peer's boundary strip (from the previous step) into the
    // forcing along the shared edge.
    if (k > 1) {
      const Box sb = peer_strip.local_box();
      const Box mine = forcing.local_box();
      for (Index r = sb.row_begin; r < sb.row_end; ++r) {
        for (Index c = sb.col_begin; c < sb.col_end; ++c) {
          // Strip column c maps to this domain's edge columns.
          const Index col = is_left ? kN - kStrip + c : c;
          if (mine.contains(r, col)) {
            forcing.at(r, col) += peer_strip.at(r, c);
          }
        }
      }
    }
    solver.step(ctx, forcing);
    ctx.compute(1e-4);

    // Export the full state; the connection's window clips it to the
    // strip facing the peer.
    state.fill([&](Index r, Index c) { return solver.u().at(r, c); });
    rt.export_region("state", t, state);
    if (k < steps) {
      // Import the peer's strip for the next step (REGL tol one step).
      const auto st = rt.import_region(import_region, t, peer_strip);
      CCF_CHECK(st.ok(), "strip import failed at t=" << t);
    }

    // Diagnostic: heat in this domain's shared-edge strip.
    double edge = 0;
    const Box mine = solver.u().local_box();
    for (Index r = mine.row_begin; r < mine.row_end; ++r) {
      for (Index c = mine.col_begin; c < mine.col_end; ++c) {
        const bool in_edge = is_left ? c >= kN - kStrip : c < kStrip;
        if (in_edge) edge += solver.u().at(r, c);
      }
    }
    edge = comm.all_reduce_one(edge, collectives::Sum{});
    if (rt.rank() == 0) rt.publish("edge_heat", edge);
  }
  rt.finalize();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("boundary_coupling",
                      "Two heat-solver domains exchanging shared-boundary strips");
  cli.add_option("steps", "16", "solver steps per domain");
  if (!cli.parse(argc, argv)) return 0;
  const int steps = static_cast<int>(cli.get_int("steps"));

  core::Config config;
  config.add_program(core::ProgramSpec{"left", "h", "/left", 2, {}});
  config.add_program(core::ProgramSpec{"right", "h", "/right", 3, {}});
  // left's east edge strip -> right's west input.
  core::ConnectionSpec east{"left", "state", "right", "west_in", core::MatchPolicy::REGL, kDt};
  east.exporter_window = Box{0, kN, kN - kStrip, kN};
  config.add_connection(east);
  // right's west edge strip -> left's east input.
  core::ConnectionSpec west{"right", "state", "left", "east_in", core::MatchPolicy::REGL, kDt};
  west.exporter_window = Box{0, kN, 0, kStrip};
  config.add_connection(west);

  core::CoupledSystem system(config, runtime::ClusterOptions{}, core::FrameworkOptions{});
  const auto left_layout = BlockDecomposition::make_row_blocks(kN, kN, 2);
  const auto right_layout = BlockDecomposition::make_row_blocks(kN, kN, 3);
  const auto left_strip = BlockDecomposition::make_row_blocks(kN, kStrip, 2);
  const auto right_strip = BlockDecomposition::make_row_blocks(kN, kStrip, 3);

  system.set_program_body("left", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    run_domain(rt, ctx, left_layout, left_strip, /*is_left=*/true, steps, /*source=*/5.0);
  });
  system.set_program_body("right", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    run_domain(rt, ctx, right_layout, right_strip, /*is_left=*/false, steps, 0.0);
  });
  system.run();
  const std::vector<double>& left_edge = system.proc_stats("left", 0).series("edge_heat");
  const std::vector<double>& right_edge = system.proc_stats("right", 0).series("edge_heat");

  std::printf("== shared-boundary coupling (two %lldx%lld heat domains, %lld-wide strips) ==\n",
              static_cast<long long>(kN), static_cast<long long>(kN),
              static_cast<long long>(kStrip));
  std::printf("heat at the shared edge per step (left has the only source):\n");
  std::printf("  step   left-edge    right-edge\n");
  for (std::size_t i = 0; i < left_edge.size(); ++i) {
    std::printf("  %4zu   %11.6f  %11.6f\n", i + 1, left_edge[i],
                i < right_edge.size() ? right_edge[i] : 0.0);
  }
  std::printf("\n(right-edge heat grows from zero: it leaks across the coupled boundary)\n\n");
  core::print_run_report(system, std::cout);
  return 0;
}
