// Multi-resolution coupling: one data-producing component feeds two
// consumers that run on different time scales and use different match
// policies — the scenario the paper's buffering analysis targets ("much
// unnecessary buffering can occur ... in coupling physical simulation
// components that act on different time scales", §4.1).
//
//   producer (4 procs) --- REGL tol 1.5 --> fast consumer (every 2 units)
//                      \-- REG  tol 2.0 --> slow consumer (every 10 units)
//
// Producer rank 3 carries 10x the compute load, making it the slowest
// process of the slower program — exactly the process buddy-help targets.
//
// Run with --no-buddy-help to see the baseline buffering behaviour.
#include <cstdio>

#include "core/system.hpp"
#include "util/cli.hpp"

using namespace ccf;
using core::CouplingRuntime;
using dist::BlockDecomposition;
using dist::DistArray2D;

int main(int argc, char** argv) {
  util::CliParser cli("multiscale_coupling",
                      "One producer feeding two consumers at different time scales");
  cli.add_option("exports", "200", "number of producer exports");
  cli.add_flag("no-buddy-help", "disable the buddy-help optimization");
  if (!cli.parse(argc, argv)) return 0;

  const int exports = static_cast<int>(cli.get_int("exports"));

  core::Config config;
  config.add_program(core::ProgramSpec{"producer", "localhost", "./p", 4, {}});
  config.add_program(core::ProgramSpec{"fast", "localhost", "./fast", 2, {}});
  config.add_program(core::ProgramSpec{"slow", "localhost", "./slow", 2, {}});
  config.add_connection(
      core::ConnectionSpec{"producer", "field", "fast", "in", core::MatchPolicy::REGL, 1.5});
  config.add_connection(
      core::ConnectionSpec{"producer", "field", "slow", "in", core::MatchPolicy::REG, 2.0});

  core::FrameworkOptions fw;
  fw.buddy_help = !cli.get_bool("no-buddy-help");
  core::CoupledSystem system(config, runtime::ClusterOptions{}, fw);

  const auto p_layout = BlockDecomposition::make_grid(32, 32, 4);
  const auto c_layout = BlockDecomposition::make_grid(32, 32, 2);

  system.set_program_body("producer", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("field", p_layout);
    rt.commit();
    DistArray2D<double> field(p_layout, rt.rank());
    // Rank 3 carries extra load — the slowest process, where buddy-help
    // matters (paper §4.1).
    const double work = rt.rank() == 3 ? 1e-3 : 1e-4;
    for (int k = 1; k <= exports; ++k) {
      const double t = k;
      ctx.compute(work);
      field.fill([&](dist::Index, dist::Index) { return t; });
      rt.export_region("field", t, field);
    }
    rt.finalize();
  });

  auto consumer = [&](double stride, double per_step_work) {
    return [&, stride, per_step_work](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
      rt.define_import_region("in", c_layout);
      rt.commit();
      DistArray2D<double> in(c_layout, rt.rank());
      ctx.compute(per_step_work);
      for (double x = stride; x <= exports; x += stride) {
        (void)rt.import_region("in", x, in);
        ctx.compute(per_step_work);
      }
      rt.finalize();
    };
  };
  system.set_program_body("fast", consumer(2.0, 4e-4));
  system.set_program_body("slow", consumer(10.0, 5e-3));

  system.run();

  std::printf("== multi-resolution coupling (buddy-help %s) ==\n",
              fw.buddy_help ? "ON" : "OFF");
  std::printf("producer: %d exports; fast consumer: every 2 units (REGL tol 1.5); "
              "slow consumer: every 10 units (REG tol 2.0)\n\n",
              exports);
  std::printf("%-10s %-9s %-9s %-9s %-10s %-11s %-8s\n", "proc", "exports", "memcpys",
              "skips", "transfers", "helps", "T_ub ms");
  for (int r = 0; r < 4; ++r) {
    const auto& s = system.proc_stats("producer", r).exports.at(0);
    std::string name = "p";
    name += std::to_string(r);
    if (r == 3) name += " (slow)";
    std::printf("%-10s %-9llu %-9llu %-9llu %-10llu %-11llu %-8.3f\n", name.c_str(),
                static_cast<unsigned long long>(s.exports),
                static_cast<unsigned long long>(s.buffer.stores),
                static_cast<unsigned long long>(s.buffer.skips),
                static_cast<unsigned long long>(s.transfers),
                static_cast<unsigned long long>(s.buddy_helps_received), s.t_ub() * 1e3);
  }
  for (const char* prog : {"fast", "slow"}) {
    const auto& s = system.proc_stats(prog, 0).imports.at(0);
    std::printf("\n%s consumer: %llu imports, %llu matched, %llu no-match", prog,
                static_cast<unsigned long long>(s.imports),
                static_cast<unsigned long long>(s.matches),
                static_cast<unsigned long long>(s.no_matches));
  }
  std::printf("\nrep buddy-helps issued: %llu\n",
              static_cast<unsigned long long>(system.rep_result("producer").buddy_helps_sent));
  return 0;
}
