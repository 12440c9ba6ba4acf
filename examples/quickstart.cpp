// Quickstart: the smallest complete coupled-simulation pair.
//
// Two independently written programs — "producer" exporting a 2-D field
// and "consumer" importing it — are coupled purely through the framework
// configuration: neither program names the other. The producer exports 50
// versions; the consumer asks for every tenth timestamp under REGL
// approximate matching and receives the closest earlier version.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/system.hpp"

using namespace ccf;
using core::CouplingRuntime;
using dist::BlockDecomposition;
using dist::DistArray2D;

int main() {
  // 1. The framework-level configuration (normally a file, Figure 2 in the
  //    paper): programs with process counts, then connections between
  //    exported and imported regions with a match policy and tolerance.
  core::Config config;
  config.add_program(core::ProgramSpec{"producer", "localhost", "./producer", 2, {}});
  config.add_program(core::ProgramSpec{"consumer", "localhost", "./consumer", 3, {}});
  config.add_connection(
      core::ConnectionSpec{"producer", "field", "consumer", "field", core::MatchPolicy::REGL,
                           /*tolerance=*/1.0});

  // 2. Assemble the coupled system; virtual-time mode makes the run
  //    deterministic (use RealThreads for wall-clock execution).
  core::CoupledSystem system(config, runtime::ClusterOptions{}, core::FrameworkOptions{});

  // 3. The producer: an SPMD program on 2 processes. It defines its region
  //    once and exports whenever it has a new version — it neither knows
  //    nor cares who (if anyone) consumes the data.
  const BlockDecomposition producer_layout = BlockDecomposition::make_grid(32, 32, 2);
  system.set_program_body("producer", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("field", producer_layout);
    rt.commit();
    DistArray2D<double> field(producer_layout, rt.rank());
    for (int step = 1; step <= 50; ++step) {
      const double t = 0.1 * step;
      ctx.compute(1e-4);  // the simulation work for this step
      field.fill([&](dist::Index r, dist::Index c) {
        return t + 0.001 * static_cast<double>(r * 32 + c);
      });
      rt.export_region("field", t, field);
    }
    rt.finalize();
  });

  // 4. The consumer: 3 processes with a *different* block layout — the
  //    framework redistributes the data between the two decompositions.
  const BlockDecomposition consumer_layout = BlockDecomposition::make_grid(32, 32, 3);
  system.set_program_body("consumer", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("field", consumer_layout);
    rt.commit();
    DistArray2D<double> field(consumer_layout, rt.rank());
    for (int step = 1; step <= 5; ++step) {
      const double want = step;  // ask for t = 1, 2, ... (exports end at 5.0)
      const auto status = rt.import_region("field", want, field);
      ctx.compute(5e-4);
      if (rt.rank() == 0) {
        if (status.ok()) {
          std::printf("consumer: wanted t=%.1f, matched version t=%.2f, field[0,0]=%.4f\n",
                      want, status.matched, field.at(0, 0));
        } else {
          std::printf("consumer: wanted t=%.1f -> NO MATCH\n", want);
        }
      }
    }
    rt.finalize();
  });

  // 5. Run everything (programs + their representative processes).
  system.run();

  const auto& stats = system.proc_stats("producer", 0).exports.at(0);
  std::printf(
      "\nproducer rank 0: %llu exports, %llu buffered (memcpy), %llu skipped, "
      "%llu transferred\n",
      static_cast<unsigned long long>(stats.exports),
      static_cast<unsigned long long>(stats.buffer.stores),
      static_cast<unsigned long long>(stats.buffer.skips),
      static_cast<unsigned long long>(stats.transfers));
  std::printf("done in %.4f %s seconds\n", system.end_time(), system.clock());
  return 0;
}
