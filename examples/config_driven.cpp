// Config-file-driven coupling (paper §3.1, Figure 2).
//
// The deployment — which programs exist, how many processes each has, and
// which exported regions feed which imported regions under what match
// policy — lives entirely in a configuration file that is separate from
// the program code. Swapping a consumer for another one is a config edit;
// no program is recompiled.
//
// Usage: ./build/examples/config_driven [path/to/config]
// With no argument, a sample config is written to /tmp and used.
#include <cstdio>
#include <fstream>

#include "core/system.hpp"

using namespace ccf;
using core::CouplingRuntime;
using dist::BlockDecomposition;
using dist::DistArray2D;

namespace {

const char* kSampleConfig = R"(# sample coupling configuration (paper Figure 2 format)
# <program> <host> <executable> <nprocs> [args...]
ocean  cluster0 /opt/sim/bin/ocean 4
atmos  cluster1 /opt/sim/bin/atmos 3
#
# <exporter.region> <importer.region> <policy> <tolerance>
ocean.sst atmos.sst REGL 0.25
)";

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = "/tmp/ccf_sample_coupling.cfg";
    std::ofstream out(path);
    out << kSampleConfig;
  }

  core::Config config = core::Config::parse_file(path);
  std::printf("== parsed coupling configuration (%s) ==\n%s\n", path.c_str(),
              config.summary().c_str());

  // Bodies are looked up by the program names found in the config. This
  // example provides a generic "producer" for every program that only
  // exports and a generic "consumer" for every program that only imports.
  core::CoupledSystem system(config, runtime::ClusterOptions{}, core::FrameworkOptions{});

  for (const auto& prog : config.programs()) {
    const bool is_exporter = !config.connections_of_exporter_program(prog.name).empty();
    const auto layout = BlockDecomposition::make_grid(48, 48, prog.nprocs);

    if (is_exporter) {
      // Region names come from the config, so the same body serves any
      // exporting program.
      std::vector<std::string> regions;
      for (int conn : config.connections_of_exporter_program(prog.name)) {
        const auto& region = config.connections()[static_cast<std::size_t>(conn)].exporter_region;
        if (std::find(regions.begin(), regions.end(), region) == regions.end()) {
          regions.push_back(region);
        }
      }
      system.set_program_body(prog.name, [&, layout, regions](CouplingRuntime& rt,
                                                              runtime::ProcessContext& ctx) {
        for (const auto& region : regions) rt.define_export_region(region, layout);
        rt.commit();
        DistArray2D<double> field(layout, rt.rank());
        for (int k = 1; k <= 40; ++k) {
          ctx.compute(1e-4);
          field.fill([&](dist::Index r, dist::Index c) {
            return k + 0.0001 * static_cast<double>(r + c);
          });
          for (const auto& region : regions) rt.export_region(region, k * 0.25, field);
        }
        rt.finalize();
      });
    } else {
      std::vector<std::string> regions;
      for (int conn : config.connections_of_importer_program(prog.name)) {
        regions.push_back(config.connections()[static_cast<std::size_t>(conn)].importer_region);
      }
      system.set_program_body(prog.name, [&, prog, layout, regions](CouplingRuntime& rt,
                                                                    runtime::ProcessContext& ctx) {
        for (const auto& region : regions) rt.define_import_region(region, layout);
        rt.commit();
        DistArray2D<double> field(layout, rt.rank());
        for (int k = 1; k <= 10; ++k) {
          for (const auto& region : regions) {
            const auto status = rt.import_region(region, k * 1.0, field);
            if (rt.rank() == 0) {
              std::printf("%s: import %s @ t=%.1f -> %s", prog.name.c_str(), region.c_str(),
                          k * 1.0, status.ok() ? "matched " : "NO MATCH");
              if (status.ok()) std::printf("%.2f", status.matched);
              std::printf("\n");
            }
          }
          ctx.compute(5e-4);
        }
        rt.finalize();
      });
    }
  }

  system.run();
  std::printf("\nrun complete in %.4f %s seconds\n", system.end_time(), system.clock());

  // Demonstrate the early error detection the separate configuration
  // enables: an importer whose region no one exports is rejected during
  // validation, before any simulation runs.
  std::printf("\n== early misconfiguration detection demo ==\n");
  try {
    core::Config bad;
    bad.add_program(core::ProgramSpec{"a", "h", "/a", 1, {}});
    bad.add_program(core::ProgramSpec{"b", "h", "/b", 1, {}});
    bad.add_connection(core::ConnectionSpec{"a", "x", "b", "y", core::MatchPolicy::REGL, 1.0});
    bad.add_connection(core::ConnectionSpec{"a", "z", "b", "y", core::MatchPolicy::REGL, 1.0});
    bad.validate();
    std::printf("unexpected: bad config accepted\n");
  } catch (const util::InvalidArgument& e) {
    std::printf("rejected as expected: %s\n", e.what());
  }
  return 0;
}
