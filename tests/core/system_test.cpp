// CoupledSystem end-to-end tests: data correctness across layouts, both
// execution modes, multiple importers per region, program chains,
// NO-MATCH flows, early misconfiguration detection, unconnected regions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "core/system.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;
using runtime::ClusterOptions;
using runtime::ExecutionMode;
using runtime::ProcessContext;

Config two_program_config(int exp_procs, int imp_procs, MatchPolicy policy, double tol) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/bin/e", exp_procs, {}});
  config.add_program(ProgramSpec{"I", "h", "/bin/i", imp_procs, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", policy, tol});
  return config;
}

double cell_value(Timestamp t, dist::Index r, dist::Index c) {
  return t * 1e6 + static_cast<double>(r) * 1000 + static_cast<double>(c);
}

/// Exporter sends versions 1..n; importer requests a subset and verifies
/// the content of every cell of every matched version.
void run_content_check(ExecutionMode mode, int exp_procs, int imp_procs) {
  const dist::Index rows = 24, cols = 24;
  Config config = two_program_config(exp_procs, imp_procs, MatchPolicy::REGL, 0.5);
  ClusterOptions cluster_options;
  cluster_options.mode = mode;
  CoupledSystem system(config, cluster_options, FrameworkOptions{});

  const auto exp_decomp = BlockDecomposition::make_grid(rows, cols, exp_procs);
  const auto imp_decomp = BlockDecomposition::make_grid(rows, cols, imp_procs);

  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("r", exp_decomp);
    rt.commit();
    DistArray2D<double> data(exp_decomp, rt.rank());
    for (int k = 1; k <= 10; ++k) {
      const double t = k;
      data.fill([&](dist::Index r, dist::Index c) { return cell_value(t, r, c); });
      rt.export_region("r", t, data);
    }
    rt.finalize();
  });

  std::vector<int> errors(static_cast<std::size_t>(imp_procs), 0);
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("r", imp_decomp);
    rt.commit();
    DistArray2D<double> data(imp_decomp, rt.rank());
    for (double x : {3.0, 7.0, 10.0}) {
      const auto st = rt.import_region("r", x, data);
      if (!st.ok() || st.matched != x) {
        errors[static_cast<std::size_t>(rt.rank())] += 1000;
        continue;
      }
      const dist::Box box = data.local_box();
      for (dist::Index r = box.row_begin; r < box.row_end; ++r) {
        for (dist::Index c = box.col_begin; c < box.col_end; ++c) {
          if (data.at(r, c) != cell_value(x, r, c)) errors[static_cast<std::size_t>(rt.rank())]++;
        }
      }
    }
    rt.finalize();
  });

  system.run();
  for (int r = 0; r < imp_procs; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], 0) << "importer rank " << r;
  }
}

struct ModeLayoutParam {
  ExecutionMode mode;
  int exp_procs;
  int imp_procs;
};

class ContentCheck : public ::testing::TestWithParam<ModeLayoutParam> {};

TEST_P(ContentCheck, MatchedDataArrivesIntact) {
  run_content_check(GetParam().mode, GetParam().exp_procs, GetParam().imp_procs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContentCheck,
    ::testing::Values(ModeLayoutParam{ExecutionMode::VirtualTime, 1, 1},
                      ModeLayoutParam{ExecutionMode::VirtualTime, 4, 4},
                      ModeLayoutParam{ExecutionMode::VirtualTime, 4, 9},
                      ModeLayoutParam{ExecutionMode::VirtualTime, 6, 2},
                      ModeLayoutParam{ExecutionMode::VirtualTime, 2, 12},
                      ModeLayoutParam{ExecutionMode::RealThreads, 4, 6},
                      ModeLayoutParam{ExecutionMode::RealThreads, 2, 2}),
    [](const ::testing::TestParamInfo<ModeLayoutParam>& p) {
      return std::string(p.param.mode == ExecutionMode::RealThreads ? "Threads" : "Virtual") +
             "_E" + std::to_string(p.param.exp_procs) + "_I" +
             std::to_string(p.param.imp_procs);
    });

TEST(CoupledSystemTest, ReportsTheClockOfTheModeItRuns) {
  // CCF_MODE overrides the options' mode, and the label must follow what
  // actually runs: a virtual-time system redirected to threads keeps wall
  // time.
  const char* outer = std::getenv("CCF_MODE");
  const std::string saved = outer != nullptr ? outer : "";
  auto clock_of = [](ExecutionMode mode) {
    ClusterOptions options;
    options.mode = mode;
    return std::string(
        CoupledSystem(two_program_config(1, 1, MatchPolicy::REGL, 0), options, {}).clock());
  };
  ::unsetenv("CCF_MODE");
  const std::string virtual_time = clock_of(ExecutionMode::VirtualTime);
  const std::string threads = clock_of(ExecutionMode::RealThreads);
  ::setenv("CCF_MODE", "threads", 1);
  const std::string redirected = clock_of(ExecutionMode::VirtualTime);
  if (outer != nullptr) {
    ::setenv("CCF_MODE", saved.c_str(), 1);
  } else {
    ::unsetenv("CCF_MODE");
  }
  EXPECT_EQ(virtual_time, "virtual");
  EXPECT_EQ(threads, "wall");
  EXPECT_EQ(redirected, "wall");
}

TEST(CoupledSystemTest, NoMatchFlowsReturnCleanly) {
  Config config = two_program_config(2, 2, MatchPolicy::REGL, 0.1);
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  const auto decomp = BlockDecomposition::make_grid(8, 8, 2);

  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    rt.export_region("r", 1.0, data);  // only version: t=1
    rt.finalize();
  });
  std::vector<int> no_matches(2, 0);
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    // Requests far from the only export: NO MATCH under tol 0.1.
    for (double x : {5.0, 9.0}) {
      const auto st = rt.import_region("r", x, data);
      if (st.result == MatchResult::NoMatch) no_matches[static_cast<std::size_t>(rt.rank())]++;
    }
    rt.finalize();
  });
  system.run();
  EXPECT_EQ(no_matches[0], 2);
  EXPECT_EQ(no_matches[1], 2);
}

TEST(CoupledSystemTest, OneRegionTwoImportingPrograms) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", 2, {}});
  config.add_program(ProgramSpec{"I1", "h", "/i1", 3, {}});
  config.add_program(ProgramSpec{"I2", "h", "/i2", 2, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I1", "a", MatchPolicy::REGL, 0.5});
  config.add_connection(ConnectionSpec{"E", "r", "I2", "b", MatchPolicy::REG, 1.5});

  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  const dist::Index rows = 12, cols = 12;
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, 2);

  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (int k = 1; k <= 8; ++k) {
      data.fill([&](dist::Index, dist::Index) { return static_cast<double>(k); });
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });

  auto importer = [&](int nprocs, std::vector<double> requests,
                      std::vector<double>* matched) {
    return [&, nprocs, requests, matched](CouplingRuntime& rt, ProcessContext&) {
      const auto decomp = BlockDecomposition::make_grid(rows, cols, nprocs);
      rt.define_import_region(rt.program() == "I1" ? "a" : "b", decomp);
      rt.commit();
      DistArray2D<double> data(decomp, rt.rank());
      for (double x : requests) {
        const auto st = rt.import_region(rt.program() == "I1" ? "a" : "b", x, data);
        if (rt.rank() == 0 && st.ok()) matched->push_back(st.matched);
      }
      rt.finalize();
    };
  };
  std::vector<double> m1, m2;
  system.set_program_body("I1", importer(3, {2.0, 5.0}, &m1));
  system.set_program_body("I2", importer(2, {3.5, 7.0}, &m2));
  system.run();
  EXPECT_EQ(m1, (std::vector<double>{2.0, 5.0}));
  // REG picks the closest; 3.5 is equidistant from 3 and 4 and ties
  // prefer the later (more recent) version.
  EXPECT_EQ(m2, (std::vector<double>{4.0, 7.0}));
}

TEST(CoupledSystemTest, ChainOfThreePrograms) {
  // A exports to B; B consumes, transforms, exports to C.
  Config config;
  config.add_program(ProgramSpec{"A", "h", "/a", 2, {}});
  config.add_program(ProgramSpec{"B", "h", "/b", 2, {}});
  config.add_program(ProgramSpec{"C", "h", "/c", 2, {}});
  config.add_connection(ConnectionSpec{"A", "out", "B", "in", MatchPolicy::REGL, 0.5});
  config.add_connection(ConnectionSpec{"B", "out", "C", "in", MatchPolicy::REGL, 0.5});

  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  const auto decomp = BlockDecomposition::make_grid(8, 8, 2);

  system.set_program_body("A", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("out", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 4; ++k) {
      data.fill([&](dist::Index, dist::Index) { return k * 10.0; });
      rt.export_region("out", k, data);
    }
    rt.finalize();
  });
  system.set_program_body("B", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("in", decomp);
    rt.define_export_region("out", decomp);
    rt.commit();
    DistArray2D<double> in(decomp, rt.rank()), out(decomp, rt.rank());
    for (int k = 1; k <= 4; ++k) {
      const auto st = rt.import_region("in", k, in);
      ASSERT_TRUE(st.ok());
      out.fill([&](dist::Index r, dist::Index c) { return in.at(r, c) + 1.0; });
      rt.export_region("out", k, out);
    }
    rt.finalize();
  });
  std::vector<double> seen;
  system.set_program_body("C", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("in", decomp);
    rt.commit();
    DistArray2D<double> in(decomp, rt.rank());
    for (int k = 1; k <= 4; ++k) {
      const auto st = rt.import_region("in", k, in);
      ASSERT_TRUE(st.ok());
      if (rt.rank() == 0) seen.push_back(in.at(0, 0));
    }
    rt.finalize();
  });
  system.run();
  EXPECT_EQ(seen, (std::vector<double>{11.0, 21.0, 31.0, 41.0}));
}

TEST(CoupledSystemTest, UnconnectedExportRegionIsLowOverhead) {
  Config config = two_program_config(2, 2, MatchPolicy::REGL, 0.5);
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  const auto decomp = BlockDecomposition::make_grid(8, 8, 2);
  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("r", decomp);
    rt.define_export_region("diagnostics", decomp);  // nobody imports this
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 3; ++k) {
      rt.export_region("r", k, data);
      rt.export_region("diagnostics", k, data);
    }
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    (void)rt.import_region("r", 2.0, data);
    rt.finalize();
  });
  system.run();
  // The unconnected region performed no buffering at all.
  const ProcStats& stats = system.proc_stats("E", 0);
  ASSERT_EQ(stats.exports.size(), 2u);
  for (const auto& region : stats.exports) {
    if (region.region == "diagnostics") {
      EXPECT_EQ(region.exports, 3u);
      EXPECT_EQ(region.buffer.stores, 0u);
      EXPECT_EQ(region.buffer.skips, 0u);
    }
  }
}

TEST(CoupledSystemTest, MissingRegionDefinitionDetectedEarly) {
  Config config = two_program_config(2, 2, MatchPolicy::REGL, 0.5);
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  const auto decomp = BlockDecomposition::make_grid(8, 8, 2);
  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    // Forgets to define the exported region named in the connection.
    rt.commit();
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    rt.finalize();
  });
  try {
    system.run();
    FAIL() << "expected early misconfiguration detection";
  } catch (const util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("never defined exported region"), std::string::npos);
  }
}

TEST(CoupledSystemTest, RegionDimensionMismatchDetected) {
  Config config = two_program_config(2, 2, MatchPolicy::REGL, 0.5);
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("r", BlockDecomposition::make_grid(8, 8, 2));
    rt.commit();
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("r", BlockDecomposition::make_grid(16, 16, 2));
    rt.commit();
    rt.finalize();
  });
  EXPECT_THROW(system.run(), util::InvalidArgument);
}

TEST(CoupledSystemTest, ValidatesProgramBodies) {
  Config config = two_program_config(1, 1, MatchPolicy::REGL, 0.5);
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  EXPECT_THROW(system.set_program_body("nope", [](CouplingRuntime&, ProcessContext&) {}),
               util::InvalidArgument);
  EXPECT_THROW(system.run(), util::InvalidArgument);  // bodies missing
}

TEST(CoupledSystemTest, ProgramsWithNoConnectionsTerminate) {
  Config config;
  config.add_program(ProgramSpec{"solo", "h", "/s", 3, {}});
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  system.set_program_body("solo", [&](CouplingRuntime& rt, ProcessContext& ctx) {
    rt.commit();
    ctx.compute(0.5);
    rt.finalize();
  });
  system.run();
  EXPECT_GE(system.end_time(), 0.5);
}

TEST(CoupledSystemTest, ImportTimestampsMustIncrease) {
  Config config = two_program_config(1, 1, MatchPolicy::REGL, 0.5);
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  const auto decomp = BlockDecomposition::make_grid(4, 4, 1);
  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    for (int k = 1; k <= 5; ++k) rt.export_region("r", k, data);
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, rt.rank());
    (void)rt.import_region("r", 3.0, data);
    EXPECT_THROW((void)rt.import_region("r", 3.0, data), util::InvalidArgument);
    EXPECT_THROW((void)rt.import_region("r", 2.0, data), util::InvalidArgument);
    (void)rt.import_region("r", 4.0, data);
    rt.finalize();
  });
  system.run();
}

TEST(CoupledSystemTest, ApiMisuseIsRejected) {
  Config config = two_program_config(1, 1, MatchPolicy::REGL, 0.5);
  CoupledSystem system(config, ClusterOptions{}, FrameworkOptions{});
  const auto decomp = BlockDecomposition::make_grid(4, 4, 1);
  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    DistArray2D<double> data(decomp, 0);
    EXPECT_THROW(rt.export_region("r", 1.0, data), util::InvalidArgument);  // before commit
    rt.define_export_region("r", decomp);
    EXPECT_THROW(rt.define_export_region("r", decomp), util::InvalidArgument);  // duplicate
    rt.commit();
    EXPECT_THROW(rt.commit(), util::InvalidArgument);
    EXPECT_THROW(rt.export_region("other", 1.0, data), util::InvalidArgument);  // undefined
    rt.export_region("r", 1.0, data);
    rt.finalize();
    EXPECT_THROW(rt.export_region("r", 2.0, data), util::InvalidArgument);  // after finalize
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("r", decomp);
    rt.commit();
    DistArray2D<double> data(decomp, 0);
    (void)rt.import_region("r", 1.0, data);
    rt.finalize();
  });
  system.run();
}

}  // namespace
}  // namespace ccf::core
