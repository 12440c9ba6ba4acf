// Sub-region (windowed) transfer tests: a connection carrying only a
// boundary strip or interior patch of the exporter's domain — the paper's
// "shared boundaries or overlapped regions between physical models".
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::Box;
using dist::DistArray2D;
using dist::Index;

double cell_value(Timestamp t, Index r, Index c) {
  return t * 1e6 + static_cast<double>(r) * 1000 + static_cast<double>(c);
}

struct WindowCase {
  Box window;            // in exporter coordinates
  int exp_procs;
  int imp_procs;
};

class WindowedTransfer : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowedTransfer, StripArrivesTranslatedAndIntact) {
  const WindowCase& wc = GetParam();
  const Index rows = 24, cols = 24;

  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", wc.exp_procs, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", wc.imp_procs, {}});
  ConnectionSpec spec{"E", "r", "I", "strip", MatchPolicy::REGL, 0.5};
  spec.exporter_window = wc.window;
  config.add_connection(spec);

  CoupledSystem system(config, runtime::ClusterOptions{}, FrameworkOptions{});
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, wc.exp_procs);
  const auto i_decomp =
      BlockDecomposition::make_grid(wc.window.rows(), wc.window.cols(), wc.imp_procs);

  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (int k = 1; k <= 6; ++k) {
      data.fill([&](Index r, Index c) { return cell_value(k, r, c); });
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });

  std::vector<int> errors(static_cast<std::size_t>(wc.imp_procs), 0);
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_import_region("strip", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    for (double x : {2.0, 5.0}) {
      const auto st = rt.import_region("strip", x, data);
      if (!st.ok()) {
        errors[static_cast<std::size_t>(rt.rank())] += 1000;
        continue;
      }
      // Importer index (r, c) holds exporter cell (r + window.row_begin,
      // c + window.col_begin) of version x.
      const Box box = data.local_box();
      for (Index r = box.row_begin; r < box.row_end; ++r) {
        for (Index c = box.col_begin; c < box.col_end; ++c) {
          const double expect =
              cell_value(x, r + wc.window.row_begin, c + wc.window.col_begin);
          if (data.at(r, c) != expect) errors[static_cast<std::size_t>(rt.rank())]++;
        }
      }
    }
    rt.finalize();
  });
  system.run();
  for (int r = 0; r < wc.imp_procs; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], 0) << "importer rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowedTransfer,
    ::testing::Values(WindowCase{Box{0, 4, 0, 24}, 4, 2},     // north boundary strip
                      WindowCase{Box{20, 24, 0, 24}, 4, 2},   // south boundary strip
                      WindowCase{Box{0, 24, 21, 24}, 4, 3},   // east column strip
                      WindowCase{Box{8, 16, 8, 16}, 4, 4},    // interior patch
                      WindowCase{Box{0, 24, 0, 24}, 4, 2},    // explicit full domain
                      WindowCase{Box{6, 7, 6, 7}, 9, 1},      // single cell
                      WindowCase{Box{5, 19, 3, 22}, 6, 4}),   // off-center, uneven blocks
    [](const ::testing::TestParamInfo<WindowCase>& p) {
      const Box& w = p.param.window;
      return "w" + std::to_string(w.row_begin) + "_" + std::to_string(w.row_end) + "_" +
             std::to_string(w.col_begin) + "_" + std::to_string(w.col_end) + "_E" +
             std::to_string(p.param.exp_procs) + "I" + std::to_string(p.param.imp_procs);
    });

TEST(WindowedTransfer, NonContributingProcessesSkipAllBuffering) {
  // A 2x2 exporter grid with a window entirely inside rank 0's block:
  // ranks 1-3 participate in the protocol but never copy a snapshot.
  const Index n = 16;
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", 4, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", 1, {}});
  ConnectionSpec spec{"E", "r", "I", "patch", MatchPolicy::REGL, 0.5};
  spec.exporter_window = Box{0, 4, 0, 4};  // inside rank 0's [0,8)x[0,8)
  config.add_connection(spec);

  CoupledSystem system(config, runtime::ClusterOptions{}, FrameworkOptions{});
  const auto e_decomp = BlockDecomposition::make_grid(n, n, 4);
  const auto i_decomp = BlockDecomposition::make_grid(4, 4, 1);
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (int k = 1; k <= 10; ++k) rt.export_region("r", k, data);
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_import_region("patch", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    EXPECT_TRUE(rt.import_region("patch", 5.0, data).ok());
    rt.finalize();
  });
  system.run();

  EXPECT_GT(system.proc_stats("E", 0).exports.at(0).buffer.stores, 0u);
  for (int r = 1; r < 4; ++r) {
    const auto& stats = system.proc_stats("E", r).exports.at(0);
    EXPECT_EQ(stats.buffer.stores, 0u) << "rank " << r;
    EXPECT_EQ(stats.transfers, 0u) << "rank " << r;
    EXPECT_EQ(stats.buffer.skips, 10u) << "rank " << r;
  }
}

TEST(WindowedTransfer, GeometryValidation) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", 1, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", 1, {}});
  ConnectionSpec spec{"E", "r", "I", "s", MatchPolicy::REGL, 0.5};
  spec.exporter_window = Box{0, 4, 0, 40};  // escapes the 16x16 exporter domain
  config.add_connection(spec);
  CoupledSystem system(config, runtime::ClusterOptions{}, FrameworkOptions{});
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_export_region("r", BlockDecomposition::make_grid(16, 16, 1));
    rt.commit();
    rt.finalize();
  });
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext&) {
    rt.define_import_region("s", BlockDecomposition::make_grid(4, 40, 1));
    rt.commit();
    rt.finalize();
  });
  EXPECT_THROW(system.run(), util::InvalidArgument);
}

TEST(WindowedTransfer, ConfigFileSyntax) {
  const Config config = Config::parse_string(
      "E h /e 4\nI h /i 2\n#\nE.r I.strip REGL 0.5 0 4 0 24\n");
  ASSERT_EQ(config.connections().size(), 1u);
  const auto& window = config.connections()[0].exporter_window;
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(*window, (Box{0, 4, 0, 24}));
  // Malformed windows rejected.
  EXPECT_THROW(Config::parse_string("E h /e 1\nI h /i 1\n#\nE.r I.s REGL 0.5 4 0 0 24\n"),
               util::InvalidArgument);  // empty (r1 < r0)
  EXPECT_THROW(Config::parse_string("E h /e 1\nI h /i 1\n#\nE.r I.s REGL 0.5 0 4\n"),
               util::InvalidArgument);  // wrong arity
}

}  // namespace
}  // namespace ccf::core
