// Differential test of the rank-local MxN schedule against the all-pairs
// reference (support/naive_schedule.hpp): over random block grids and
// transfer windows, every rank's pieces on both sides equal the
// reference's pieces for that rank, in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "dist/schedule.hpp"
#include "support/naive_schedule.hpp"
#include "util/rng.hpp"

namespace ccf::dist {

void PrintTo(const TransferPiece& p, std::ostream* os) {
  *os << p.src_rank << "->" << p.dst_rank << " " << p.box;
}

namespace {

/// Uniform in [lo, hi].
Index draw(util::Xoshiro256& rng, Index lo, Index hi) {
  return lo + static_cast<Index>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// A non-empty sub-box of [0, rows) x [0, cols).
Box draw_box(util::Xoshiro256& rng, Index rows, Index cols) {
  const Index r0 = draw(rng, 0, rows - 1);
  const Index c0 = draw(rng, 0, cols - 1);
  return Box{r0, draw(rng, r0 + 1, rows), c0, draw(rng, c0 + 1, cols)};
}

/// A process grid that fits rows x cols: 1 x N, N x 1 and one row per
/// process row (pr == rows) each come up often; the rest are any fit.
/// Domain sides are drawn independently of the grid, so most blocks
/// split unevenly.
BlockDecomposition draw_grid(util::Xoshiro256& rng, Index rows, Index cols) {
  auto pr = static_cast<int>(draw(rng, 1, std::min<Index>(rows, 6)));
  auto pc = static_cast<int>(draw(rng, 1, std::min<Index>(cols, 6)));
  switch (rng.below(5)) {
    case 0: pr = 1; break;
    case 1: pc = 1; break;
    case 2:
      if (rows <= 12) pr = static_cast<int>(rows);
      break;
    default: break;
  }
  return BlockDecomposition(rows, cols, pr, pc);
}

struct Case {
  BlockDecomposition src;
  BlockDecomposition dst;
  Box region;
  Index row_offset;
  Index col_offset;
};

/// Half the cases map the importer onto the whole exporter domain, half
/// onto a random window of it; the region is the importer's whole domain
/// (as a connection transfers it) or a random sub-box of it.
Case draw_case(util::Xoshiro256& rng) {
  const Index rows = draw(rng, 1, 40);
  const Index cols = draw(rng, 1, 40);
  const Box window = rng.below(2) == 0 ? Box{0, rows, 0, cols} : draw_box(rng, rows, cols);
  const Box region =
      rng.below(2) == 0
          ? window
          : translate(draw_box(rng, window.rows(), window.cols()), window.row_begin,
                      window.col_begin);
  return Case{draw_grid(rng, rows, cols), draw_grid(rng, window.rows(), window.cols()), region,
              window.row_begin, window.col_begin};
}

TEST(ScheduleDifferential, RankLocalPiecesEqualAllPairsReference) {
  util::Xoshiro256 rng(0x5C4ED);
  int row_strips = 0, col_strips = 0, row_per_proc = 0, windowed = 0;
  for (int i = 0; i < 2000; ++i) {
    const Case c = draw_case(rng);
    SCOPED_TRACE(::testing::Message()
                 << "case " << i << ": src " << c.src.rows() << "x" << c.src.cols() << " on "
                 << c.src.proc_rows() << "x" << c.src.proc_cols() << ", dst " << c.dst.rows()
                 << "x" << c.dst.cols() << " on " << c.dst.proc_rows() << "x"
                 << c.dst.proc_cols() << ", region " << c.region << ", offset ("
                 << c.row_offset << "," << c.col_offset << ")");
    for (const auto* d : {&c.src, &c.dst}) {
      row_strips += d->proc_cols() == 1 && d->proc_rows() > 1;
      col_strips += d->proc_rows() == 1 && d->proc_cols() > 1;
      row_per_proc += d->proc_rows() == d->rows() && d->rows() > 1;
    }
    windowed += c.row_offset != 0 || c.col_offset != 0;

    // The reference's pieces of each rank, in reference order.
    const auto all = naive_schedule(c.src, c.dst, c.region, c.row_offset, c.col_offset);
    std::vector<std::vector<TransferPiece>> sends(static_cast<std::size_t>(c.src.nprocs()));
    std::vector<std::vector<TransferPiece>> recvs(static_cast<std::size_t>(c.dst.nprocs()));
    for (const auto& p : all) {
      sends[static_cast<std::size_t>(p.src_rank)].push_back(p);
      recvs[static_cast<std::size_t>(p.dst_rank)].push_back(p);
    }
    for (int s = 0; s < c.src.nprocs(); ++s) {
      const auto sched = RedistSchedule::for_exporter(s, c.src, c.dst, c.region, c.row_offset,
                                                      c.col_offset);
      ASSERT_EQ(sched.pieces(), sends[static_cast<std::size_t>(s)]) << "exporter rank " << s;
    }
    for (int d = 0; d < c.dst.nprocs(); ++d) {
      const auto sched = RedistSchedule::for_importer(d, c.src, c.dst, c.region, c.row_offset,
                                                      c.col_offset);
      ASSERT_EQ(sched.pieces(), recvs[static_cast<std::size_t>(d)]) << "importer rank " << d;
    }
  }
  // The draw reached every grid shape it is meant to cover.
  EXPECT_GT(row_strips, 0);
  EXPECT_GT(col_strips, 0);
  EXPECT_GT(row_per_proc, 0);
  EXPECT_GT(windowed, 0);
}

}  // namespace
}  // namespace ccf::dist
