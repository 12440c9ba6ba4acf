// Block decomposition and box-algebra tests, including the property that a
// decomposition exactly tiles its domain for arbitrary sizes/grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "dist/box.hpp"
#include "util/check.hpp"
#include "dist/decomposition.hpp"
#include "util/rng.hpp"

namespace ccf::dist {
namespace {

TEST(BoxTest, BasicGeometry) {
  Box b{2, 5, 10, 14};
  EXPECT_EQ(b.rows(), 3);
  EXPECT_EQ(b.cols(), 4);
  EXPECT_EQ(b.count(), 12);
  EXPECT_FALSE(b.empty());
  EXPECT_TRUE(b.contains(2, 10));
  EXPECT_TRUE(b.contains(4, 13));
  EXPECT_FALSE(b.contains(5, 10));
  EXPECT_FALSE(b.contains(2, 14));
}

TEST(BoxTest, EmptyBox) {
  Box e{};
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.count(), 0);
  Box inverted{5, 2, 0, 3};
  EXPECT_TRUE(inverted.empty());
}

TEST(BoxTest, Intersection) {
  Box a{0, 10, 0, 10};
  Box b{5, 15, 5, 15};
  const Box i = intersect(a, b);
  EXPECT_EQ(i, (Box{5, 10, 5, 10}));
  EXPECT_TRUE(overlaps(a, b));
  Box c{10, 20, 0, 10};  // touches a's edge — half-open, no overlap
  EXPECT_TRUE(intersect(a, c).empty());
  EXPECT_FALSE(overlaps(a, c));
}

TEST(BoxTest, ContainsBox) {
  Box outer{0, 10, 0, 10};
  EXPECT_TRUE(outer.contains(Box{2, 5, 3, 7}));
  EXPECT_TRUE(outer.contains(Box{0, 10, 0, 10}));
  EXPECT_FALSE(outer.contains(Box{0, 11, 0, 10}));
  EXPECT_TRUE(outer.contains(Box{}));  // empty box is contained anywhere
}

TEST(Decomposition, PaperConfiguration) {
  // Program F: 1024x1024 over 4 processes -> 2x2 grid of 512x512 blocks.
  const auto d = BlockDecomposition::make_grid(1024, 1024, 4);
  EXPECT_EQ(d.proc_rows(), 2);
  EXPECT_EQ(d.proc_cols(), 2);
  for (int r = 0; r < 4; ++r) {
    const Box b = d.box_of(r);
    EXPECT_EQ(b.rows(), 512);
    EXPECT_EQ(b.cols(), 512);
  }
  EXPECT_EQ(d.box_of(3), (Box{512, 1024, 512, 1024}));
}

TEST(Decomposition, RemainderGoesToLeadingBlocks) {
  const BlockDecomposition d(10, 7, 3, 2);
  // Rows: 4,3,3. Cols: 4,3.
  EXPECT_EQ(d.box_of(0), (Box{0, 4, 0, 4}));
  EXPECT_EQ(d.box_of(1), (Box{0, 4, 4, 7}));
  EXPECT_EQ(d.box_of(2), (Box{4, 7, 0, 4}));
  EXPECT_EQ(d.box_of(3), (Box{4, 7, 4, 7}));
  EXPECT_EQ(d.box_of(4), (Box{7, 10, 0, 4}));
  EXPECT_EQ(d.box_of(5), (Box{7, 10, 4, 7}));
}

TEST(Decomposition, OwnerOfInvertsBoxOf) {
  const BlockDecomposition d(37, 23, 5, 3);
  for (int rank = 0; rank < d.nprocs(); ++rank) {
    const Box b = d.box_of(rank);
    EXPECT_EQ(d.owner_of(b.row_begin, b.col_begin), rank);
    EXPECT_EQ(d.owner_of(b.row_end - 1, b.col_end - 1), rank);
  }
}

class TilingProperty : public ::testing::TestWithParam<std::tuple<Index, Index, int>> {};

TEST_P(TilingProperty, BlocksTileDomainExactly) {
  const auto [rows, cols, nprocs] = GetParam();
  const auto d = BlockDecomposition::make_grid(rows, cols, nprocs);
  // Every element has exactly one owner whose box contains it.
  Index covered = 0;
  for (int rank = 0; rank < d.nprocs(); ++rank) {
    const Box b = d.box_of(rank);
    covered += b.count();
    EXPECT_FALSE(b.empty());
    for (int other = rank + 1; other < d.nprocs(); ++other) {
      EXPECT_FALSE(overlaps(b, d.box_of(other)))
          << "ranks " << rank << " and " << other << " overlap";
    }
  }
  EXPECT_EQ(covered, rows * cols);
  // Spot-check owner_of consistency on a grid of sample points.
  for (Index r = 0; r < rows; r += std::max<Index>(1, rows / 7)) {
    for (Index c = 0; c < cols; c += std::max<Index>(1, cols / 7)) {
      EXPECT_TRUE(d.box_of(d.owner_of(r, c)).contains(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TilingProperty,
                         ::testing::Values(std::make_tuple(Index{8}, Index{8}, 4),
                                           std::make_tuple(Index{1024}, Index{1024}, 32),
                                           std::make_tuple(Index{17}, Index{13}, 6),
                                           std::make_tuple(Index{100}, Index{3}, 3),
                                           std::make_tuple(Index{7}, Index{7}, 7),
                                           std::make_tuple(Index{5}, Index{1}, 5),
                                           std::make_tuple(Index{64}, Index{64}, 1)));

TEST(Decomposition, RowBlocks) {
  const auto d = BlockDecomposition::make_row_blocks(100, 10, 4);
  EXPECT_EQ(d.proc_rows(), 4);
  EXPECT_EQ(d.proc_cols(), 1);
  EXPECT_EQ(d.box_of(0), (Box{0, 25, 0, 10}));
}

TEST(Decomposition, RanksOverlapping) {
  const auto d = BlockDecomposition::make_grid(100, 100, 4);  // 2x2
  const auto all = d.ranks_overlapping(Box{0, 100, 0, 100});
  EXPECT_EQ(all.size(), 4u);
  const auto corner = d.ranks_overlapping(Box{0, 10, 0, 10});
  EXPECT_EQ(corner, (std::vector<int>{0}));
  const auto row = d.ranks_overlapping(Box{0, 10, 0, 100});
  EXPECT_EQ(row, (std::vector<int>{0, 1}));
}

TEST(Decomposition, RanksOverlappingMatchesBruteForce) {
  // Random grids with uneven blocks, probed with boxes that reach past
  // the domain on every side; a quarter are drawn unordered, so empty and
  // inverted boxes come up often.
  util::Xoshiro256 rng(0xB10C);
  const auto draw = [&](Index lo, Index hi) {
    return lo + static_cast<Index>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (int i = 0; i < 400; ++i) {
    const Index rows = draw(1, 30);
    const Index cols = draw(1, 30);
    const BlockDecomposition d(rows, cols, static_cast<int>(draw(1, std::min<Index>(rows, 7))),
                               static_cast<int>(draw(1, std::min<Index>(cols, 7))));
    for (int k = 0; k < 25; ++k) {
      Index r0 = draw(-4, rows + 4), r1 = draw(-4, rows + 4);
      Index c0 = draw(-4, cols + 4), c1 = draw(-4, cols + 4);
      if (rng.below(4) != 0) {
        if (r0 > r1) std::swap(r0, r1);
        if (c0 > c1) std::swap(c0, c1);
      }
      const Box box{r0, r1, c0, c1};
      std::vector<int> expect;
      for (int rank = 0; rank < d.nprocs(); ++rank) {
        if (overlaps(d.box_of(rank), box)) expect.push_back(rank);
      }
      ASSERT_EQ(d.ranks_overlapping(box), expect)
          << rows << "x" << cols << " on " << d.proc_rows() << "x" << d.proc_cols() << ", box "
          << box;
    }
  }
}

TEST(Decomposition, Validation) {
  EXPECT_THROW(BlockDecomposition(0, 10, 1, 1), util::InvalidArgument);
  EXPECT_THROW(BlockDecomposition(10, 10, 11, 1), util::InvalidArgument);
  EXPECT_THROW(BlockDecomposition(10, 10, 0, 2), util::InvalidArgument);
  EXPECT_THROW(BlockDecomposition::make_grid(4, 4, 0), util::InvalidArgument);
  const auto d = BlockDecomposition::make_grid(4, 4, 4);
  EXPECT_THROW(d.box_of(4), util::InvalidArgument);
  EXPECT_THROW(d.owner_of(4, 0), util::InvalidArgument);
}

TEST(Decomposition, GridChoicePrefersSquareBlocks) {
  // 1024x1024 with 8 procs: 2x4 or 4x2 (blocks 512x256 / 256x512) beat 1x8.
  const auto d = BlockDecomposition::make_grid(1024, 1024, 8);
  EXPECT_GE(d.proc_rows(), 2);
  EXPECT_GE(d.proc_cols(), 2);
  // Wide domain prefers splitting columns.
  const auto wide = BlockDecomposition::make_grid(10, 1000, 4);
  EXPECT_EQ(wide.proc_rows(), 1);
  EXPECT_EQ(wide.proc_cols(), 4);
}

TEST(Decomposition, MakeGridFitsElongatedDomains) {
  // Every fitting grid of these has blocks more than e times longer than
  // wide; the squarest one that fits must still be chosen.
  const auto tall = BlockDecomposition::make_grid(100, 2, 4);  // 1x4 does not fit
  EXPECT_EQ(tall.proc_rows(), 4);
  EXPECT_EQ(tall.proc_cols(), 1);
  const auto strip = BlockDecomposition::make_grid(1000, 10, 10);  // 100x10 blocks
  EXPECT_EQ(strip.proc_rows(), 10);
  EXPECT_EQ(strip.proc_cols(), 1);
  const auto thin = BlockDecomposition::make_grid(100, 3, 3);  // 33x3 blocks, not 100x1
  EXPECT_EQ(thin.proc_rows(), 3);
  EXPECT_EQ(thin.proc_cols(), 1);
  EXPECT_THROW(BlockDecomposition::make_grid(2, 2, 5), util::InvalidArgument);
}

TEST(Decomposition, MakeGridPicksTheSquarestFittingGrid) {
  // Brute force over small shapes: the chosen grid fits, and no fitting
  // factorization has strictly squarer blocks.
  const auto score = [](Index rows, Index cols, int pr, int pc) {
    return -std::abs(std::log((static_cast<double>(rows) / pr) / (static_cast<double>(cols) / pc)));
  };
  for (Index rows = 1; rows <= 12; ++rows) {
    for (Index cols = 1; cols <= 12; ++cols) {
      for (int nprocs = 1; nprocs <= 16; ++nprocs) {
        bool fits = false;
        double best = 0;
        for (int pr = 1; pr <= nprocs; ++pr) {
          const int pc = nprocs / pr;
          if (pr * pc != nprocs || pr > rows || pc > cols) continue;
          best = fits ? std::max(best, score(rows, cols, pr, pc)) : score(rows, cols, pr, pc);
          fits = true;
        }
        if (!fits) {
          EXPECT_THROW(BlockDecomposition::make_grid(rows, cols, nprocs), util::InvalidArgument);
          continue;
        }
        const auto d = BlockDecomposition::make_grid(rows, cols, nprocs);
        EXPECT_EQ(d.nprocs(), nprocs);
        EXPECT_EQ(score(rows, cols, d.proc_rows(), d.proc_cols()), best)
            << rows << "x" << cols << " on " << nprocs << " chose " << d.proc_rows() << "x"
            << d.proc_cols();
      }
    }
  }
}

}  // namespace
}  // namespace ccf::dist
