#include "dist/decomposition.hpp"

#include <cmath>

#include "util/check.hpp"

namespace ccf::dist {

BlockDecomposition::BlockDecomposition(Index rows, Index cols, int pr, int pc)
    : rows_(rows), cols_(cols), pr_(pr), pc_(pc) {
  CCF_REQUIRE(rows > 0 && cols > 0, "domain " << rows << "x" << cols << " is empty");
  CCF_REQUIRE(pr > 0 && pc > 0, "process grid " << pr << "x" << pc << " is empty");
  CCF_REQUIRE(pr <= rows, "more process rows (" << pr << ") than domain rows (" << rows << ")");
  CCF_REQUIRE(pc <= cols, "more process cols (" << pc << ") than domain cols (" << cols << ")");
}

BlockDecomposition BlockDecomposition::make_grid(Index rows, Index cols, int nprocs) {
  CCF_REQUIRE(nprocs > 0, "need at least one process");
  // Choose the factorization pr*pc == nprocs that fits the domain with
  // blocks as square as the domain aspect allows (0: none fits yet).
  int best_pr = 0;
  double best_score = 0;
  for (int pr = 1; pr <= nprocs; ++pr) {
    if (nprocs % pr != 0) continue;
    const int pc = nprocs / pr;
    if (pr > rows || pc > cols) continue;
    const double block_r = static_cast<double>(rows) / pr;
    const double block_c = static_cast<double>(cols) / pc;
    // Score favors square-ish blocks (minimizes redistribution perimeter).
    const double score = -std::abs(std::log(block_r / block_c));
    if (best_pr == 0 || score > best_score) {
      best_score = score;
      best_pr = pr;
    }
  }
  CCF_REQUIRE(best_pr > 0, "cannot fit " << nprocs << " processes on " << rows << "x" << cols);
  return BlockDecomposition(rows, cols, best_pr, nprocs / best_pr);
}

BlockDecomposition BlockDecomposition::make_row_blocks(Index rows, Index cols, int nprocs) {
  return BlockDecomposition(rows, cols, nprocs, 1);
}

std::pair<Index, Index> BlockDecomposition::block_range(Index total, int n, int i) {
  // First (total % n) blocks get one extra element.
  const Index base = total / n;
  const Index extra = total % n;
  const Index begin = static_cast<Index>(i) * base + std::min<Index>(i, extra);
  const Index len = base + (i < extra ? 1 : 0);
  return {begin, begin + len};
}

int BlockDecomposition::block_index(Index total, int n, Index x) {
  const Index base = total / n;
  const Index extra = total % n;
  const Index fat_end = (base + 1) * extra;  // end of the fat blocks
  if (x < fat_end) return static_cast<int>(x / (base + 1));
  return static_cast<int>(extra + (x - fat_end) / base);
}

Box BlockDecomposition::box_of(int rank) const {
  CCF_REQUIRE(rank >= 0 && rank < nprocs(), "rank " << rank << " outside [0," << nprocs() << ")");
  const int gr = rank / pc_;
  const int gc = rank % pc_;
  const auto [rb, re] = block_range(rows_, pr_, gr);
  const auto [cb, ce] = block_range(cols_, pc_, gc);
  return Box{rb, re, cb, ce};
}

int BlockDecomposition::owner_of(Index r, Index c) const {
  CCF_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "(" << r << "," << c << ") outside " << rows_ << "x" << cols_);
  const int gr = block_index(rows_, pr_, r);
  const int gc = block_index(cols_, pc_, c);
  return gr * pc_ + gc;
}

std::vector<int> BlockDecomposition::ranks_overlapping(const Box& region) const {
  // The blocks meeting a box form one row range x one column range of the
  // grid, found from the box's first and last rows and columns.
  const Box clipped = intersect(region, domain());
  if (clipped.empty()) return {};
  const int gr_first = block_index(rows_, pr_, clipped.row_begin);
  const int gr_last = block_index(rows_, pr_, clipped.row_end - 1);
  const int gc_first = block_index(cols_, pc_, clipped.col_begin);
  const int gc_last = block_index(cols_, pc_, clipped.col_end - 1);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(gr_last - gr_first + 1) *
              static_cast<std::size_t>(gc_last - gc_first + 1));
  for (int gr = gr_first; gr <= gr_last; ++gr) {
    for (int gc = gc_first; gc <= gc_last; ++gc) out.push_back(gr * pc_ + gc);
  }
  return out;
}

}  // namespace ccf::dist
