// Block decompositions of a 2-D global domain over a process grid.
//
// Every process computes the full decomposition from (rows, cols, pr, pc)
// metadata alone, so exporter and importer programs can independently
// derive each other's data layout from the connection metadata — no
// layout messages are needed to build a redistribution schedule.
#pragma once

#include <utility>
#include <vector>

#include "dist/box.hpp"

namespace ccf::dist {

class BlockDecomposition {
 public:
  /// Splits rows x cols over a pr x pc grid, block-wise in both dimensions.
  /// Remainder rows/cols go to the leading blocks (MPI_Dims-style).
  BlockDecomposition(Index rows, Index cols, int pr, int pc);

  /// Convenience: chooses the pr x pc grid for nprocs whose blocks are
  /// closest to square among those that fit the domain.
  static BlockDecomposition make_grid(Index rows, Index cols, int nprocs);

  /// 1-D row-block decomposition (pc == 1).
  static BlockDecomposition make_row_blocks(Index rows, Index cols, int nprocs);

  int nprocs() const { return pr_ * pc_; }
  int proc_rows() const { return pr_; }
  int proc_cols() const { return pc_; }
  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Box domain() const { return Box{0, rows_, 0, cols_}; }

  /// Local box owned by `rank` (row-major rank order over the grid).
  Box box_of(int rank) const;

  /// Rank owning global element (r, c).
  int owner_of(Index r, Index c) const;

  /// All ranks whose boxes overlap `region`, ascending; O(result size).
  std::vector<int> ranks_overlapping(const Box& region) const;

  friend bool operator==(const BlockDecomposition& a, const BlockDecomposition& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.pr_ == b.pr_ && a.pc_ == b.pc_;
  }

 private:
  /// Extent of block `i` of `n` blocks over `total` elements.
  static std::pair<Index, Index> block_range(Index total, int n, int i);
  static int block_index(Index total, int n, Index x);

  Index rows_;
  Index cols_;
  int pr_;
  int pc_;
};

}  // namespace ccf::dist
