// The all-pairs MxN schedule, kept as a reference for the rank-local
// dist::RedistSchedule.
//
// It intersects every exporter block, clipped to the region, with every
// translated importer block: O(F·U) work and memory for F exporter and U
// importer ranks, which is why production builds only one rank's pieces.
// Exporter-major, then importer order: the pieces of one exporter rank
// come by ascending importer rank and those of one importer rank by
// ascending exporter rank, the order the rank-local schedule must keep.
#pragma once

#include <vector>

#include "dist/schedule.hpp"

namespace ccf::dist {

/// Every (exporter rank, importer rank) piece of moving `region` from the
/// `src` layout to the `dst` layout; arguments as RedistSchedule's.
inline std::vector<TransferPiece> naive_schedule(const BlockDecomposition& src,
                                                 const BlockDecomposition& dst,
                                                 const Box& region, Index dst_row_offset = 0,
                                                 Index dst_col_offset = 0) {
  std::vector<TransferPiece> pieces;
  for (int s = 0; s < src.nprocs(); ++s) {
    const Box src_part = intersect(src.box_of(s), region);
    if (src_part.empty()) continue;
    for (int d = 0; d < dst.nprocs(); ++d) {
      const Box piece =
          intersect(src_part, translate(dst.box_of(d), dst_row_offset, dst_col_offset));
      if (!piece.empty()) pieces.push_back(TransferPiece{s, d, piece});
    }
  }
  return pieces;
}

}  // namespace ccf::dist
