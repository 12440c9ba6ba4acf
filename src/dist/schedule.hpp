// Rank-local MxN redistribution schedules.
//
// Given the exporter's decomposition, the importer's decomposition, and a
// transfer region, a schedule lists the pieces ONE rank moves: the
// sub-boxes an exporter rank sends, or the sub-boxes an importer rank
// receives. Each side derives its own pieces independently from the same
// metadata (deterministic, no negotiation traffic), the approach used by
// Meta-Chaos / InterComm / the CCA MxN working group the paper builds on.
//
// Block decompositions make a rank's peers one row range x one column
// range of the peer grid, so a schedule costs O(own pieces) to build and
// to hold, independent of the other side's width. Pieces are ordered by
// ascending peer rank; the sender's and the receiver's views of a piece
// are identical, which fixes the importer's receive order.
#pragma once

#include <vector>

#include "dist/decomposition.hpp"

namespace ccf::dist {

/// One hop of a redistribution: `box` (global indices) travels between
/// exporter rank `src_rank` and importer rank `dst_rank`.
struct TransferPiece {
  int src_rank = 0;
  int dst_rank = 0;
  Box box;

  friend bool operator==(const TransferPiece& a, const TransferPiece& b) {
    return a.src_rank == b.src_rank && a.dst_rank == b.dst_rank && a.box == b.box;
  }
};

class RedistSchedule {
 public:
  /// The pieces exporter rank `src_rank` sends when `region` moves from
  /// the `src` layout to the `dst` layout.
  ///
  /// Windowed transfers: the destination's domain maps onto the sub-box of
  /// the source domain whose origin is (dst_row_offset, dst_col_offset) —
  /// i.e., dst global index (r, c) corresponds to source index
  /// (r + dst_row_offset, c + dst_col_offset). `region` is given in
  /// SOURCE coordinates and must lie inside both the source domain and
  /// the translated destination domain. Piece boxes are recorded in
  /// source coordinates; receivers translate back when unpacking.
  static RedistSchedule for_exporter(int src_rank, const BlockDecomposition& src,
                                     const BlockDecomposition& dst, const Box& region,
                                     Index dst_row_offset = 0, Index dst_col_offset = 0);

  /// The pieces importer rank `dst_rank` receives; same arguments and
  /// coordinates as for_exporter.
  static RedistSchedule for_importer(int dst_rank, const BlockDecomposition& src,
                                     const BlockDecomposition& dst, const Box& region,
                                     Index dst_row_offset = 0, Index dst_col_offset = 0);

  Index dst_row_offset() const { return dst_row_offset_; }
  Index dst_col_offset() const { return dst_col_offset_; }

  /// This rank's pieces, by ascending peer rank.
  const std::vector<TransferPiece>& pieces() const { return pieces_; }

  /// Elements this rank moves (== the size of its part of the region).
  Index total_elements() const;

 private:
  RedistSchedule(const BlockDecomposition& src, const BlockDecomposition& dst,
                 const Box& region, Index dst_row_offset, Index dst_col_offset);

  Index dst_row_offset_ = 0;
  Index dst_col_offset_ = 0;
  std::vector<TransferPiece> pieces_;
};

}  // namespace ccf::dist
