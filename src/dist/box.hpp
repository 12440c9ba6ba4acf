// Rectangular index regions (half-open boxes) over a 2-D global domain.
//
// Boxes are the metadata currency of the MxN redistribution machinery:
// decompositions map ranks to boxes, and communication schedules are built
// from pairwise box intersections (the Meta-Chaos/InterComm approach).
#pragma once

#include <cstdint>
#include <ostream>

namespace ccf::dist {

using Index = std::int64_t;

struct Box {
  Index row_begin = 0;
  Index row_end = 0;  ///< exclusive
  Index col_begin = 0;
  Index col_end = 0;  ///< exclusive

  Index rows() const { return row_end > row_begin ? row_end - row_begin : 0; }
  Index cols() const { return col_end > col_begin ? col_end - col_begin : 0; }
  Index count() const { return rows() * cols(); }
  bool empty() const { return count() == 0; }

  bool contains(Index r, Index c) const {
    return r >= row_begin && r < row_end && c >= col_begin && c < col_end;
  }

  bool contains(const Box& other) const {
    return other.empty() ||
           (other.row_begin >= row_begin && other.row_end <= row_end &&
            other.col_begin >= col_begin && other.col_end <= col_end);
  }

  friend bool operator==(const Box& a, const Box& b) {
    return a.row_begin == b.row_begin && a.row_end == b.row_end &&
           a.col_begin == b.col_begin && a.col_end == b.col_end;
  }

  friend std::ostream& operator<<(std::ostream& os, const Box& b) {
    return os << "[" << b.row_begin << "," << b.row_end << ")x[" << b.col_begin << ","
              << b.col_end << ")";
  }
};

/// Intersection of two boxes; empty (all-zero) when disjoint.
inline Box intersect(const Box& a, const Box& b) {
  Box out;
  out.row_begin = a.row_begin > b.row_begin ? a.row_begin : b.row_begin;
  out.row_end = a.row_end < b.row_end ? a.row_end : b.row_end;
  out.col_begin = a.col_begin > b.col_begin ? a.col_begin : b.col_begin;
  out.col_end = a.col_end < b.col_end ? a.col_end : b.col_end;
  if (out.row_begin >= out.row_end || out.col_begin >= out.col_end) return Box{};
  return out;
}

inline bool overlaps(const Box& a, const Box& b) { return !intersect(a, b).empty(); }

/// `b` moved by `rows` rows and `cols` columns.
inline Box translate(const Box& b, Index rows, Index cols) {
  return Box{b.row_begin + rows, b.row_end + rows, b.col_begin + cols, b.col_end + cols};
}

}  // namespace ccf::dist
