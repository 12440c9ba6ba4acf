#include "dist/schedule.hpp"

#include "util/check.hpp"

namespace ccf::dist {

RedistSchedule::RedistSchedule(const BlockDecomposition& src, const BlockDecomposition& dst,
                               const Box& region, Index dst_row_offset, Index dst_col_offset)
    : dst_row_offset_(dst_row_offset), dst_col_offset_(dst_col_offset) {
  CCF_REQUIRE(!region.empty(), "redistribution region is empty");
  CCF_REQUIRE(src.domain().contains(region), "region " << region << " escapes exporter domain");
  const Box dst_domain_in_src = translate(dst.domain(), dst_row_offset, dst_col_offset);
  CCF_REQUIRE(dst_domain_in_src.contains(region),
              "region " << region << " escapes importer domain " << dst_domain_in_src);
}

RedistSchedule RedistSchedule::for_exporter(int src_rank, const BlockDecomposition& src,
                                            const BlockDecomposition& dst, const Box& region,
                                            Index dst_row_offset, Index dst_col_offset) {
  RedistSchedule sched(src, dst, region, dst_row_offset, dst_col_offset);
  // The importer blocks this rank's part meets, looked up in importer
  // coordinates; the pieces stay in source coordinates.
  const Box own = intersect(src.box_of(src_rank), region);
  const auto peers = dst.ranks_overlapping(translate(own, -dst_row_offset, -dst_col_offset));
  sched.pieces_.reserve(peers.size());
  for (int d : peers) {
    const Box dst_box = translate(dst.box_of(d), dst_row_offset, dst_col_offset);
    sched.pieces_.push_back(TransferPiece{src_rank, d, intersect(own, dst_box)});
  }
  CCF_CHECK(sched.total_elements() == own.count(),
            "exporter rank " << src_rank << " schedule covers " << sched.total_elements()
                             << " elements, its part " << own << " has " << own.count());
  return sched;
}

RedistSchedule RedistSchedule::for_importer(int dst_rank, const BlockDecomposition& src,
                                            const BlockDecomposition& dst, const Box& region,
                                            Index dst_row_offset, Index dst_col_offset) {
  RedistSchedule sched(src, dst, region, dst_row_offset, dst_col_offset);
  // This rank's block, moved into source coordinates, meets one range of
  // exporter blocks.
  const Box own =
      intersect(translate(dst.box_of(dst_rank), dst_row_offset, dst_col_offset), region);
  const auto peers = src.ranks_overlapping(own);
  sched.pieces_.reserve(peers.size());
  for (int s : peers) {
    sched.pieces_.push_back(TransferPiece{s, dst_rank, intersect(src.box_of(s), own)});
  }
  CCF_CHECK(sched.total_elements() == own.count(),
            "importer rank " << dst_rank << " schedule covers " << sched.total_elements()
                             << " elements, its part " << own << " has " << own.count());
  return sched;
}

Index RedistSchedule::total_elements() const {
  Index total = 0;
  for (const auto& p : pieces_) total += p.box.count();
  return total;
}

}  // namespace ccf::dist
