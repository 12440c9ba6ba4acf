// Executes an MxN redistribution schedule over the transport.
//
// The exporter side sends each scheduled piece (packed row-major) to the
// destination process; the importer side receives and unpacks into its
// local block. Sends can source either a live DistArray2D or a packed
// snapshot buffer — the coupling framework transfers *buffered* exports,
// which are snapshots taken at export time, not live arrays.
//
// Data plane copy budget (docs/PERF.md): a partial piece is packed with
// one strided copy directly into an exact-size wire frame (no
// intermediate vector, no serializer growth); a piece covering the
// exporter's full snapshot box aliases the caller-provided snapshot frame
// as the payload — zero copies, and the same refcounted frame is shared
// across every destination rank (and, via BufferPool::wire_payload,
// across connections). The receive side unpacks straight from payload
// bytes into the destination block with one strided copy per row.
//
// Wire format of every data message: [u64 element count][row-major
// elements] — exactly Writer::put_vector framing, so aliased and packed
// sends are byte-identical on the wire and Reader::get_vector can always
// parse a data message.
//
// Per transfer instance the caller supplies a unique tag; block-to-block
// intersections are single rectangles, so (src, dst, tag) uniquely
// identifies every message of a transfer.
#pragma once

#include <vector>

#include "dist/dist_array.hpp"
#include "dist/schedule.hpp"
#include "dist/transfer_stats.hpp"
#include "runtime/process_context.hpp"
#include "transport/serialize.hpp"
#include "util/check.hpp"

namespace ccf::dist {

using runtime::Payload;
using runtime::ProcessContext;
using runtime::ProcId;
using runtime::Tag;

/// Extracts `piece` (global indices) from a packed row-major buffer whose
/// extent is `buf_box`. `piece` must lie inside `buf_box`.
template <typename T>
std::vector<T> pack_from_packed(const Box& buf_box, const std::vector<T>& buf, const Box& piece) {
  CCF_REQUIRE(buf_box.contains(piece), "piece " << piece << " escapes buffer box " << buf_box);
  CCF_REQUIRE(buf.size() == static_cast<std::size_t>(buf_box.count()),
              "buffer has " << buf.size() << " elements, box needs " << buf_box.count());
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(piece.count()));
  for (Index r = piece.row_begin; r < piece.row_end; ++r) {
    const auto base = static_cast<std::size_t>((r - buf_box.row_begin) * buf_box.cols() +
                                               (piece.col_begin - buf_box.col_begin));
    out.insert(out.end(), buf.begin() + static_cast<std::ptrdiff_t>(base),
               buf.begin() + static_cast<std::ptrdiff_t>(base + static_cast<std::size_t>(piece.cols())));
  }
  return out;
}

/// Builds the wire frame for `piece` in one pass: a single exact-size
/// allocation and one strided copy out of the packed snapshot `buf`
/// (extent `buf_box`). Byte-identical to Writer::put_vector over the
/// packed piece, without the intermediate element vector.
template <typename T>
Payload pack_wire_payload(const Box& buf_box, const T* buf, const Box& piece) {
  static_assert(std::is_trivially_copyable_v<T>);
  CCF_REQUIRE(buf_box.contains(piece), "piece " << piece << " escapes buffer box " << buf_box);
  const auto count = static_cast<std::uint64_t>(piece.count());
  const std::size_t row_bytes = static_cast<std::size_t>(piece.cols()) * sizeof(T);
  transport::Writer w(transport::kLengthPrefixBytes + static_cast<std::size_t>(count) * sizeof(T));
  w.put<std::uint64_t>(count);
  for (Index r = piece.row_begin; r < piece.row_end; ++r) {
    const auto base = static_cast<std::size_t>((r - buf_box.row_begin) * buf_box.cols() +
                                               (piece.col_begin - buf_box.col_begin));
    w.put_raw(buf + base, row_bytes);
  }
  return w.take();
}

/// Sends the pieces of an exporter-side schedule
/// (RedistSchedule::for_exporter) from a packed snapshot.
/// `dst_procs[r]` is the global ProcId of importer rank r.
///
/// When `snapshot_frame` is a valid payload holding the snapshot's wire
/// frame ([u64 count][snapshot bytes], e.g. BufferPool::wire_payload), a
/// piece covering the full `snapshot_box` is sent by aliasing that frame —
/// zero copies, one refcounted buffer shared across all destinations.
/// `stats`, if non-null, accrues the copy accounting.
template <typename T>
void execute_sends_packed(ProcessContext& ctx, const RedistSchedule& sched,
                          const std::vector<ProcId>& dst_procs, Tag tag, const Box& snapshot_box,
                          const T* snapshot, TransferStats* stats = nullptr,
                          Payload snapshot_frame = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (snapshot_frame) {
    const std::size_t snapshot_bytes = static_cast<std::size_t>(snapshot_box.count()) * sizeof(T);
    CCF_REQUIRE(snapshot_frame.size() == transport::kLengthPrefixBytes + snapshot_bytes,
                "snapshot frame has " << snapshot_frame.size() << " bytes, box "
                                      << snapshot_box << " needs " << snapshot_bytes
                                      << " + prefix");
  }
  for (const auto& piece : sched.pieces()) {
    const auto piece_bytes = static_cast<std::uint64_t>(piece.box.count()) * sizeof(T);
    Payload payload;
    if (snapshot_frame && piece.box == snapshot_box) {
      payload = snapshot_frame;
      if (stats != nullptr) ++stats->sends_aliased;
    } else {
      payload = pack_wire_payload(snapshot_box, snapshot, piece.box);
      if (stats != nullptr) {
        ++stats->sends_packed;
        stats->bytes_pack_copied += piece_bytes;
      }
    }
    if (stats != nullptr) stats->bytes_delivered += piece_bytes;
    ctx.send(dst_procs.at(static_cast<std::size_t>(piece.dst_rank)), tag, std::move(payload));
  }
}

/// Vector-snapshot convenience overload (no aliasable frame).
template <typename T>
void execute_sends_packed(ProcessContext& ctx, const RedistSchedule& sched,
                          const std::vector<ProcId>& dst_procs, Tag tag, const Box& snapshot_box,
                          const std::vector<T>& snapshot, TransferStats* stats = nullptr) {
  CCF_REQUIRE(snapshot.size() == static_cast<std::size_t>(snapshot_box.count()),
              "snapshot has " << snapshot.size() << " elements, box needs "
                              << snapshot_box.count());
  execute_sends_packed(ctx, sched, dst_procs, tag, snapshot_box, snapshot.data(), stats);
}

/// Sends an exporter-side schedule's pieces directly from a live array.
template <typename T>
void execute_sends(ProcessContext& ctx, const RedistSchedule& sched,
                   const std::vector<ProcId>& dst_procs, Tag tag, const DistArray2D<T>& array) {
  execute_sends_packed(ctx, sched, dst_procs, tag, array.local_box(), array.data());
}

/// Receives the pieces of an importer-side schedule
/// (RedistSchedule::for_importer) and unpacks them into `array`.
/// `src_procs[r]` is the global ProcId of exporter rank r. Piece boxes are
/// in source coordinates; the schedule's destination offset translates
/// them into the destination's index space (0 for same-domain transfers).
/// Elements are copied straight from payload bytes into the local block —
/// one strided memcpy per row, no intermediate vector.
template <typename T>
void execute_recvs(ProcessContext& ctx, const RedistSchedule& sched,
                   const std::vector<ProcId>& src_procs, Tag tag, DistArray2D<T>& array) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const auto& piece : sched.pieces()) {
    runtime::Message m = ctx.recv(runtime::MatchSpec{
        src_procs.at(static_cast<std::size_t>(piece.src_rank)), tag});
    transport::Reader r(m.payload);
    const auto n = r.get<std::uint64_t>();
    CCF_CHECK(n == static_cast<std::uint64_t>(piece.box.count()),
              "piece payload has " << n << " elements, box " << piece.box << " needs "
                                   << piece.box.count());
    const Payload body = r.view(static_cast<std::size_t>(n) * sizeof(T));
    array.unpack_bytes(translate(piece.box, -sched.dst_row_offset(), -sched.dst_col_offset()),
                       body.data());
  }
}

}  // namespace ccf::dist
