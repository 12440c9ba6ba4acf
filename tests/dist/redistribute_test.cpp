// DistArray pack/unpack, schedule construction properties, and end-to-end
// MxN redistribution over both runtimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/buffer_pool.hpp"
#include "dist/dist_array.hpp"
#include "dist/redistribute.hpp"
#include "dist/schedule.hpp"
#include "runtime/cluster.hpp"
#include "runtime/scripted_context.hpp"
#include "transport/serialize.hpp"

namespace ccf::dist {
namespace {

double cell_value(Index r, Index c) { return static_cast<double>(r) * 10000 + static_cast<double>(c); }

TEST(DistArray, FillAndGlobalAccess) {
  const auto d = BlockDecomposition::make_grid(8, 8, 4);
  DistArray2D<double> a(d, 3);
  a.fill(cell_value);
  const Box b = a.local_box();
  EXPECT_DOUBLE_EQ(a.at(b.row_begin, b.col_begin), cell_value(b.row_begin, b.col_begin));
  EXPECT_DOUBLE_EQ(a.at(b.row_end - 1, b.col_end - 1),
                   cell_value(b.row_end - 1, b.col_end - 1));
}

TEST(DistArray, PackUnpackRoundTrip) {
  const auto d = BlockDecomposition::make_grid(10, 10, 1);
  DistArray2D<double> a(d, 0);
  a.fill(cell_value);
  const Box sub{2, 5, 3, 9};
  const auto packed = a.pack(sub);
  ASSERT_EQ(packed.size(), static_cast<std::size_t>(sub.count()));
  EXPECT_DOUBLE_EQ(packed[0], cell_value(2, 3));

  DistArray2D<double> b(d, 0);
  b.unpack(sub, packed);
  for (Index r = sub.row_begin; r < sub.row_end; ++r) {
    for (Index c = sub.col_begin; c < sub.col_end; ++c) {
      EXPECT_DOUBLE_EQ(b.at(r, c), cell_value(r, c));
    }
  }
}

TEST(DistArray, PackOutsideLocalBoxThrows) {
  const auto d = BlockDecomposition::make_grid(8, 8, 4);
  DistArray2D<double> a(d, 0);  // owns [0,4)x[0,4)
  EXPECT_THROW(a.pack(Box{0, 5, 0, 4}), util::InvalidArgument);
  EXPECT_THROW(a.unpack(Box{0, 4, 0, 5}, std::vector<double>(20)), util::InvalidArgument);
  EXPECT_THROW(a.unpack(Box{0, 2, 0, 2}, std::vector<double>(3)), util::InvalidArgument);
}

TEST(PackFromPacked, ExtractsSubBox) {
  const Box buf_box{10, 14, 20, 25};  // 4x5
  std::vector<double> buf;
  for (Index r = buf_box.row_begin; r < buf_box.row_end; ++r) {
    for (Index c = buf_box.col_begin; c < buf_box.col_end; ++c) buf.push_back(cell_value(r, c));
  }
  const Box piece{11, 13, 22, 24};
  const auto out = pack_from_packed(buf_box, buf, piece);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], cell_value(11, 22));
  EXPECT_DOUBLE_EQ(out[3], cell_value(12, 23));
  EXPECT_THROW(pack_from_packed(buf_box, buf, Box{9, 13, 22, 24}), util::InvalidArgument);
}

/// Every exporter rank's send pieces, concatenated by rank.
std::vector<TransferPiece> all_sends(const BlockDecomposition& src, const BlockDecomposition& dst,
                                     const Box& region) {
  std::vector<TransferPiece> out;
  for (int r = 0; r < src.nprocs(); ++r) {
    const auto sched = RedistSchedule::for_exporter(r, src, dst, region);
    out.insert(out.end(), sched.pieces().begin(), sched.pieces().end());
  }
  return out;
}

/// Every importer rank's receive pieces, concatenated by rank.
std::vector<TransferPiece> all_recvs(const BlockDecomposition& src, const BlockDecomposition& dst,
                                     const Box& region) {
  std::vector<TransferPiece> out;
  for (int r = 0; r < dst.nprocs(); ++r) {
    const auto sched = RedistSchedule::for_importer(r, src, dst, region);
    out.insert(out.end(), sched.pieces().begin(), sched.pieces().end());
  }
  return out;
}

Index total_count(const std::vector<TransferPiece>& pieces) {
  Index total = 0;
  for (const auto& p : pieces) total += p.box.count();
  return total;
}

TEST(Schedule, CoversRegionExactly) {
  const auto src = BlockDecomposition::make_grid(64, 64, 4);
  const auto dst = BlockDecomposition::make_grid(64, 64, 9);
  const Box region{0, 64, 0, 64};
  // The union over all ranks of either side covers the region once.
  for (const auto& pieces : {all_sends(src, dst, region), all_recvs(src, dst, region)}) {
    EXPECT_EQ(total_count(pieces), region.count());
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      for (std::size_t j = i + 1; j < pieces.size(); ++j) {
        EXPECT_FALSE(overlaps(pieces[i].box, pieces[j].box));
      }
    }
  }
}

TEST(Schedule, SubRegionTransfers) {
  const auto src = BlockDecomposition::make_grid(100, 100, 4);
  const auto dst = BlockDecomposition::make_grid(100, 100, 4);
  const Box region{25, 75, 25, 75};
  for (const auto& pieces : {all_sends(src, dst, region), all_recvs(src, dst, region)}) {
    EXPECT_EQ(total_count(pieces), region.count());
    for (const auto& p : pieces) EXPECT_TRUE(region.contains(p.box));
  }
  // Each rank's schedule covers exactly its part of the region.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(RedistSchedule::for_exporter(r, src, dst, region).total_elements(),
              intersect(src.box_of(r), region).count());
    EXPECT_EQ(RedistSchedule::for_importer(r, src, dst, region).total_elements(),
              intersect(dst.box_of(r), region).count());
  }
}

TEST(Schedule, IdenticalLayoutsYieldLocalPieces) {
  const auto d = BlockDecomposition::make_grid(64, 64, 4);
  const Box region{0, 64, 0, 64};
  for (int r = 0; r < 4; ++r) {
    const auto sends = RedistSchedule::for_exporter(r, d, d, region).pieces();
    const auto recvs = RedistSchedule::for_importer(r, d, d, region).pieces();
    ASSERT_EQ(sends.size(), 1u);
    EXPECT_EQ(sends[0], (TransferPiece{r, r, d.box_of(r)}));
    EXPECT_EQ(recvs, sends);
  }
}

TEST(Schedule, SendsRecvsPartitionPieces) {
  // Both sides derive the same pieces: the exporters' sends and the
  // importers' receives are one set, split by rank two ways.
  const auto src = BlockDecomposition::make_grid(64, 64, 4);
  const auto dst = BlockDecomposition::make_grid(64, 64, 16);
  auto sends = all_sends(src, dst, Box{0, 64, 0, 64});
  auto recvs = all_recvs(src, dst, Box{0, 64, 0, 64});
  EXPECT_EQ(sends.size(), 16u);
  const auto by_ranks = [](const TransferPiece& a, const TransferPiece& b) {
    return std::pair(a.src_rank, a.dst_rank) < std::pair(b.src_rank, b.dst_rank);
  };
  std::sort(sends.begin(), sends.end(), by_ranks);
  std::sort(recvs.begin(), recvs.end(), by_ranks);
  EXPECT_EQ(sends, recvs);
}

TEST(Schedule, RejectsBadRegions) {
  const auto d = BlockDecomposition::make_grid(16, 16, 4);
  const auto small = BlockDecomposition::make_grid(8, 8, 4);
  EXPECT_THROW(RedistSchedule::for_exporter(0, d, d, Box{}), util::InvalidArgument);
  EXPECT_THROW(RedistSchedule::for_importer(0, d, d, Box{}), util::InvalidArgument);
  // Escapes the exporter domain.
  EXPECT_THROW(RedistSchedule::for_exporter(0, d, d, Box{0, 17, 0, 16}), util::InvalidArgument);
  EXPECT_THROW(RedistSchedule::for_importer(0, d, d, Box{0, 17, 0, 16}), util::InvalidArgument);
  // Escapes the importer domain translated to its window at (4, 4).
  EXPECT_THROW(RedistSchedule::for_exporter(0, d, small, Box{2, 10, 4, 12}, 4, 4),
               util::InvalidArgument);
  EXPECT_THROW(RedistSchedule::for_importer(0, d, small, Box{2, 10, 4, 12}, 4, 4),
               util::InvalidArgument);
  // Ranks outside either grid.
  EXPECT_THROW(RedistSchedule::for_exporter(4, d, d, Box{0, 16, 0, 16}), util::InvalidArgument);
  EXPECT_THROW(RedistSchedule::for_importer(4, d, d, Box{0, 16, 0, 16}), util::InvalidArgument);
}

// Moves `region` single-threaded through ScriptedContexts: every source
// rank executes its own send schedule, then the resulting messages are fed
// to every destination rank's inbox and received with that rank's receive
// schedule. Returns the filled dst arrays.
std::vector<DistArray2D<double>> run_scripted(const BlockDecomposition& src_decomp,
                                              const BlockDecomposition& dst_decomp,
                                              const Box& region, Index dst_row_offset,
                                              Index dst_col_offset,
                                              const std::vector<double>& fill_src,
                                              TransferStats* stats = nullptr) {
  std::vector<ProcId> src_ids, dst_ids;
  for (int r = 0; r < src_decomp.nprocs(); ++r) src_ids.push_back(r);
  for (int r = 0; r < dst_decomp.nprocs(); ++r) dst_ids.push_back(100 + r);

  std::vector<runtime::Message> wire;
  for (int r = 0; r < src_decomp.nprocs(); ++r) {
    runtime::ScriptedContext ctx(src_ids[static_cast<std::size_t>(r)]);
    DistArray2D<double> a(src_decomp, r);
    std::size_t i = 0;
    a.fill([&](Index gr, Index gc) {
      return fill_src[i++ % fill_src.size()] + static_cast<double>(gr) * 1000 +
             static_cast<double>(gc);
    });
    const auto sched = RedistSchedule::for_exporter(r, src_decomp, dst_decomp, region,
                                                    dst_row_offset, dst_col_offset);
    execute_sends_packed(ctx, sched, dst_ids, 77, a.local_box(), a.data(), stats);
    for (auto& m : ctx.sent()) wire.push_back(m);
  }

  std::vector<DistArray2D<double>> out;
  for (int r = 0; r < dst_decomp.nprocs(); ++r) {
    runtime::ScriptedContext ctx(dst_ids[static_cast<std::size_t>(r)]);
    for (const auto& m : wire) {
      if (m.dst == dst_ids[static_cast<std::size_t>(r)]) ctx.push_inbox(m);
    }
    out.emplace_back(dst_decomp, r);
    const auto sched = RedistSchedule::for_importer(r, src_decomp, dst_decomp, region,
                                                    dst_row_offset, dst_col_offset);
    execute_recvs(ctx, sched, src_ids, 77, out.back());
  }
  return out;
}

TEST(RedistWindowed, RoundTripsWithNonzeroDstOffsets) {
  // Source domain 20x20 on 2 procs; the window [4,12)x[6,14) lands in a
  // destination domain 8x8 on 4 procs: dst (i, j) holds src (i+4, j+6).
  const auto src_decomp = BlockDecomposition::make_grid(20, 20, 2);
  const auto dst_decomp = BlockDecomposition::make_grid(8, 8, 4);
  const Box region{4, 12, 6, 14};
  auto out = run_scripted(src_decomp, dst_decomp, region, /*dst_row_offset=*/4,
                          /*dst_col_offset=*/6, {0.5});
  for (int r = 0; r < dst_decomp.nprocs(); ++r) {
    const Box b = out[static_cast<std::size_t>(r)].local_box();
    for (Index i = b.row_begin; i < b.row_end; ++i) {
      for (Index j = b.col_begin; j < b.col_end; ++j) {
        EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)].at(i, j),
                         0.5 + static_cast<double>(i + 4) * 1000 + static_cast<double>(j + 6))
            << "dst (" << i << "," << j << ")";
      }
    }
  }
}

TEST(RedistWindowed, SingleRowAndSingleColumnPieces) {
  // A 1-row window and a 1-column window exercise the degenerate strided
  // paths (one memcpy per piece row; row length 1 element).
  const auto src_decomp = BlockDecomposition::make_grid(16, 16, 4);
  {
    const auto dst_decomp = BlockDecomposition::make_grid(1, 16, 2);
    auto out = run_scripted(src_decomp, dst_decomp, Box{5, 6, 0, 16}, 5, 0, {0.25});
    for (int r = 0; r < 2; ++r) {
      const Box b = out[static_cast<std::size_t>(r)].local_box();
      for (Index j = b.col_begin; j < b.col_end; ++j) {
        EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)].at(0, j),
                         0.25 + 5000.0 + static_cast<double>(j));
      }
    }
  }
  {
    // One importer owning the whole 16x1 strip: each exporter column-piece
    // is a single-element-per-row strided copy.
    const auto dst_decomp = BlockDecomposition::make_grid(16, 1, 1);
    auto out = run_scripted(src_decomp, dst_decomp, Box{0, 16, 9, 10}, 0, 9, {0.75});
    for (Index i = 0; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(out[0].at(i, 0), 0.75 + static_cast<double>(i) * 1000 + 9.0);
    }
  }
}

TEST(RedistZeroCopy, FullBoxSendAliasesSnapshotFrame) {
  // 1 exporter -> 1 importer over identical layouts: the single scheduled
  // piece covers the exporter's whole box, so the send must alias the
  // pooled wire frame (same data pointer, zero pack copies) and still be
  // byte-identical to what the packed path would produce.
  const auto decomp = BlockDecomposition::make_grid(8, 8, 1);
  const auto sends = RedistSchedule::for_exporter(0, decomp, decomp, Box{0, 8, 0, 8});
  const auto recvs = RedistSchedule::for_importer(0, decomp, decomp, Box{0, 8, 0, 8});

  DistArray2D<double> a(decomp, 0);
  a.fill(cell_value);

  runtime::ScriptedContext ctx(0);
  core::BufferPool pool;
  pool.store(1.0, a.data(), a.local_count(), 0x1, ctx);
  const transport::Payload frame = pool.wire_payload(1.0);

  TransferStats stats;
  execute_sends_packed(ctx, sends, {100}, 77, a.local_box(), pool.snapshot(1.0).data(), &stats,
                       frame);
  ASSERT_EQ(ctx.sent().size(), 1u);
  const runtime::Message& sent = ctx.sent()[0];

  EXPECT_EQ(sent.payload.data(), frame.data()) << "full-box send must alias the pooled frame";
  EXPECT_EQ(stats.sends_aliased, 1u);
  EXPECT_EQ(stats.sends_packed, 0u);
  EXPECT_EQ(stats.bytes_pack_copied, 0u);
  EXPECT_EQ(stats.bytes_delivered, 64 * sizeof(double));
  EXPECT_DOUBLE_EQ(stats.copies_per_delivered_byte(), 0.0);

  // Byte-for-byte identical to the packed path (same wire format).
  const transport::Payload packed =
      pack_wire_payload(a.local_box(), a.data(), a.local_box());
  ASSERT_EQ(sent.payload.size(), packed.size());
  EXPECT_EQ(std::memcmp(sent.payload.data(), packed.data(), packed.size()), 0);

  // And the importer unpacks it exactly as before.
  runtime::ScriptedContext rctx(100);
  rctx.push_inbox(sent);
  DistArray2D<double> b(decomp, 0);
  execute_recvs(rctx, recvs, {0}, 77, b);
  for (Index i = 0; i < 8; ++i) {
    for (Index j = 0; j < 8; ++j) EXPECT_DOUBLE_EQ(b.at(i, j), cell_value(i, j));
  }
}

TEST(RedistZeroCopy, PartialPiecesCostOneCopyPerByte) {
  // 1 exporter feeding 4 importers: every piece is a strict sub-box, so
  // each is packed exactly once (1 extra copy per delivered byte).
  const auto src_decomp = BlockDecomposition::make_grid(8, 8, 1);
  const auto dst_decomp = BlockDecomposition::make_grid(8, 8, 4);
  TransferStats stats;
  auto out = run_scripted(src_decomp, dst_decomp, Box{0, 8, 0, 8}, 0, 0, {0.0}, &stats);
  EXPECT_EQ(stats.sends_aliased, 0u);
  EXPECT_EQ(stats.sends_packed, 4u);
  EXPECT_EQ(stats.bytes_delivered, 64 * sizeof(double));
  EXPECT_EQ(stats.bytes_pack_copied, stats.bytes_delivered);
  EXPECT_DOUBLE_EQ(stats.copies_per_delivered_byte(), 1.0);
}

struct RedistParam {
  runtime::ExecutionMode mode;
  int src_procs;
  int dst_procs;
  Index rows, cols;
};

class RedistEndToEnd : public ::testing::TestWithParam<RedistParam> {};

TEST_P(RedistEndToEnd, MovesAllDataCorrectly) {
  const auto param = GetParam();
  const auto src_decomp = BlockDecomposition::make_grid(param.rows, param.cols, param.src_procs);
  const auto dst_decomp = BlockDecomposition::make_grid(param.rows, param.cols, param.dst_procs);
  const Box region{0, param.rows, 0, param.cols};

  runtime::ClusterOptions options;
  options.mode = param.mode;
  auto cluster = runtime::make_cluster(options);

  std::vector<ProcId> src_ids, dst_ids;
  for (int r = 0; r < param.src_procs; ++r) src_ids.push_back(r);
  for (int r = 0; r < param.dst_procs; ++r) dst_ids.push_back(100 + r);

  std::vector<int> ok(static_cast<std::size_t>(param.dst_procs), 0);
  for (int r = 0; r < param.src_procs; ++r) {
    cluster->add_process(src_ids[static_cast<std::size_t>(r)],
                         [&, r](runtime::ProcessContext& ctx) {
                           DistArray2D<double> a(src_decomp, r);
                           a.fill(cell_value);
                           execute_sends(ctx,
                                         RedistSchedule::for_exporter(r, src_decomp,
                                                                      dst_decomp, region),
                                         dst_ids, 77, a);
                         });
  }
  for (int r = 0; r < param.dst_procs; ++r) {
    cluster->add_process(dst_ids[static_cast<std::size_t>(r)],
                         [&, r](runtime::ProcessContext& ctx) {
                           DistArray2D<double> a(dst_decomp, r);
                           execute_recvs(ctx,
                                         RedistSchedule::for_importer(r, src_decomp,
                                                                      dst_decomp, region),
                                         src_ids, 77, a);
                           const Box b = a.local_box();
                           bool good = true;
                           for (Index i = b.row_begin; i < b.row_end; ++i) {
                             for (Index j = b.col_begin; j < b.col_end; ++j) {
                               if (a.at(i, j) != cell_value(i, j)) good = false;
                             }
                           }
                           ok[static_cast<std::size_t>(r)] = good ? 1 : 0;
                         });
  }
  cluster->run();
  for (int r = 0; r < param.dst_procs; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << "dst rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedistEndToEnd,
    ::testing::Values(
        RedistParam{runtime::ExecutionMode::VirtualTime, 4, 4, 32, 32},
        RedistParam{runtime::ExecutionMode::VirtualTime, 4, 16, 32, 32},
        RedistParam{runtime::ExecutionMode::VirtualTime, 9, 4, 33, 31},
        RedistParam{runtime::ExecutionMode::VirtualTime, 1, 8, 16, 64},
        RedistParam{runtime::ExecutionMode::VirtualTime, 8, 1, 64, 16},
        RedistParam{runtime::ExecutionMode::RealThreads, 4, 16, 32, 32},
        RedistParam{runtime::ExecutionMode::RealThreads, 6, 3, 30, 20}),
    [](const ::testing::TestParamInfo<RedistParam>& p) {
      return std::string(p.param.mode == runtime::ExecutionMode::RealThreads ? "Threads"
                                                                             : "Virtual") +
             "_" + std::to_string(p.param.src_procs) + "to" +
             std::to_string(p.param.dst_procs) + "_" + std::to_string(p.param.rows) + "x" +
             std::to_string(p.param.cols);
    });

}  // namespace
}  // namespace ccf::dist
