// DownFanout, the one downward router of every control-tree node
// (docs/PROTOCOL.md, "Hierarchical representatives"), driven by a
// scripted context: plain messages to worker children, TreeDown frames to
// sub-rep children, the flush_count rule, dropped foreign ranks, and
// direct service for re-parented ranks.
#include <gtest/gtest.h>

#include "core/fanout.hpp"
#include "runtime/scripted_context.hpp"

namespace ccf::core {
namespace {

using runtime::Message;
using runtime::ScriptedContext;

constexpr transport::Tag kTag = kTagProcForward;

ProgramLayout layout_of(int nprocs, int fanin, int flush_count = 0) {
  ProgramSpec spec{"E", "h", "/e", nprocs, {}};
  spec.rep_fanin = fanin;
  spec.tree_flush_count = flush_count;
  return ProgramLayout(spec, 0);
}

transport::Payload payload_of(std::uint32_t v) {
  transport::Writer w;
  w.put(v);
  return w.take();
}

std::vector<ProcId> destinations(const std::vector<Message>& sent) {
  std::vector<ProcId> out;
  for (const Message& m : sent) out.push_back(m.dst);
  return out;
}

TEST(DownFanout, DepthZeroRootSendsPlainMessagesToEveryWorker) {
  const ProgramLayout pl = layout_of(4, 0);
  ASSERT_EQ(pl.depth(), 0);
  ScriptedContext ctx(pl.rep);
  DownFanout down(ctx, pl, pl.root());
  down.bcast(kTag, payload_of(1));
  EXPECT_EQ(destinations(ctx.sent()), (std::vector<ProcId>{0, 1, 2, 3}));
  ctx.sent().clear();
  down.to_rank(2, kTag, payload_of(2));
  EXPECT_EQ(destinations(ctx.sent()), (std::vector<ProcId>{2}));
  down.flush();
  EXPECT_EQ(ctx.sent().size(), 1u);
  EXPECT_TRUE(ctx.sent_with_tag(kTagTreeDown).empty());
  EXPECT_EQ(down.counts().plain, 5u);
  EXPECT_EQ(down.counts().frames, 0u);
}

TEST(DownFanout, TreeRootHoldsOneFramePerTopSubRepUntilFlush) {
  // 8 ranks at fan-in 2: 4 leaf sub-reps under 2 top sub-reps.
  const ProgramLayout pl = layout_of(8, 2);
  ASSERT_EQ(pl.depth(), 2);
  ScriptedContext ctx(pl.rep);
  DownFanout down(ctx, pl, pl.root());
  down.bcast(kTag, payload_of(1));
  down.to_rank(5, kTag, payload_of(2));
  EXPECT_TRUE(ctx.sent().empty());
  down.flush();
  const auto frames = ctx.sent_with_tag(kTagTreeDown);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].dst, pl.id(TreeNode{2, 0}));
  EXPECT_EQ(frames[1].dst, pl.id(TreeNode{2, 1}));
  const auto left = decode_frame(frames[0].payload);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].rank, kFrameBroadcast);
  const auto right = decode_frame(frames[1].payload);
  ASSERT_EQ(right.size(), 2u);
  EXPECT_EQ(right[0].rank, kFrameBroadcast);
  EXPECT_EQ(right[1].rank, 5);
  EXPECT_EQ(down.counts().frames, 2u);
  EXPECT_EQ(down.counts().frame_entries, 3u);
}

TEST(DownFanout, FlushCountShipsAFrameAtThreshold) {
  const ProgramLayout pl = layout_of(8, 2, /*flush_count=*/2);
  ScriptedContext ctx(pl.rep);
  DownFanout down(ctx, pl, pl.root());
  down.to_rank(0, kTag, payload_of(1));
  EXPECT_TRUE(ctx.sent().empty());
  down.to_rank(1, kTag, payload_of(2));
  ASSERT_EQ(ctx.sent().size(), 1u);
  EXPECT_EQ(ctx.sent()[0].dst, pl.id(TreeNode{2, 0}));
  EXPECT_EQ(decode_frame(ctx.sent()[0].payload).size(), 2u);
  down.to_rank(6, kTag, payload_of(3));
  EXPECT_EQ(ctx.sent().size(), 1u);  // one entry for the other top sub-rep waits
  down.flush();
  ASSERT_EQ(ctx.sent().size(), 2u);
  EXPECT_EQ(ctx.sent()[1].dst, pl.id(TreeNode{2, 1}));
}

TEST(DownFanout, SubRepDropsRanksOutsideItsSubtree) {
  const ProgramLayout pl = layout_of(8, 2);
  // Leaf sub-rep (1, 0) serves ranks 0 and 1 with plain messages.
  ScriptedContext leaf_ctx(pl.id(TreeNode{1, 0}));
  DownFanout leaf(leaf_ctx, pl, TreeNode{1, 0});
  leaf.to_rank(5, kTag, payload_of(1));
  leaf.to_rank(1, kTag, payload_of(2));
  leaf.bcast(kTag, payload_of(3));
  EXPECT_EQ(destinations(leaf_ctx.sent()), (std::vector<ProcId>{1, 0, 1}));

  // Interior sub-rep (2, 0) serves ranks 0..3 through leaves (1, 0), (1, 1).
  ScriptedContext mid_ctx(pl.id(TreeNode{2, 0}));
  DownFanout mid(mid_ctx, pl, TreeNode{2, 0});
  mid.to_rank(6, kTag, payload_of(1));
  mid.to_rank(-3, kTag, payload_of(1));
  mid.to_rank(3, kTag, payload_of(2));
  mid.flush();
  ASSERT_EQ(mid_ctx.sent().size(), 1u);
  EXPECT_EQ(mid_ctx.sent()[0].dst, pl.id(TreeNode{1, 1}));
  const auto entries = decode_frame(mid_ctx.sent()[0].payload);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rank, 3);
}

TEST(DownFanout, DirectRankGetsPlainMessagesAndBroadcastsBothWays) {
  const ProgramLayout pl = layout_of(8, 2);
  ScriptedContext ctx(pl.rep);
  DownFanout down(ctx, pl, pl.root());
  down.mark_direct(3);
  down.to_rank(3, kTag, payload_of(1));
  ASSERT_EQ(ctx.sent().size(), 1u);
  EXPECT_EQ(ctx.sent()[0].dst, pl.proc(3));
  EXPECT_EQ(ctx.sent()[0].tag, kTag);
  down.bcast(kTag, payload_of(2));
  ASSERT_EQ(ctx.sent().size(), 2u);  // the direct copy goes out at once
  EXPECT_EQ(ctx.sent()[1].dst, pl.proc(3));
  down.flush();
  const auto frames = ctx.sent_with_tag(kTagTreeDown);
  ASSERT_EQ(frames.size(), 2u);  // ... and the tree still carries it
  EXPECT_EQ(decode_frame(frames[0].payload)[0].rank, kFrameBroadcast);

  // In a depth-0 tree every worker is already a direct child: marking one
  // must not double its broadcasts.
  const ProgramLayout flat = layout_of(4, 0);
  ScriptedContext flat_ctx(flat.rep);
  DownFanout flat_down(flat_ctx, flat, flat.root());
  flat_down.mark_direct(1);
  flat_down.bcast(kTag, payload_of(3));
  EXPECT_EQ(destinations(flat_ctx.sent()), (std::vector<ProcId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace ccf::core
