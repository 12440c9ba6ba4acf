// Control-tree building blocks: layout arithmetic (fan-in tree shape, id
// allocation, rank->child lookup) and the batched control-frame codec
// (docs/PROTOCOL.md, "Hierarchical representatives").
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/layout.hpp"
#include "core/protocol.hpp"

namespace ccf::core {
namespace {

ProgramSpec spec_with_tree(const std::string& name, int nprocs, int fanin, int shards) {
  ProgramSpec spec{name, "h", "/bin/" + name, nprocs, {}};
  spec.rep_fanin = fanin;
  spec.rep_shards = shards;
  return spec;
}

ProgramLayout tree_of(int nprocs, int fanin) {
  return ProgramLayout(spec_with_tree("E", nprocs, fanin, 1), 0);
}

TEST(TreeBuildTest, FlatWhenFaninOffOrRanksFit) {
  EXPECT_EQ(tree_of(64, 0).depth(), 0);
  EXPECT_EQ(tree_of(64, 1).depth(), 0);
  // Every rank attaches directly to the rep when nprocs <= fanin.
  EXPECT_EQ(tree_of(4, 4).depth(), 0);
  EXPECT_EQ(tree_of(1, 2).depth(), 0);
  const ProgramLayout flat = tree_of(4, 4);
  EXPECT_EQ(flat.subrep_count(), 0);
  EXPECT_TRUE(flat.is_root(flat.parent(TreeNode{0, 3})));
  EXPECT_EQ(flat.children(flat.root()).end, 4);
}

TEST(TreeBuildTest, EveryNodeRespectsFanin) {
  for (int nprocs : {5, 8, 17, 64, 100, 257}) {
    for (int fanin : {2, 3, 4, 8}) {
      const ProgramLayout pl = tree_of(nprocs, fanin);
      if (nprocs <= fanin) {
        EXPECT_EQ(pl.depth(), 0);
        continue;
      }
      ASSERT_GT(pl.depth(), 0);
      for (int level = 1; level <= pl.depth() + 1; ++level) {
        for (int i = 0; i < pl.nodes_at(level); ++i) {
          const auto kids = pl.children(TreeNode{level, i});
          EXPECT_LE(kids.end - kids.begin, fanin);
          EXPECT_LT(kids.begin, kids.end);
        }
      }
      // The rep itself must end up with at most `fanin` children.
      EXPECT_LE(pl.nodes_at(pl.depth()), fanin);
    }
  }
}

TEST(TreeBuildTest, LeavesPartitionTheRanks) {
  const ProgramLayout pl = tree_of(23, 3);
  std::set<int> seen;
  for (int i = 0; i < pl.nodes_at(1); ++i) {
    const auto kids = pl.children(TreeNode{1, i});
    for (int rank = kids.begin; rank < kids.end; ++rank) {
      EXPECT_TRUE(seen.insert(rank).second) << "rank " << rank << " in two leaves";
    }
  }
  EXPECT_EQ(seen.size(), 23u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 22);
}

TEST(TreeBuildTest, InteriorLinksAreConsistent) {
  const ProgramLayout pl = tree_of(64, 4);
  for (int level = 2; level <= pl.depth() + 1; ++level) {
    for (int i = 0; i < pl.nodes_at(level); ++i) {
      const TreeNode node{level, i};
      const auto kids = pl.children(node);
      for (int c = kids.begin; c < kids.end; ++c) {
        EXPECT_EQ(pl.parent(TreeNode{level - 1, c}), node);
      }
    }
  }
}

TEST(TreeLayoutTest, DefaultAllocationIsPreTree) {
  Config config;
  config.add_program(ProgramSpec{"A", "h", "/a", 2, {}});
  config.add_program(ProgramSpec{"B", "h", "/b", 1, {}});
  DeploymentLayout layout(config);
  const ProgramLayout& a = layout.program("A");
  EXPECT_EQ(a.first, 0);
  EXPECT_EQ(a.rep, 2);
  EXPECT_EQ(a.shards, 1);
  EXPECT_EQ(a.depth(), 0);
  EXPECT_EQ(a.subrep_count(), 0);
  EXPECT_TRUE(a.is_root(a.parent(TreeNode{0, 0})));
  EXPECT_EQ(layout.program("B").first, 3);
  EXPECT_EQ(layout.program("B").rep, 4);
  EXPECT_EQ(layout.total_processes(), 5);
}

TEST(TreeLayoutTest, ShardsAndSubRepsGetContiguousIds) {
  Config config;
  config.add_program(spec_with_tree("E", 8, 2, 2));
  config.add_program(ProgramSpec{"I", "h", "/i", 1, {}});
  DeploymentLayout layout(config);
  const ProgramLayout& e = layout.program("E");
  EXPECT_EQ(e.first, 0);
  EXPECT_EQ(e.rep, 8);
  EXPECT_EQ(e.shard_id(1), 9);
  EXPECT_EQ(e.subrep_first, 10);
  // 8 ranks at fan-in 2: 4 leaf nodes contracting to 2 top nodes.
  ASSERT_EQ(e.subrep_count(), 6);
  EXPECT_EQ(e.depth(), 2);
  EXPECT_EQ(e.nodes_at(e.depth()), 2);
  // Leaf level first, then level by level.
  EXPECT_EQ(e.id(TreeNode{1, 0}), 10);
  EXPECT_EQ(e.id(TreeNode{2, 1}), 15);
  EXPECT_EQ(e.subrep_node(5), (TreeNode{2, 1}));
  const ProgramLayout& i = layout.program("I");
  EXPECT_EQ(i.first, 16);
  EXPECT_EQ(i.rep, 17);
}

TEST(TreeLayoutTest, ParentAndSubtreeAgree) {
  Config config;
  config.add_program(spec_with_tree("E", 30, 4, 1));
  DeploymentLayout layout(config);
  const ProgramLayout& pl = layout.program("E");
  for (int rank = 0; rank < pl.nprocs; ++rank) {
    const TreeNode leaf = pl.parent(TreeNode{0, rank});
    ASSERT_EQ(leaf.level, 1);
    EXPECT_EQ(pl.child_toward(leaf, rank), rank);
  }
  // Top-node subtrees partition all ranks.
  for (int rank = 0; rank < pl.nprocs; ++rank) {
    int owners = 0;
    for (int top = 0; top < pl.nodes_at(pl.depth()); ++top) {
      owners += pl.child_toward(TreeNode{pl.depth(), top}, rank) >= 0 ? 1 : 0;
    }
    EXPECT_EQ(owners, 1) << "rank " << rank;
  }
}

// Property sweep over widths, fan-ins and shard counts: ids are
// contiguous and in id order (workers, shards, then sub-reps leaf level
// first), every worker's parent chain reaches the root in depth()+1 steps,
// and child_toward agrees with parent along the chain while a sibling
// never claims a rank of another subtree.
TEST(TreeLayoutTest, PropertySweep) {
  for (int nprocs = 1; nprocs <= 300; ++nprocs) {
    for (int fanin : {0, 2, 3, 4, 8}) {
      for (int shards : {1, 2}) {
        Config config;
        config.add_program(spec_with_tree("E", nprocs, fanin, shards));
        config.add_program(ProgramSpec{"I", "h", "/i", 1, {}});
        const DeploymentLayout layout(config);
        const ProgramLayout& pl = layout.program("E");
        const std::string label = "nprocs=" + std::to_string(nprocs) +
                                  " fanin=" + std::to_string(fanin) +
                                  " shards=" + std::to_string(shards);

        std::vector<ProcId> ids;
        for (int r = 0; r < nprocs; ++r) ids.push_back(pl.proc(r));
        for (int s = 0; s < shards; ++s) ids.push_back(pl.shard_id(s));
        int last_level = 1;
        for (int k = 0; k < pl.subrep_count(); ++k) {
          const TreeNode n = pl.subrep_node(k);
          ASSERT_GE(n.level, last_level) << label;
          last_level = n.level;
          ids.push_back(pl.id(n));
        }
        for (std::size_t k = 0; k < ids.size(); ++k) {
          ASSERT_EQ(ids[k], static_cast<ProcId>(k)) << label;
        }
        ASSERT_EQ(layout.program("I").first, static_cast<ProcId>(ids.size())) << label;

        for (int rank = 0; rank < nprocs; ++rank) {
          TreeNode n{0, rank};
          int steps = 0;
          while (!pl.is_root(n)) {
            const TreeNode up = pl.parent(n);
            ++steps;
            ASSERT_EQ(pl.child_toward(up, rank), n.index) << label << " rank " << rank;
            if (!pl.is_root(up) && up.index > 0) {
              EXPECT_EQ(pl.child_toward(TreeNode{up.level, up.index - 1}, rank), -1)
                  << label << " rank " << rank;
            }
            n = up;
          }
          ASSERT_EQ(steps, pl.depth() + 1) << label << " rank " << rank;
        }
        EXPECT_EQ(pl.child_toward(pl.root(), nprocs), -1) << label;
        EXPECT_EQ(pl.child_toward(pl.root(), -1), -1) << label;
      }
    }
  }
}

TEST(TreeLayoutTest, ControlTargetFollowsShardOwnership) {
  Config config;
  config.add_program(spec_with_tree("E", 4, 0, 3));
  DeploymentLayout layout(config);
  const ProgramLayout& pl = layout.program("E");
  EXPECT_EQ(pl.control_target(0), pl.rep);
  EXPECT_EQ(pl.control_target(4), pl.rep + 1);
  EXPECT_EQ(pl.control_target(5), pl.rep + 2);
}

TEST(TreeConfigTest, ProgramLineTokensParse) {
  const Config config = Config::parse_string(
      "E host /bin/e 16 fanin=4 shards=2\n"
      "I host /bin/i 4 extra_flag\n"
      "#\n"
      "E.r I.r REGL 0.5\n");
  EXPECT_EQ(config.program("E").rep_fanin, 4);
  EXPECT_EQ(config.program("E").rep_shards, 2);
  EXPECT_EQ(config.program("I").rep_fanin, 0);
  EXPECT_EQ(config.program("I").rep_shards, 1);
  ASSERT_EQ(config.program("I").extra_args.size(), 1u);
  EXPECT_EQ(config.program("I").extra_args[0], "extra_flag");
}

TEST(TreeConfigTest, RejectsDegenerateFanin) {
  Config config;
  EXPECT_THROW(config.add_program(spec_with_tree("E", 8, 1, 1)), util::InvalidArgument);
  EXPECT_THROW(config.add_program(spec_with_tree("E", 8, 0, 0)), util::InvalidArgument);
  EXPECT_THROW(Config::parse_string("E h /e 8 fanin=x\n#\n"), util::InvalidArgument);
}

TEST(FrameCodecTest, RoundTripsEntries) {
  std::vector<FrameEntry> entries;
  const transport::Payload p1 = [] {
    transport::Writer w;
    w.put<std::uint32_t>(42);
    w.put<double>(3.5);
    return w.take();
  }();
  entries.push_back(FrameEntry{7, kTagImportRequest, p1});
  entries.push_back(FrameEntry{kFrameBroadcast, kTagRepHeartbeat, transport::empty_payload()});
  entries.push_back(FrameEntry{0, kTagMetaAck, transport::empty_payload()});

  const transport::Payload wire = encode_frame(entries);
  const auto decoded = decode_frame(wire);
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].rank, entries[i].rank);
    EXPECT_EQ(decoded[i].tag, entries[i].tag);
    ASSERT_EQ(decoded[i].payload.size(), entries[i].payload.size());
    EXPECT_TRUE(std::equal(decoded[i].payload.begin(), decoded[i].payload.end(),
                           entries[i].payload.begin()));
  }
}

TEST(FrameCodecTest, EmptyFrameRoundTrips) {
  EXPECT_TRUE(decode_frame(encode_frame({})).empty());
}

TEST(FrameCodecTest, RejectsTruncatedFrames) {
  std::vector<FrameEntry> entries{FrameEntry{1, kTagImportRequest, transport::empty_payload()}};
  const transport::Payload wire = encode_frame(entries);
  EXPECT_THROW(decode_frame(wire.slice(0, wire.size() - 1)), util::Error);
}

}  // namespace
}  // namespace ccf::core
