// End-to-end equivalence of the hierarchical representative layer
// (docs/PROTOCOL.md): the same coupled workload must produce identical
// collective answers and imported data with the flat rep (fanin=0, the
// pre-tree wire protocol), with an aggregation tree of any fan-in, and
// with a sharded rep — while the tree actually batches (frames flow) and
// caps the rep's per-wave inbound message count by the fan-in.
#include <gtest/gtest.h>

#include <vector>

#include "core/system.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;
using runtime::ClusterOptions;
using runtime::ProcessContext;

struct RunOutcome {
  std::vector<AnswerMsg> answers;       ///< rep's determined answers ("E")
  std::vector<double> matched;          ///< importer rank 0's matched stamps
  double checksum = 0;                  ///< sum over imported cells
  RepResult rep;
  SubRepResult subrep;
};

RunOutcome run_workload(int exp_procs, int fanin, int shards,
                        FrameworkOptions options = {}) {
  Config config;
  ProgramSpec e{"E", "h", "/e", exp_procs, {}};
  e.rep_fanin = fanin;
  e.rep_shards = shards;
  config.add_program(e);
  config.add_program(ProgramSpec{"I", "h", "/i", 2, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "a", MatchPolicy::REGL, 0.5});
  config.add_connection(ConnectionSpec{"E", "r", "I", "b", MatchPolicy::REG, 2.0});

  CoupledSystem system(config, ClusterOptions{}, options);
  const dist::Index rows = 12, cols = 12;
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, exp_procs);
  const auto i_decomp = BlockDecomposition::make_grid(rows, cols, 2);

  system.set_program_body("E", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (int k = 1; k <= 6; ++k) {
      data.fill([&](dist::Index r, dist::Index c) {
        return k * 100.0 + static_cast<double>(r) + 0.01 * static_cast<double>(c);
      });
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });

  RunOutcome out;
  system.set_program_body("I", [&](CouplingRuntime& rt, ProcessContext&) {
    rt.define_import_region("a", i_decomp);
    rt.define_import_region("b", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    for (double x : {1.0, 2.5, 4.0, 6.0}) {
      for (const char* region : {"a", "b"}) {
        const auto st = rt.import_region(region, x, data);
        if (rt.rank() != 0) continue;
        out.matched.push_back(st.ok() ? st.matched : -1.0);
        if (!st.ok()) continue;
        const dist::Box box = data.local_box();
        for (dist::Index r = box.row_begin; r < box.row_end; ++r) {
          for (dist::Index c = box.col_begin; c < box.col_end; ++c) {
            out.checksum += data.at(r, c);
          }
        }
      }
    }
    rt.finalize();
  });

  system.run();
  out.rep = system.rep_result("E");
  out.answers = out.rep.answers;
  out.subrep = system.subrep_result("E");
  return out;
}

void expect_same_answers(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.checksum, b.checksum);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].conn, b.answers[i].conn) << "answer " << i;
    EXPECT_EQ(a.answers[i].seq, b.answers[i].seq) << "answer " << i;
    EXPECT_EQ(a.answers[i].result, b.answers[i].result) << "answer " << i;
    EXPECT_EQ(a.answers[i].matched, b.answers[i].matched) << "answer " << i;
  }
}

TEST(RepTreeTest, TreeAnswersMatchFlatRep) {
  const RunOutcome flat = run_workload(12, 0, 1);
  EXPECT_EQ(flat.subrep.wire_in, 0u);  // no tree, no sub-reps
  EXPECT_EQ(flat.rep.frames_in, 0u);
  for (int fanin : {2, 3, 8}) {
    const RunOutcome tree = run_workload(12, fanin, 1);
    expect_same_answers(flat, tree);
    EXPECT_GT(tree.rep.frames_in, 0u) << "fanin " << fanin;
    EXPECT_GT(tree.rep.frame_entries_in, tree.rep.frames_in) << "fanin " << fanin;
    EXPECT_GT(tree.subrep.frames_up, 0u) << "fanin " << fanin;
    EXPECT_GT(tree.subrep.entries_down, 0u) << "fanin " << fanin;
  }
}

TEST(RepTreeTest, ShardedRepAnswersMatchFlatRep) {
  const RunOutcome flat = run_workload(8, 0, 1);
  const RunOutcome sharded = run_workload(8, 0, 2);
  expect_same_answers(flat, sharded);
  const RunOutcome both = run_workload(8, 4, 2);  // tree + shards together
  expect_same_answers(flat, both);
  EXPECT_GT(both.rep.frames_in, 0u);
  // The summed shard counters and the summed sub-rep counters describe the
  // same depth-1 tree's traffic, and the shards together do the flat rep's
  // aggregation work.
  EXPECT_EQ(both.rep.frames_in, both.subrep.frames_up);
  EXPECT_EQ(both.rep.frame_entries_in, both.subrep.entries_up);
  EXPECT_EQ(both.rep.frames_out, both.subrep.frames_down);
  EXPECT_EQ(both.rep.requests_forwarded, flat.rep.requests_forwarded);
  EXPECT_EQ(both.rep.answers_sent, flat.rep.answers_sent);
  EXPECT_EQ(both.rep.responses_received, flat.rep.responses_received);
}

TEST(RepTreeTest, TreeBoundsRepInboundTraffic) {
  // Same wave count, 4x the ranks: the flat rep's inbound wire messages
  // scale with ranks, the tree rep's with its fan-in. Batching must cut
  // inbound traffic by well over half at 32 ranks and fan-in 4.
  const RunOutcome flat = run_workload(32, 0, 1);
  const RunOutcome tree = run_workload(32, 4, 1);
  EXPECT_LT(tree.rep.wire_in * 2, flat.rep.wire_in);
  // Every entry the rep frames downward reaches the leaf layer (broadcast
  // entries fan out further on the way down, never less).
  EXPECT_GE(tree.subrep.entries_down, tree.rep.frame_entries_out);
}

TEST(RepTreeTest, TreeSurvivesFailureTolerantMode) {
  FrameworkOptions options;
  options.retry_timeout_seconds = 0.05;
  const RunOutcome flat = run_workload(9, 0, 1, options);
  const RunOutcome tree = run_workload(9, 3, 1, options);
  EXPECT_EQ(flat.matched, tree.matched);
  EXPECT_EQ(flat.checksum, tree.checksum);
  const RunOutcome sharded = run_workload(9, 3, 2, options);
  EXPECT_EQ(flat.matched, sharded.matched);
  EXPECT_EQ(flat.checksum, sharded.checksum);
}

}  // namespace
}  // namespace ccf::core
