// Configuration parsing/validation (the paper's Figure 2 format) plus
// deployment layout assignment and wire-protocol round trips.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/layout.hpp"
#include "core/protocol.hpp"
#include "util/check.hpp"

namespace ccf::core {
namespace {

const char* kPaperConfig = R"(
P0 cluster0 /home/meou/bin/P0 16
P1 cluster1 /home/meou/bin/P1 8
P2 cluster1 /home/meou/bin/P2 32
P4 cluster1 /home/meou/bin/P4 4
#
P0.r1 P1.r1 REGL 0.2
P0.r1 P2.r3 REG 0.1
P0.r2 P4.r2 REGU 0.3
)";

TEST(ConfigParse, PaperFigure2Example) {
  const Config config = Config::parse_string(kPaperConfig);
  ASSERT_EQ(config.programs().size(), 4u);
  EXPECT_EQ(config.program("P0").nprocs, 16);
  EXPECT_EQ(config.program("P0").host, "cluster0");
  EXPECT_EQ(config.program("P4").executable, "/home/meou/bin/P4");

  ASSERT_EQ(config.connections().size(), 3u);
  const ConnectionSpec& c0 = config.connections()[0];
  EXPECT_EQ(c0.exporter_program, "P0");
  EXPECT_EQ(c0.exporter_region, "r1");
  EXPECT_EQ(c0.importer_program, "P1");
  EXPECT_EQ(c0.importer_region, "r1");
  EXPECT_EQ(c0.policy, MatchPolicy::REGL);
  EXPECT_DOUBLE_EQ(c0.tolerance, 0.2);
  EXPECT_EQ(config.connections()[1].policy, MatchPolicy::REG);
  EXPECT_EQ(config.connections()[2].policy, MatchPolicy::REGU);
}

TEST(ConfigParse, CommentsAndBlankLines) {
  const Config config = Config::parse_string(
      "# a comment about programs\n"
      "A host /bin/a 2 extra args here\n"
      "\n"
      "B host /bin/b 3\n"
      "#\n"
      "# comment in connections\n"
      "A.x B.y REGL 1.5\n");
  EXPECT_EQ(config.programs().size(), 2u);
  EXPECT_EQ(config.program("A").extra_args.size(), 3u);
  EXPECT_EQ(config.connections().size(), 1u);
}

TEST(ConfigParse, Errors) {
  EXPECT_THROW(Config::parse_string("A host /bin/a\n"), util::InvalidArgument);  // missing nprocs
  EXPECT_THROW(Config::parse_string("A host /bin/a zero\n"), util::InvalidArgument);
  EXPECT_THROW(Config::parse_string("A h /a 2\n#\nA.x REGL 1\n"), util::InvalidArgument);
  EXPECT_THROW(Config::parse_string("A h /a 2\nB h /b 2\n#\nAx B.y REGL 1\n"),
               util::InvalidArgument);  // bad region ref
  EXPECT_THROW(Config::parse_string("A h /a 2\nB h /b 2\n#\nA.x B.y LOWER 1\n"),
               util::InvalidArgument);  // bad policy
  EXPECT_THROW(Config::parse_string("A h /a 2\nB h /b 2\n#\nA.x B.y REGL -1\n"),
               util::InvalidArgument);  // negative tolerance
  EXPECT_THROW(Config::parse_file("/nonexistent/path/config"), util::InvalidArgument);
}

TEST(ConfigValidate, DetectsBadCoupling) {
  // Undeclared program in a connection.
  EXPECT_THROW(Config::parse_string("A h /a 2\n#\nA.x B.y REGL 1\n"), util::InvalidArgument);
  // Self-coupling.
  EXPECT_THROW(Config::parse_string("A h /a 2\n#\nA.x A.y REGL 1\n"), util::InvalidArgument);
  // Two exporters feeding one imported region.
  EXPECT_THROW(
      Config::parse_string("A h /a 2\nB h /b 2\nC h /c 2\n#\nA.x C.z REGL 1\nB.y C.z REGL 1\n"),
      util::InvalidArgument);
  // Duplicate program names.
  EXPECT_THROW(Config::parse_string("A h /a 2\nA h /a 3\n"), util::InvalidArgument);
}

TEST(ConfigQueries, ConnectionLookups) {
  const Config config = Config::parse_string(kPaperConfig);
  EXPECT_EQ(config.connections_exporting("P0", "r1"), (std::vector<int>{0, 1}));
  EXPECT_EQ(config.connections_exporting("P0", "r2"), std::vector<int>{2});
  EXPECT_EQ(config.connections_exporting("P1", "r1"), std::vector<int>{});
  EXPECT_EQ(config.connection_importing("P1", "r1"), std::optional<int>{0});
  EXPECT_EQ(config.connection_importing("P0", "r1"), std::nullopt);
  EXPECT_EQ(config.connections_of_exporter_program("P0"), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(config.connections_of_importer_program("P2"), std::vector<int>{1});
  EXPECT_THROW(config.program("nope"), util::InvalidArgument);
}

TEST(ConfigSummary, MentionsEverything) {
  const Config config = Config::parse_string(kPaperConfig);
  const std::string s = config.summary();
  EXPECT_NE(s.find("P0"), std::string::npos);
  EXPECT_NE(s.find("REGU"), std::string::npos);
}

TEST(Layout, AssignsContiguousIdsWithReps) {
  const Config config = Config::parse_string("A h /a 3\nB h /b 2\n#\nA.x B.y REGL 1\n");
  const DeploymentLayout layout(config);
  const ProgramLayout& a = layout.program("A");
  EXPECT_EQ(a.first, 0);
  EXPECT_EQ(a.rep, 3);
  EXPECT_EQ(a.proc(2), 2);
  EXPECT_EQ(a.proc_ids(), (std::vector<transport::ProcId>{0, 1, 2}));
  const ProgramLayout& b = layout.program("B");
  EXPECT_EQ(b.first, 4);
  EXPECT_EQ(b.rep, 6);
  EXPECT_EQ(layout.total_processes(), 7);
  EXPECT_THROW(a.proc(3), util::InvalidArgument);
  EXPECT_THROW(layout.program("C"), util::InvalidArgument);
}

TEST(Protocol, MessageRoundTrips) {
  const RequestMsg req{3, 17, 42.5};
  const RequestMsg req2 = RequestMsg::decode(req.encode());
  EXPECT_EQ(req2.conn, 3u);
  EXPECT_EQ(req2.seq, 17u);
  EXPECT_DOUBLE_EQ(req2.requested, 42.5);

  const ResponseMsg resp{1, 2, MatchResult::Match, 19.6, 20.6};
  const ResponseMsg resp2 = ResponseMsg::decode(resp.encode());
  EXPECT_EQ(resp2.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(resp2.matched, 19.6);
  EXPECT_DOUBLE_EQ(resp2.latest_exported, 20.6);

  const AnswerMsg ans{1, 2, 20.0, MatchResult::NoMatch, kNeverExported};
  const AnswerMsg ans2 = AnswerMsg::decode(ans.encode());
  EXPECT_EQ(ans2.result, MatchResult::NoMatch);
  EXPECT_DOUBLE_EQ(ans2.requested, 20.0);

  const ConnMsg conn{9};
  EXPECT_EQ(ConnMsg::decode(conn.encode()).conn, 9u);
}

TEST(Protocol, RegionMetaRoundTrip) {
  transport::Writer w;
  RegionMeta meta{"r1", 1024, 512, 4, 2};
  meta.encode_into(w);
  transport::Reader r(w.take());
  const RegionMeta meta2 = RegionMeta::decode_from(r);
  EXPECT_EQ(meta2.name, "r1");
  EXPECT_EQ(meta2.rows, 1024);
  EXPECT_EQ(meta2.cols, 512);
  EXPECT_EQ(meta2.proc_rows, 4);
  EXPECT_EQ(meta2.proc_cols, 2);
}

TEST(Protocol, TagLayoutDisjoint) {
  // Data tags and answer tags must stay below the collectives tag space
  // and away from the control tags.
  const transport::Tag d = data_tag(31, 4095);
  EXPECT_LT(d, 1 << 24);
  EXPECT_GE(d, kTagDataBase);
  EXPECT_GT(import_answer_tag(0), kTagShutdownProc);
  EXPECT_LT(import_answer_tag(31), kTagDataBase);
  // Distinct (conn, seq mod 4096) -> distinct tags.
  EXPECT_NE(data_tag(1, 5), data_tag(2, 5));
  EXPECT_NE(data_tag(1, 5), data_tag(1, 6));
  EXPECT_EQ(data_tag(1, 5), data_tag(1, 5 + 4096));  // documented wrap
}

TEST(Protocol, DecodeRejectsTrailingBytes) {
  transport::Writer w;
  w.put<std::uint32_t>(1);
  w.put<std::uint32_t>(2);
  w.put<double>(3.0);
  w.put<std::uint8_t>(99);  // junk
  EXPECT_THROW(RequestMsg::decode(w.take()), util::InternalError);
}

}  // namespace
}  // namespace ccf::core
