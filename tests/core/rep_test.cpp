// Unit tests of the rep process body (run_rep) driven by a scripted
// context: geometry exchange, request forwarding/aggregation wiring,
// buddy-help targeting, answer broadcast, and coordinated shutdown —
// without a cluster.
#include <gtest/gtest.h>

#include "core/rep.hpp"
#include "core/protocol.hpp"
#include "runtime/scripted_context.hpp"

namespace ccf::core {
namespace {

using runtime::Message;
using runtime::ScriptedContext;

// Layout for "E h /e 2 \n I h /i 1": E procs {0,1}, E rep 2; I proc {3}, I rep 4.
Config exporter_config() {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", 2, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", 1, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, 2.5});
  return config;
}

Message msg(transport::ProcId src, transport::ProcId dst, transport::Tag tag,
            transport::Payload payload) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = std::move(payload);
  return m;
}

transport::Payload region_defs_payload() {
  transport::Writer w;
  w.put<std::uint32_t>(1);  // one export region
  RegionMeta{"r", 8, 8, 2, 1}.encode_into(w);
  w.put<std::uint32_t>(0);  // no imports
  return w.take();
}

transport::Payload peer_meta_payload(int conn) {
  transport::Writer w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(conn));
  RegionMeta{"r", 8, 8, 1, 1}.encode_into(w);
  return w.take();
}

TEST(RepLoop, FullExporterLifecycle) {
  const Config config = exporter_config();
  const DeploymentLayout layout(config);
  const ProgramLayout& e = layout.program("E");
  const ProgramLayout& i = layout.program("I");
  ASSERT_EQ(e.rep, 2);
  ASSERT_EQ(i.rep, 4);

  ScriptedContext ctx(e.rep);
  // Startup: defs from rank0, peer meta from I's rep.
  ctx.push_inbox(msg(e.proc(0), e.rep, kTagRegionDefs, region_defs_payload()));
  ctx.push_inbox(msg(i.rep, e.rep, kTagPeerRegionMeta, peer_meta_payload(0)));
  // A forwarded request; proc 0 answers MATCH, proc 1 answers PENDING.
  ctx.push_inbox(msg(i.rep, e.rep, kTagRequestForward, RequestMsg{0, 0, 20.0}.encode()));
  ctx.push_inbox(msg(e.proc(1), e.rep, kTagProcResponse,
                     ResponseMsg{0, 0, MatchResult::Pending, kNeverExported, 14.6}.encode()));
  ctx.push_inbox(msg(e.proc(0), e.rep, kTagProcResponse,
                     ResponseMsg{0, 0, MatchResult::Match, 19.6, 20.6}.encode()));
  // Shutdown: the importer finished the connection.
  ctx.push_inbox(msg(i.rep, e.rep, kTagConnFinished, ConnMsg{0}.encode()));

  const RepResult result = run_rep(ctx, config, layout, "E");
  EXPECT_EQ(result.requests_forwarded, 1u);
  EXPECT_EQ(result.answers_sent, 1u);
  EXPECT_EQ(result.buddy_helps_sent, 1u);
  EXPECT_EQ(result.responses_received, 2u);

  // Geometry broadcast reached both procs.
  EXPECT_EQ(ctx.sent_with_tag(kTagRegionMetaBcast).size(), 2u);
  // Our geometry went to the peer rep.
  ASSERT_EQ(ctx.sent_with_tag(kTagPeerRegionMeta).size(), 1u);
  EXPECT_EQ(ctx.sent_with_tag(kTagPeerRegionMeta)[0].dst, i.rep);
  // The request was forwarded to both procs.
  EXPECT_EQ(ctx.sent_with_tag(kTagProcForward).size(), 2u);
  // The answer went to the importer rep with the matched timestamp.
  const auto answers = ctx.sent_with_tag(kTagRepAnswer);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].dst, i.rep);
  const AnswerMsg answer = AnswerMsg::decode(answers[0].payload);
  EXPECT_EQ(answer.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(answer.matched, 19.6);
  // Buddy-help went exactly to the PENDING proc 1.
  const auto helps = ctx.sent_with_tag(kTagBuddyHelp);
  ASSERT_EQ(helps.size(), 1u);
  EXPECT_EQ(helps[0].dst, e.proc(1));
  // ConnFinished was relayed to the procs as ConnClosed, then shutdown.
  EXPECT_EQ(ctx.sent_with_tag(kTagConnClosed).size(), 2u);
  EXPECT_EQ(ctx.sent_with_tag(kTagShutdownProc).size(), 2u);
}

TEST(RepLoop, FlatSingleShardPayloadsLeadWithShardZero) {
  // The shard id is on the wire in every topology, the depth-0 single
  // shard included.
  const Config config = exporter_config();
  const DeploymentLayout layout(config);
  const ProgramLayout& e = layout.program("E");
  const ProgramLayout& i = layout.program("I");
  ASSERT_EQ(e.depth(), 0);
  ASSERT_EQ(e.shards, 1);

  ScriptedContext ctx(e.rep);
  ctx.push_inbox(msg(e.proc(0), e.rep, kTagRegionDefs, region_defs_payload()));
  ctx.push_inbox(msg(i.rep, e.rep, kTagPeerRegionMeta, peer_meta_payload(0)));
  ctx.push_inbox(msg(i.rep, e.rep, kTagConnFinished, ConnMsg{0}.encode()));
  (void)run_rep(ctx, config, layout, "E");

  auto leading_u32 = [](const Message& m) {
    transport::Reader r(m.payload);
    return r.get<std::uint32_t>();
  };
  const auto metas = ctx.sent_with_tag(kTagRegionMetaBcast);
  ASSERT_EQ(metas.size(), 2u);
  for (const Message& m : metas) EXPECT_EQ(leading_u32(m), 0u);
  const auto shutdowns = ctx.sent_with_tag(kTagShutdownProc);
  ASSERT_EQ(shutdowns.size(), 2u);
  for (const Message& m : shutdowns) {
    EXPECT_EQ(m.payload.size(), sizeof(std::uint32_t));
    EXPECT_EQ(leading_u32(m), 0u);
  }
}

TEST(RepLoop, ImporterSideRelaysRequestsAndAnswers) {
  const Config config = exporter_config();
  const DeploymentLayout layout(config);
  const ProgramLayout& e = layout.program("E");
  const ProgramLayout& i = layout.program("I");

  ScriptedContext ctx(i.rep);
  transport::Writer defs;
  defs.put<std::uint32_t>(0);  // no exports
  defs.put<std::uint32_t>(1);  // one import region
  RegionMeta{"r", 8, 8, 1, 1}.encode_into(defs);
  ctx.push_inbox(msg(i.proc(0), i.rep, kTagRegionDefs, defs.take()));
  ctx.push_inbox(msg(e.rep, i.rep, kTagPeerRegionMeta, peer_meta_payload(0)));
  // rank0 requests; the exporter rep answers; rank0 finishes.
  ctx.push_inbox(msg(i.proc(0), i.rep, kTagImportRequest, RequestMsg{0, 0, 20.0}.encode()));
  ctx.push_inbox(msg(e.rep, i.rep, kTagRepAnswer,
                     AnswerMsg{0, 0, 20.0, MatchResult::Match, 19.6}.encode()));
  ctx.push_inbox(msg(i.proc(0), i.rep, kTagImporterConnDone, ConnMsg{0}.encode()));

  (void)run_rep(ctx, config, layout, "I");

  // The request went outward to E's rep.
  const auto forwards = ctx.sent_with_tag(kTagRequestForward);
  ASSERT_EQ(forwards.size(), 1u);
  EXPECT_EQ(forwards[0].dst, e.rep);
  // The answer was broadcast to the importer's procs on the per-conn tag.
  const auto bcast = ctx.sent_with_tag(import_answer_tag(0));
  ASSERT_EQ(bcast.size(), 1u);
  EXPECT_EQ(bcast[0].dst, i.proc(0));
  // ConnFinished went to E's rep; shutdown to own procs.
  ASSERT_EQ(ctx.sent_with_tag(kTagConnFinished).size(), 1u);
  EXPECT_EQ(ctx.sent_with_tag(kTagConnFinished)[0].dst, e.rep);
  EXPECT_EQ(ctx.sent_with_tag(kTagShutdownProc).size(), 1u);
}

TEST(RepLoop, MissingRegionDefinitionRejected) {
  const Config config = exporter_config();
  const DeploymentLayout layout(config);
  const ProgramLayout& e = layout.program("E");

  ScriptedContext ctx(e.rep);
  transport::Writer defs;  // program defined NOTHING
  defs.put<std::uint32_t>(0);
  defs.put<std::uint32_t>(0);
  ctx.push_inbox(msg(e.proc(0), e.rep, kTagRegionDefs, defs.take()));
  EXPECT_THROW(run_rep(ctx, config, layout, "E"), util::InvalidArgument);
}

TEST(RepLoop, Property1ViolationSurfacesFromAggregator) {
  const Config config = exporter_config();
  const DeploymentLayout layout(config);
  const ProgramLayout& e = layout.program("E");
  const ProgramLayout& i = layout.program("I");

  ScriptedContext ctx(e.rep);
  ctx.push_inbox(msg(e.proc(0), e.rep, kTagRegionDefs, region_defs_payload()));
  ctx.push_inbox(msg(i.rep, e.rep, kTagPeerRegionMeta, peer_meta_payload(0)));
  ctx.push_inbox(msg(i.rep, e.rep, kTagRequestForward, RequestMsg{0, 0, 20.0}.encode()));
  ctx.push_inbox(msg(e.proc(0), e.rep, kTagProcResponse,
                     ResponseMsg{0, 0, MatchResult::Match, 19.6, 20.6}.encode()));
  ctx.push_inbox(msg(e.proc(1), e.rep, kTagProcResponse,
                     ResponseMsg{0, 0, MatchResult::Match, 18.6, 20.6}.encode()));
  EXPECT_THROW(run_rep(ctx, config, layout, "E"), util::ProtocolViolation);
}

}  // namespace
}  // namespace ccf::core
