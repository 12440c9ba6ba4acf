// ExportRegionState unit tests driven through a scripted context: the
// buffer/skip/supersede rules, buddy-help handling, local decisions, data
// shipment, Eq.(1) attribution — including line-by-line reproduction of
// the paper's Figure 7 (with buddy-help) and Figure 8 (without) listings.
#include <gtest/gtest.h>

#include "core/export_state.hpp"
#include "runtime/scripted_context.hpp"

namespace ccf::core {
namespace {

using runtime::ScriptedContext;

constexpr ProcId kRep = 99;
const ControlRoute kRepRoute{kRep, 1, 0, false};  ///< straight to the rep, one shard
constexpr ProcId kImporterProc = 42;

class ExportStateTest : public ::testing::Test {
 protected:
  /// One exporter process owning the whole 4x4 region, one importer proc.
  ExportRegionState make_state(MatchPolicy policy, double tol, bool trace = true,
                               int conn_id = 0) {
    dist::BlockDecomposition one(4, 4, 1, 1);
    ExportConnConfig cfg{conn_id, policy, tol,
                         dist::RedistSchedule::for_exporter(0, one, one, one.domain()),
                         {kImporterProc}};
    std::vector<ExportConnConfig> conns;
    conns.push_back(std::move(cfg));
    FrameworkOptions options;
    options.trace = trace;
    return ExportRegionState("r1", one.domain(), std::move(conns), options, kRepRoute);
  }

  /// Exports a block whose every element equals the timestamp.
  void do_export(ExportRegionState& state, Timestamp t) {
    std::vector<double> block(16, t);
    state.on_export(t, block.data(), ctx_);
  }

  void send_request(ExportRegionState& state, std::uint32_t seq, Timestamp x,
                    std::uint32_t conn = 0) {
    state.on_forwarded_request(RequestMsg{conn, seq, x}, ctx_);
  }

  void send_help(ExportRegionState& state, std::uint32_t seq, Timestamp x, MatchResult result,
                 Timestamp matched, std::uint32_t conn = 0) {
    state.on_buddy_help(AnswerMsg{conn, seq, x, result, matched}, ctx_);
  }

  ResponseMsg last_response() {
    auto responses = ctx_.sent_with_tag(kTagProcResponse);
    CCF_CHECK(!responses.empty(), "no responses sent");
    return ResponseMsg::decode(responses.back().payload);
  }

  /// Data messages shipped for (conn, seq), decoded to the first element
  /// of the payload (== the version timestamp in these tests).
  std::vector<double> shipped_versions(int conn, std::uint32_t seq) {
    std::vector<double> out;
    for (const auto& m : ctx_.sent_with_tag(data_tag(conn, seq))) {
      transport::Reader r(m.payload);
      const auto data = r.get_vector<double>();
      out.push_back(data.at(0));
    }
    return out;
  }

  ScriptedContext ctx_;
};

/// Forwards to a ScriptedContext and records, at each send, how many
/// freed frames the watched exporter's pool held parked: whether a handler
/// returned its frees to the heap before or after it answered.
class ArenaWatchContext final : public runtime::ProcessContext {
 public:
  struct Send {
    Tag tag;
    std::size_t arena_frames;
  };

  explicit ArenaWatchContext(const ExportRegionState& state) : state_(state) {}

  ProcId id() const override { return inner_.id(); }
  void send(ProcId dst, Tag tag, Payload payload) override {
    sends_.push_back(Send{tag, state_.pool().arena_frames()});
    inner_.send(dst, tag, std::move(payload));
  }
  runtime::Message recv(const runtime::MatchSpec& spec) override { return inner_.recv(spec); }
  std::optional<runtime::Message> try_recv(const runtime::MatchSpec& spec) override {
    return inner_.try_recv(spec);
  }
  std::optional<runtime::Message> recv_until(const runtime::MatchSpec& spec,
                                            double deadline) override {
    return inner_.recv_until(spec, deadline);
  }
  double now() const override { return inner_.now(); }
  void compute(double seconds) override { inner_.compute(seconds); }
  void copy(void* dst, const void* src, std::size_t bytes) override {
    inner_.copy(dst, src, bytes);
  }

  const std::vector<Send>& sends() const { return sends_; }

 private:
  const ExportRegionState& state_;
  ScriptedContext inner_;
  std::vector<Send> sends_;
};

TEST_F(ExportStateTest, BuffersEverythingBeforeAnyRequest) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 5; ++k) do_export(state, 0.6 + k);
  const auto stats = state.stats_snapshot();
  EXPECT_EQ(stats.exports, 5u);
  EXPECT_EQ(stats.buffer.stores, 5u);
  EXPECT_EQ(stats.buffer.skips, 0u);
  EXPECT_EQ(state.pool().size(), 5u);
}

TEST_F(ExportStateTest, RequestFreesBelowRegionAndRepliesPending) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 14; ++k) do_export(state, 0.6 + k);  // 1.6..14.6
  send_request(state, 0, 20.0);                             // region [17.5, 20]
  const ResponseMsg resp = last_response();
  EXPECT_EQ(resp.result, MatchResult::Pending);
  EXPECT_DOUBLE_EQ(resp.latest_exported, 14.6);
  // Everything below 17.5 was freed (paper Fig. 5 line 7).
  EXPECT_EQ(state.pool().size(), 0u);
  const auto stats = state.stats_snapshot();
  EXPECT_EQ(stats.buffer.frees_unsent, 14u);
}

TEST_F(ExportStateTest, RequestIsAnsweredBeforeFreedFramesAreReclaimed) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 20; ++k) do_export(state, 0.6 + k);  // 1.6..20.6, all buffered
  ASSERT_EQ(state.pool().arena_frames(), 0u);

  // Region [11.5, 14]: the floor frees the ten snapshots 1.6..10.6 (Fig. 5
  // line 7), the answer is MATCH 13.6, which frees 11.6 and 12.6 and ships
  // 13.6 from the buffer.
  ArenaWatchContext ctx(state);
  state.on_forwarded_request(RequestMsg{0, 0, 14.0}, ctx);
  ASSERT_EQ(ctx.sends().size(), 2u);
  EXPECT_EQ(ctx.sends()[0].tag, kTagProcResponse);
  EXPECT_EQ(ctx.sends()[0].arena_frames, 10u);
  EXPECT_EQ(ctx.sends()[1].tag, data_tag(0, 0));
  EXPECT_EQ(ctx.sends()[1].arena_frames, 12u);
  // The handler trims the arena back to its capacity only on return.
  EXPECT_EQ(state.pool().arena_frames(), 8u);
  EXPECT_EQ(state.stats_snapshot().buffer.frees_unsent, 12u);
}

TEST_F(ExportStateTest, PaperFigure7WithBuddyHelp) {
  // REGL precision 5.0; exports 1.6, 2.6, 3.6 buffered; request D@10.0;
  // buddy-help {D@10.0, YES, D@9.6}; exports 4.6..8.6 all SKIP; 9.6 is
  // copied and sent; 10.6 is copied (future material).
  auto state = make_state(MatchPolicy::REGL, 5.0);
  for (int k = 1; k <= 3; ++k) do_export(state, 0.6 + k);
  EXPECT_EQ(state.stats_snapshot().buffer.stores, 3u);

  send_request(state, 0, 10.0);  // region [5, 10]
  EXPECT_EQ(last_response().result, MatchResult::Pending);
  EXPECT_EQ(state.pool().size(), 0u);  // 1.6..3.6 freed (below 5)

  send_help(state, 0, 10.0, MatchResult::Match, 9.6);

  for (int k = 4; k <= 8; ++k) do_export(state, 0.6 + k);  // 4.6..8.6
  auto stats = state.stats_snapshot();
  EXPECT_EQ(stats.buffer.skips, 5u);  // all five skipped (Fig. 7 lines 8-11)
  EXPECT_EQ(stats.buffer.stores, 3u); // unchanged

  do_export(state, 9.6);  // the announced match: copy + send out
  stats = state.stats_snapshot();
  EXPECT_EQ(stats.buffer.stores, 4u);
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{9.6});

  do_export(state, 10.6);  // beyond the region floor: buffered
  EXPECT_EQ(state.stats_snapshot().buffer.stores, 5u);

  // The trace matches the paper's listing structure.
  const std::string listing = state.trace().listing();
  EXPECT_NE(listing.find("export D@4.6, skip memcpy."), std::string::npos);
  EXPECT_NE(listing.find("export D@8.6, skip memcpy."), std::string::npos);
  EXPECT_NE(listing.find("receive buddy-help {D@10, YES, D@9.6}."), std::string::npos);
  EXPECT_NE(listing.find("send D@9.6 out."), std::string::npos);
  EXPECT_NE(listing.find("export D@10.6, call memcpy."), std::string::npos);
}

TEST_F(ExportStateTest, PaperFigure8WithoutBuddyHelp) {
  // Same scenario, no help: 4.6 skips (below region), 5.6..9.6 each buffer
  // and supersede the previous candidate, 10.6 buffers and decides the
  // match 9.6 locally, which is then sent.
  auto state = make_state(MatchPolicy::REGL, 5.0);
  for (int k = 1; k <= 3; ++k) do_export(state, 0.6 + k);
  send_request(state, 0, 10.0);
  EXPECT_EQ(last_response().result, MatchResult::Pending);

  do_export(state, 4.6);  // below region lo=5 -> skip (Fig. 8 line 7)
  EXPECT_EQ(state.stats_snapshot().buffer.skips, 1u);

  for (int k = 5; k <= 9; ++k) do_export(state, 0.6 + k);  // 5.6..9.6
  auto stats = state.stats_snapshot();
  EXPECT_EQ(stats.buffer.stores, 3u + 5u);
  // Candidate chain: 5.6..8.6 freed when superseded; only 9.6 retained.
  EXPECT_EQ(state.pool().size(), 1u);
  EXPECT_EQ(stats.transfers, 0u);  // not decided yet

  do_export(state, 10.6);  // crosses x=10: decide MATCH 9.6, ship it
  stats = state.stats_snapshot();
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_EQ(stats.local_decisions, 1u);
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{9.6});
  // The decisive update went to the rep.
  const ResponseMsg resp = last_response();
  EXPECT_EQ(resp.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(resp.matched, 9.6);
  // 10.6 is buffered for potential future requests; 9.6 freed after send.
  EXPECT_EQ(state.pool().buffered_timestamps(), std::vector<Timestamp>{10.6});

  const std::string listing = state.trace().listing();
  EXPECT_NE(listing.find("export D@4.6, skip memcpy."), std::string::npos);
  EXPECT_NE(listing.find("export D@5.6, call memcpy."), std::string::npos);
  EXPECT_NE(listing.find("send D@9.6 out."), std::string::npos);
}

TEST_F(ExportStateTest, MatchAlreadyBufferedShipsImmediatelyOnHelp) {
  // REG policy: the match can lie below the process's own progress.
  auto state = make_state(MatchPolicy::REG, 5.0);
  do_export(state, 7.0);
  do_export(state, 8.0);
  send_request(state, 0, 10.0);  // region [5, 15]; latest 8 < 10 -> pending
  EXPECT_EQ(last_response().result, MatchResult::Pending);
  // Peer decided: the best match collectively is 8.0 (it has seen >= 10).
  send_help(state, 0, 10.0, MatchResult::Match, 8.0);
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{8.0});
  EXPECT_EQ(state.stats_snapshot().transfers, 1u);
  // 7.0 freed unsent, 8.0 freed after send.
  EXPECT_EQ(state.pool().size(), 0u);
}

TEST_F(ExportStateTest, NoMatchHelpResolvesWithoutTransfer) {
  auto state = make_state(MatchPolicy::REGL, 1.0);
  do_export(state, 5.0);
  send_request(state, 0, 20.0);  // region [19, 20]
  send_help(state, 0, 20.0, MatchResult::NoMatch, kNeverExported);
  do_export(state, 25.0);  // above region floor: buffered for the future
  const auto stats = state.stats_snapshot();
  EXPECT_EQ(stats.transfers, 0u);
  ASSERT_EQ(stats.t_i.size(), 1u);
  EXPECT_EQ(state.outstanding_requests(), 0u);
}

TEST_F(ExportStateTest, EquationOneAttribution) {
  // REGL tol 5: candidates 5.6..8.6 are buffered then superseded/freed;
  // their buffering cost is this request's T_i; the match 9.6 is not.
  auto state = make_state(MatchPolicy::REGL, 5.0);
  send_request(state, 0, 10.0);
  for (int k = 5; k <= 10; ++k) do_export(state, 0.6 + k);  // 5.6..10.6
  const auto stats = state.stats_snapshot();
  ASSERT_EQ(stats.t_i.size(), 1u);
  EXPECT_GT(stats.t_i[0], 0.0);
  // T_i == cost of the 4 superseded candidates (5.6, 6.6, 7.6, 8.6).
  EXPECT_NEAR(stats.t_i[0], stats.buffer.seconds_unnecessary, 1e-12);
  EXPECT_EQ(stats.buffer.frees_unsent, 4u);
  EXPECT_DOUBLE_EQ(stats.t_ub(), stats.t_i[0]);
}

TEST_F(ExportStateTest, DecisiveAtArrivalWhenImporterSlower) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 30; ++k) do_export(state, 0.6 + k);  // up to 30.6
  send_request(state, 0, 20.0);
  const ResponseMsg resp = last_response();
  EXPECT_EQ(resp.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(resp.matched, 19.6);
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{19.6});
  // Everything below the match was freed; above stays for the future.
  const auto buffered = state.pool().buffered_timestamps();
  ASSERT_FALSE(buffered.empty());
  EXPECT_DOUBLE_EQ(buffered.front(), 20.6);
}

TEST_F(ExportStateTest, MultipleRequestsSequence) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 50; ++k) do_export(state, 0.6 + k);
  send_request(state, 0, 20.0);
  send_request(state, 1, 40.0);
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{19.6});
  EXPECT_EQ(shipped_versions(0, 1), std::vector<double>{39.6});
  const auto stats = state.stats_snapshot();
  EXPECT_EQ(stats.transfers, 2u);
  EXPECT_EQ(stats.t_i.size(), 2u);
}

TEST_F(ExportStateTest, RequestsMustIncrease) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  send_request(state, 0, 20.0);
  EXPECT_THROW(send_request(state, 1, 20.0), util::InvalidArgument);
  EXPECT_THROW(send_request(state, 1, 15.0), util::InvalidArgument);
}

TEST_F(ExportStateTest, ExportsMustIncrease) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  do_export(state, 5.0);
  std::vector<double> block(16, 0.0);
  EXPECT_THROW(state.on_export(5.0, block.data(), ctx_), util::InvalidArgument);
}

TEST_F(ExportStateTest, RedundantBuddyHelpValidatedAgainstLocalDecision) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 30; ++k) do_export(state, 0.6 + k);
  send_request(state, 0, 20.0);  // decided locally: match 19.6
  // The rep's help crossing on the wire with the same answer: tolerated.
  EXPECT_NO_THROW(send_help(state, 0, 20.0, MatchResult::Match, 19.6));
  // A disagreeing help is a protocol violation.
  EXPECT_THROW(send_help(state, 0, 20.0, MatchResult::Match, 18.6), util::InternalError);
  // Help for a request never seen.
  EXPECT_THROW(send_help(state, 7, 60.0, MatchResult::Match, 59.6), util::InternalError);
}

TEST_F(ExportStateTest, FinalizeAnswersOutstandingDecisively) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  do_export(state, 5.0);
  send_request(state, 0, 20.0);  // pending
  EXPECT_EQ(state.outstanding_requests(), 1u);
  state.finalize(ctx_);
  EXPECT_EQ(state.outstanding_requests(), 0u);
  const ResponseMsg resp = last_response();
  EXPECT_EQ(resp.result, MatchResult::NoMatch);  // nothing in [17.5, 20]
}

TEST_F(ExportStateTest, RequestAfterFinalizeAnsweredFromBuffer) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 10; ++k) do_export(state, 0.6 + k);  // 1.6..10.6
  state.finalize(ctx_);
  send_request(state, 0, 12.0);  // region [9.5, 12]: match 10.6 from buffer
  const ResponseMsg resp = last_response();
  EXPECT_EQ(resp.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(resp.matched, 10.6);
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{10.6});
}

TEST_F(ExportStateTest, FinalizeWithUnshippedAnnouncedMatchIsContractViolation) {
  auto state = make_state(MatchPolicy::REGL, 2.5);
  do_export(state, 5.0);
  send_request(state, 0, 20.0);
  send_help(state, 0, 20.0, MatchResult::Match, 19.6);  // we never export 19.6
  EXPECT_THROW(state.finalize(ctx_), util::InternalError);
}

TEST_F(ExportStateTest, DeferredFloorWithConcurrentOutstandingRequests) {
  // Request seq1 arrives while seq0 is unresolved: seq0's candidates must
  // survive until seq0 resolves (the multi-outstanding case importers with
  // disjoint pieces create).
  auto state = make_state(MatchPolicy::REGL, 2.5);
  for (int k = 1; k <= 19; ++k) do_export(state, 0.6 + k);  // latest 19.6
  send_request(state, 0, 20.0);  // pending; candidates 17.6..19.6 buffered
  send_request(state, 1, 40.0);  // must NOT free seq0's candidates
  EXPECT_EQ(last_response().result, MatchResult::Pending);
  do_export(state, 20.6);  // decides seq0: match 19.6 shipped
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{19.6});
  // Between the regions, exports are skipped (gap rule) now that seq0 is
  // resolved and the floor advanced to 37.5.
  const auto before = state.stats_snapshot().buffer.skips;
  do_export(state, 21.6);
  EXPECT_EQ(state.stats_snapshot().buffer.skips, before + 1);
}

TEST_F(ExportStateTest, TwoConnectionsShareSnapshots) {
  // One region exported to two importers with different tolerances; the
  // snapshot is copied once and freed only when both connections let go.
  dist::BlockDecomposition one(4, 4, 1, 1);
  std::vector<ExportConnConfig> conns;
  conns.push_back(ExportConnConfig{0, MatchPolicy::REGL, 2.5,
                                   dist::RedistSchedule::for_exporter(0, one, one, one.domain()),
                                   {kImporterProc}});
  conns.push_back(ExportConnConfig{1, MatchPolicy::REGL, 5.0,
                                   dist::RedistSchedule::for_exporter(0, one, one, one.domain()),
                                   {kImporterProc + 1}});
  FrameworkOptions options;
  ExportRegionState state("r1", one.domain(), std::move(conns), options, kRepRoute);

  std::vector<double> block(16, 0.0);
  for (int k = 1; k <= 10; ++k) {
    std::fill(block.begin(), block.end(), 0.6 + k);
    state.on_export(0.6 + k, block.data(), ctx_);
  }
  auto stats = state.stats_snapshot();
  EXPECT_EQ(stats.buffer.stores, 10u);  // one copy per export, not two

  // Conn 0 requests 10 (region [7.5, 10] -> match 9.6): frees below 9.6
  // for conn 0 only; conn 1 still needs everything.
  state.on_forwarded_request(RequestMsg{0, 0, 10.0}, ctx_);
  EXPECT_EQ(state.pool().size(), 10u);

  // Conn 1 requests 10.5 (region [5.5, 10.5], latest 10.6 >= 10.5 ->
  // decisive): the match is 9.6 — the same snapshot conn 0 already
  // shipped and released, kept alive by conn 1's need bit.
  state.on_forwarded_request(RequestMsg{1, 0, 10.5}, ctx_);
  EXPECT_LT(state.pool().size(), 10u);
  EXPECT_EQ(state.stats_snapshot().transfers, 2u);
  EXPECT_EQ(shipped_versions(0, 0), std::vector<double>{9.6});
  EXPECT_EQ(shipped_versions(1, 0), std::vector<double>{9.6});
}

TEST_F(ExportStateTest, OverlappingRegionsKeepSharedCandidates) {
  // Regression: stride below the tolerance makes consecutive acceptable
  // regions overlap. A version superseded for the newer request must not
  // be freed while it can still be the older request's match.
  auto state = make_state(MatchPolicy::REGL, 2.5);
  do_export(state, 1.6);
  send_request(state, 0, 2.0);  // region [-0.5, 2]: decisive, match 1.6
  do_export(state, 2.6);
  send_request(state, 1, 4.0);  // region [1.5, 4]: pending, candidate 2.6
  do_export(state, 3.6);        // seq1 candidate -> 3.6
  send_request(state, 2, 6.0);  // region [3.5, 6] OVERLAPS seq1's; candidate 3.6
  do_export(state, 4.6);  // better for seq2; must NOT free 3.6 (seq1's match!)
  // The export of 4.6 made seq1 decidable: match 3.6 shipped from buffer.
  EXPECT_EQ(shipped_versions(0, 1), std::vector<double>{3.6});
  do_export(state, 5.6);
  do_export(state, 6.6);  // decides seq2: match 5.6
  EXPECT_EQ(shipped_versions(0, 2), std::vector<double>{5.6});
  state.finalize(ctx_);  // no stuck pending sends
}

TEST_F(ExportStateTest, HandlesConnLookup) {
  auto state = make_state(MatchPolicy::REGL, 2.5, true, 3);
  EXPECT_TRUE(state.handles_conn(3));
  EXPECT_FALSE(state.handles_conn(0));
  EXPECT_THROW(send_request(state, 0, 20.0), util::InternalError);  // conn 0 unknown
}

TEST_F(ExportStateTest, TraceDisabledRecordsNothing) {
  auto state = make_state(MatchPolicy::REGL, 2.5, /*trace=*/false);
  do_export(state, 1.6);
  EXPECT_TRUE(state.trace().events().empty());
  EXPECT_EQ(state.trace().listing(), "");
}

}  // namespace
}  // namespace ccf::core
