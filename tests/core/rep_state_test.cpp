// Representative aggregation tests: the five legal response aggregates,
// Property-1 violation detection (failure injection), buddy-help issuance
// rules, and settling (an open request's state is dropped once answered
// and every rank decided or was helped).
#include <gtest/gtest.h>

#include "core/rep_state.hpp"
#include "util/check.hpp"

namespace ccf::core {
namespace {

RequestMsg request(std::uint32_t seq, Timestamp x) { return RequestMsg{0, seq, x}; }

ResponseMsg pending(std::uint32_t seq, Timestamp latest) {
  return ResponseMsg{0, seq, MatchResult::Pending, kNeverExported, latest};
}

ResponseMsg match(std::uint32_t seq, Timestamp m) {
  return ResponseMsg{0, seq, MatchResult::Match, m, m + 1};
}

ResponseMsg no_match(std::uint32_t seq) {
  return ResponseMsg{0, seq, MatchResult::NoMatch, kNeverExported, 100.0};
}

TEST(RepState, AllMatchAnswersOnFirstDecisive) {
  RequestAggregator agg(4, /*buddy_help=*/true);
  agg.open(request(0, 20.0));
  auto a0 = agg.on_response(0, match(0, 19.6));
  ASSERT_TRUE(a0.answer_importer.has_value());
  EXPECT_EQ(a0.answer_importer->result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a0.answer_importer->matched, 19.6);
  EXPECT_TRUE(a0.buddy_help_ranks.empty());  // nobody was pending
  // Subsequent agreeing responses produce no further actions.
  for (int r = 1; r < 4; ++r) {
    auto a = agg.on_response(r, match(0, 19.6));
    EXPECT_FALSE(a.answer_importer.has_value());
    EXPECT_TRUE(a.buddy_help_ranks.empty());
  }
  EXPECT_NE(agg.answer_of(0), nullptr);
}

TEST(RepState, PendingPlusMatchTriggersBuddyHelp) {
  RequestAggregator agg(4, true);
  agg.open(request(0, 20.0));
  EXPECT_TRUE(agg.on_response(3, pending(0, 14.6)).buddy_help_ranks.empty());
  EXPECT_TRUE(agg.on_response(2, pending(0, 15.6)).buddy_help_ranks.empty());
  auto a = agg.on_response(0, match(0, 19.6));
  ASSERT_TRUE(a.answer_importer.has_value());
  // Both pending ranks get helped, exactly once.
  std::vector<int> helped = a.buddy_help_ranks;
  std::sort(helped.begin(), helped.end());
  EXPECT_EQ(helped, (std::vector<int>{2, 3}));
  EXPECT_TRUE(agg.on_response(2, pending(0, 16.6)).buddy_help_ranks.empty());
}

TEST(RepState, LatePendingAfterAnswerIsHelpedImmediately) {
  RequestAggregator agg(4, true);
  agg.open(request(0, 20.0));
  agg.on_response(0, match(0, 19.6));
  auto a = agg.on_response(3, pending(0, 10.0));
  EXPECT_EQ(a.buddy_help_ranks, std::vector<int>{3});
  // The same rank is never helped twice.
  auto b = agg.on_response(3, pending(0, 11.0));
  EXPECT_TRUE(b.buddy_help_ranks.empty());
}

TEST(RepState, BuddyHelpDisabledIssuesNothing) {
  RequestAggregator agg(4, false);
  agg.open(request(0, 20.0));
  EXPECT_TRUE(agg.on_response(3, pending(0, 14.6)).buddy_help_ranks.empty());
  auto a = agg.on_response(0, match(0, 19.6));
  ASSERT_TRUE(a.answer_importer.has_value());
  EXPECT_TRUE(a.buddy_help_ranks.empty());
  auto b = agg.on_response(2, pending(0, 15.0));
  EXPECT_TRUE(b.buddy_help_ranks.empty());
}

TEST(RepState, PendingPlusNoMatchIsLegal) {
  RequestAggregator agg(3, true);
  agg.open(request(0, 20.0));
  agg.on_response(1, pending(0, 5.0));
  auto a = agg.on_response(0, no_match(0));
  ASSERT_TRUE(a.answer_importer.has_value());
  EXPECT_EQ(a.answer_importer->result, MatchResult::NoMatch);
  EXPECT_EQ(a.buddy_help_ranks, std::vector<int>{1});
  // Straggler later agrees decisively: fine.
  EXPECT_NO_THROW(agg.on_response(2, no_match(0)));
}

// --- failure injection: the illegal aggregates -----------------------------

TEST(RepState, MatchPlusNoMatchViolatesProperty1) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  agg.on_response(0, match(0, 19.6));
  EXPECT_THROW(agg.on_response(1, no_match(0)), util::ProtocolViolation);
}

TEST(RepState, DifferentMatchTimestampsViolateProperty1) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  agg.on_response(0, match(0, 19.6));
  try {
    agg.on_response(1, match(0, 18.6));
    FAIL() << "expected ProtocolViolation";
  } catch (const util::ProtocolViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("19.6"), std::string::npos);
    EXPECT_NE(what.find("18.6"), std::string::npos);
  }
}

TEST(RepState, NoMatchThenMatchAlsoViolates) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  agg.on_response(0, no_match(0));
  EXPECT_THROW(agg.on_response(1, match(0, 19.6)), util::ProtocolViolation);
}

TEST(RepState, ResponseForUnknownRequestIsInternalError) {
  RequestAggregator agg(2, true);
  EXPECT_THROW(agg.on_response(0, match(7, 19.6)), util::InternalError);
}

TEST(RepState, DuplicateOpenRejected) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  EXPECT_THROW(agg.open(request(0, 40.0)), util::InvalidArgument);
}

TEST(RepState, RankRangeValidated) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  EXPECT_THROW(agg.on_response(2, match(0, 19.6)), util::InvalidArgument);
  EXPECT_THROW(agg.on_response(-1, match(0, 19.6)), util::InvalidArgument);
}

TEST(RepState, MultipleRequestsIndependent) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  agg.open(request(1, 40.0));
  agg.on_response(1, pending(0, 10.0));
  agg.on_response(1, pending(1, 10.0));
  auto a0 = agg.on_response(0, match(0, 19.6));
  auto a1 = agg.on_response(0, match(1, 39.6));
  ASSERT_TRUE(a0.answer_importer && a1.answer_importer);
  EXPECT_DOUBLE_EQ(a0.answer_importer->matched, 19.6);
  EXPECT_DOUBLE_EQ(a1.answer_importer->matched, 39.6);
  ASSERT_NE(agg.answer_of(1), nullptr);
  EXPECT_EQ(agg.answer_of(1)->requested, 40.0);
}

TEST(RepState, AllPendingWaitsForDecisiveUpdate) {
  RequestAggregator agg(3, true);
  agg.open(request(0, 20.0));
  for (int r = 0; r < 3; ++r) {
    EXPECT_FALSE(agg.on_response(r, pending(0, 5.0)).answer_importer.has_value());
  }
  EXPECT_EQ(agg.answer_of(0), nullptr);
  // First decisive update (from any rank) resolves it, the remaining
  // pending ranks are helped.
  auto a = agg.on_response(1, match(0, 19.6));
  ASSERT_TRUE(a.answer_importer.has_value());
  std::vector<int> helped = a.buddy_help_ranks;
  std::sort(helped.begin(), helped.end());
  EXPECT_EQ(helped, (std::vector<int>{0, 2}));
}

// --- settling: state bounded by the open requests ---------------------------

TEST(RepState, SettledRequestsDropTheirState) {
  RequestAggregator agg(2, true);
  for (std::uint32_t seq = 0; seq < 384; ++seq) {
    agg.open(request(seq, seq + 0.5));
    EXPECT_EQ(agg.open_requests(), 1u);
    EXPECT_TRUE(agg.on_response(1, match(seq, seq)).answer_importer.has_value());
    EXPECT_FALSE(agg.on_response(0, match(seq, seq)).answer_importer.has_value());
    EXPECT_EQ(agg.open_requests(), 0u) << "seq " << seq;
    EXPECT_FALSE(agg.is_open(seq));
  }
  ASSERT_EQ(agg.answers().size(), 384u);
  std::uint32_t expected = 0;
  for (const auto& [seq, answer] : agg.answers()) {
    EXPECT_EQ(seq, expected);
    EXPECT_EQ(answer.seq, expected++);
    EXPECT_DOUBLE_EQ(answer.matched, seq);
  }
}

TEST(RepState, WithoutBuddyHelpPendingRankKeepsRequestOpenUntilItDecides) {
  RequestAggregator agg(2, false);
  agg.open(request(0, 20.0));
  agg.on_response(1, pending(0, 14.6));
  ASSERT_TRUE(agg.on_response(0, match(0, 19.6)).answer_importer.has_value());
  EXPECT_TRUE(agg.is_open(0));
  EXPECT_TRUE(agg.unresponsive_ranks().empty());  // PENDING is a response
  EXPECT_TRUE(agg.on_response(1, pending(0, 15.6)).buddy_help_ranks.empty());
  EXPECT_TRUE(agg.is_open(0));
  EXPECT_FALSE(agg.on_response(1, match(0, 19.6)).answer_importer.has_value());
  EXPECT_FALSE(agg.is_open(0));
  EXPECT_EQ(agg.open_requests(), 0u);
}

TEST(RepState, AnsweredRequestWithSilentRankStaysOpen) {
  RequestAggregator agg(3, true);
  agg.open(request(0, 20.0));
  agg.on_response(0, match(0, 19.6));
  agg.on_response(2, pending(0, 14.6));  // helped at once
  EXPECT_TRUE(agg.is_open(0));
  EXPECT_FALSE(agg.rank_answered_all(1));
  EXPECT_TRUE(agg.rank_answered_all(2));
  const auto silent = agg.unresponsive_ranks();
  ASSERT_EQ(silent.size(), 1u);
  EXPECT_EQ(silent[0].request.seq, 0u);
  EXPECT_EQ(silent[0].request.requested, 20.0);
  EXPECT_EQ(silent[0].ranks, std::vector<int>{1});
  // The silent rank's response settles it.
  agg.on_response(1, match(0, 19.6));
  EXPECT_FALSE(agg.is_open(0));
  EXPECT_TRUE(agg.unresponsive_ranks().empty());
  EXPECT_TRUE(agg.rank_answered_all(1));
}

TEST(RepState, DecisionCrossingItsHelpIsStillChecked) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  agg.on_response(1, pending(0, 14.6));
  ASSERT_EQ(agg.on_response(0, match(0, 19.6)).buddy_help_ranks, std::vector<int>{1});
  ASSERT_FALSE(agg.is_open(0));  // settled: rank 0 decided, rank 1 helped
  // Rank 1 decided on its own before the help reached it.
  const auto agreeing = agg.on_response(1, match(0, 19.6));
  EXPECT_FALSE(agreeing.answer_importer.has_value());
  EXPECT_TRUE(agreeing.buddy_help_ranks.empty());
  EXPECT_THROW(agg.on_response(1, match(0, 18.6)), util::ProtocolViolation);
  EXPECT_THROW(agg.on_response(1, no_match(0)), util::ProtocolViolation);
}

TEST(RepState, LatePendingAfterSettlingIsNotHelpedAgain) {
  RequestAggregator agg(2, true);
  agg.open(request(0, 20.0));
  agg.on_response(1, pending(0, 14.6));
  agg.on_response(0, match(0, 19.6));
  ASSERT_FALSE(agg.is_open(0));
  const auto late = agg.on_response(1, pending(0, 14.6));  // a fabric copy
  EXPECT_TRUE(late.buddy_help_ranks.empty());
  EXPECT_FALSE(late.answer_importer.has_value());
}

TEST(RepState, ReopeningSettledRequestRejected) {
  RequestAggregator agg(1, true);
  agg.open(request(0, 20.0));
  agg.on_response(0, no_match(0));
  ASSERT_FALSE(agg.is_open(0));
  EXPECT_THROW(agg.open(request(0, 20.0)), util::InvalidArgument);
  ASSERT_NE(agg.answer_of(0), nullptr);
  EXPECT_EQ(agg.answer_of(0)->result, MatchResult::NoMatch);
}

}  // namespace
}  // namespace ccf::core
