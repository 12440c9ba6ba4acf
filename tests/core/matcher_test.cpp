// Approximate-matching tests: policies, acceptable regions, decidability,
// PENDING semantics, pruning/clip behaviour, end-of-stream.
#include <gtest/gtest.h>

#include <cmath>

#include "core/matcher.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ccf::core {
namespace {

TEST(MatchPolicyTest, ParseAndPrint) {
  EXPECT_EQ(parse_match_policy("REGL"), MatchPolicy::REGL);
  EXPECT_EQ(parse_match_policy("REGU"), MatchPolicy::REGU);
  EXPECT_EQ(parse_match_policy("REG"), MatchPolicy::REG);
  EXPECT_THROW(parse_match_policy("LOWER"), util::InvalidArgument);
  EXPECT_EQ(to_string(MatchPolicy::REGL), "REGL");
}

TEST(MatchPolicyTest, AcceptableRegions) {
  EXPECT_EQ(acceptable_region(MatchPolicy::REGL, 20.0, 2.5), (Interval{17.5, 20.0}));
  EXPECT_EQ(acceptable_region(MatchPolicy::REGU, 20.0, 2.5), (Interval{20.0, 22.5}));
  EXPECT_EQ(acceptable_region(MatchPolicy::REG, 20.0, 2.5), (Interval{17.5, 22.5}));
  EXPECT_THROW(acceptable_region(MatchPolicy::REGL, 1.0, -0.1), util::InvalidArgument);
}

TEST(MatchPolicyTest, IntervalPredicates) {
  const Interval r{17.5, 20.0};
  EXPECT_TRUE(r.contains(17.5));
  EXPECT_TRUE(r.contains(20.0));
  EXPECT_FALSE(r.contains(20.1));
  EXPECT_TRUE(r.below(17.4));
  EXPECT_TRUE(r.above(20.5));
}

TEST(MatchPolicyTest, BetterMatchPrefersCloserThenLater) {
  EXPECT_TRUE(better_match(19.6, 18.6, 20.0));
  EXPECT_FALSE(better_match(18.6, 19.6, 20.0));
  // Equidistant: prefer the later timestamp.
  EXPECT_TRUE(better_match(21.0, 19.0, 20.0));
  EXPECT_FALSE(better_match(19.0, 21.0, 20.0));
}

ExportHistory history_with(std::initializer_list<Timestamp> ts) {
  ExportHistory h;
  for (Timestamp t : ts) h.record(t);
  return h;
}

TEST(Matcher, PaperFigure5Scenario) {
  // Exports 1.6 .. 14.6; request D@20 under REGL tol 2.5 -> PENDING with
  // latest 14.6 (paper Fig. 5 lines 5-6).
  ExportHistory h;
  for (int k = 1; k <= 14; ++k) h.record(0.6 + k);
  const MatchQuery q{20.0, MatchPolicy::REGL, 2.5};
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::Pending);
  EXPECT_DOUBLE_EQ(a.latest_exported, 14.6);

  // Once exports reach 20.6, the match is 19.6.
  for (int k = 15; k <= 20; ++k) h.record(0.6 + k);
  const MatchAnswer b = h.evaluate(q);
  EXPECT_EQ(b.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(b.matched, 19.6);
}

TEST(Matcher, ReglDecidableExactlyAtRequestTimestamp) {
  auto h = history_with({19.0, 20.0});
  const MatchQuery q{20.0, MatchPolicy::REGL, 2.5};
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 20.0);  // exact hit is the best possible
}

TEST(Matcher, ReglNoMatchWhenRegionJumpedOver) {
  auto h = history_with({10.0, 25.0});  // nothing in [17.5, 20]
  const MatchAnswer a = h.evaluate({20.0, MatchPolicy::REGL, 2.5});
  EXPECT_EQ(a.result, MatchResult::NoMatch);
}

TEST(Matcher, ReguPicksSmallestAboveRequest) {
  auto h = history_with({19.0, 20.5, 21.0, 23.0});
  const MatchAnswer a = h.evaluate({20.0, MatchPolicy::REGU, 2.5});
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 20.5);
}

TEST(Matcher, ReguPendingUntilFirstExportAtOrAboveRequest) {
  auto h = history_with({19.0, 19.9});
  EXPECT_EQ(h.evaluate({20.0, MatchPolicy::REGU, 2.5}).result, MatchResult::Pending);
  h.record(24.0);  // above the region [20, 22.5]
  EXPECT_EQ(h.evaluate({20.0, MatchPolicy::REGU, 2.5}).result, MatchResult::NoMatch);
}

TEST(Matcher, RegPicksClosestEitherSide) {
  auto h = history_with({18.0, 21.0, 30.0});
  const MatchAnswer a = h.evaluate({20.0, MatchPolicy::REG, 2.5});
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 21.0);  // distance 1 beats distance 2
}

TEST(Matcher, RegBelowSideWinsWhenCloser) {
  auto h = history_with({19.8, 22.0});
  const MatchAnswer a = h.evaluate({20.0, MatchPolicy::REG, 2.5});
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 19.8);
}

TEST(Matcher, RegStillPendingWhileBelowRequest) {
  // 19.9 is an excellent candidate but a future export could be at 20.0.
  auto h = history_with({19.9});
  EXPECT_EQ(h.evaluate({20.0, MatchPolicy::REG, 2.5}).result, MatchResult::Pending);
}

TEST(Matcher, EmptyHistoryPending) {
  ExportHistory h;
  const MatchAnswer a = h.evaluate({20.0, MatchPolicy::REGL, 2.5});
  EXPECT_EQ(a.result, MatchResult::Pending);
  EXPECT_EQ(a.latest_exported, kNeverExported);
}

TEST(Matcher, FinalizeMakesEverythingDecisive) {
  auto h = history_with({5.0});
  EXPECT_EQ(h.evaluate({20.0, MatchPolicy::REGL, 2.5}).result, MatchResult::Pending);
  h.finalize();
  EXPECT_TRUE(h.finalized());
  EXPECT_EQ(h.evaluate({20.0, MatchPolicy::REGL, 2.5}).result, MatchResult::NoMatch);
  EXPECT_EQ(h.evaluate({6.0, MatchPolicy::REGL, 2.5}).result, MatchResult::Match);
  EXPECT_THROW(h.record(30.0), util::InvalidArgument);
}

TEST(Matcher, RecordRequiresStrictlyIncreasing) {
  ExportHistory h;
  h.record(5.0);
  EXPECT_THROW(h.record(5.0), util::InvalidArgument);
  EXPECT_THROW(h.record(4.0), util::InvalidArgument);
  h.record(5.1);
  EXPECT_DOUBLE_EQ(h.latest(), 5.1);
}

TEST(Matcher, PruneBelowRemovesCandidatesButKeepsLatest) {
  auto h = history_with({1.0, 2.0, 3.0});
  h.prune_below(2.5);
  EXPECT_EQ(h.count(), 1u);  // only 3.0 left as candidate
  EXPECT_DOUBLE_EQ(h.latest(), 3.0);
  // Records below the clip do not become candidates but advance latest.
  h.prune_below(10.0);
  h.record(4.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.latest(), 4.0);
  h.record(10.0);  // at the (inclusive) clip
  EXPECT_EQ(h.count(), 1u);
}

TEST(Matcher, PruneThroughIsExclusive) {
  auto h = history_with({1.0, 2.0});
  h.prune_through(2.0);
  EXPECT_EQ(h.count(), 0u);
  h.record(2.5);
  EXPECT_EQ(h.count(), 1u);
  // prune_through then record exactly at the clip: excluded.
  h.prune_through(3.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 0u);
  h.record(3.1);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Matcher, DecidabilityUsesTrueLatestAfterPrune) {
  auto h = history_with({18.0, 19.6, 21.0});
  h.prune_through(19.6);  // 19.6 consumed; candidate list holds only 21.0
  const MatchAnswer a = h.evaluate({20.0, MatchPolicy::REGL, 2.5});
  // Latest (21.0) >= 20 -> decidable; the only candidate 21.0 is outside
  // [17.5, 20], and 18/19.6 are consumed -> NO MATCH.
  EXPECT_EQ(a.result, MatchResult::NoMatch);
  EXPECT_DOUBLE_EQ(a.latest_exported, 21.0);
}

TEST(Matcher, BestCandidateIgnoresDecidability) {
  auto h = history_with({18.0, 19.0});
  const MatchQuery q{20.0, MatchPolicy::REGL, 2.5};
  const auto best = h.best_candidate(q);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(*best, 19.0);
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);
}

TEST(Matcher, ZeroToleranceIsExactMatching) {
  auto h = history_with({19.0, 20.0, 21.0});
  const MatchAnswer hit = h.evaluate({20.0, MatchPolicy::REGL, 0.0});
  EXPECT_EQ(hit.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(hit.matched, 20.0);
  const MatchAnswer miss = h.evaluate({20.5, MatchPolicy::REGL, 0.0});
  EXPECT_EQ(miss.result, MatchResult::NoMatch);
}

TEST(MatchResultTest, ToString) {
  EXPECT_EQ(to_string(MatchResult::Match), "MATCH");
  EXPECT_EQ(to_string(MatchResult::NoMatch), "NO_MATCH");
  EXPECT_EQ(to_string(MatchResult::Pending), "PENDING");
}

// Property sweep: for every policy, once the history passes the requested
// timestamp the evaluation is decisive, and a reported match is always the
// in-region timestamp closest to the request.
class MatcherProperty : public ::testing::TestWithParam<MatchPolicy> {};

TEST_P(MatcherProperty, DecisiveAndOptimalOncePastRequest) {
  const MatchPolicy policy = GetParam();
  const double tol = 3.0;
  for (double x = 5.0; x <= 40.0; x += 2.7) {
    ExportHistory h;
    std::vector<Timestamp> all;
    for (double t = 0.3; t < x + 10; t += 1.7) {
      h.record(t);
      all.push_back(t);
    }
    const MatchQuery q{x, policy, tol};
    const MatchAnswer a = h.evaluate(q);
    ASSERT_TRUE(a.decisive());
    const Interval region = q.region();
    // Reference: brute-force best.
    std::optional<Timestamp> best;
    for (Timestamp t : all) {
      if (region.contains(t) && (!best || better_match(t, *best, x))) best = t;
    }
    if (best) {
      ASSERT_EQ(a.result, MatchResult::Match);
      EXPECT_DOUBLE_EQ(a.matched, *best);
    } else {
      EXPECT_EQ(a.result, MatchResult::NoMatch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MatcherProperty,
                         ::testing::Values(MatchPolicy::REGL, MatchPolicy::REGU,
                                           MatchPolicy::REG),
                         [](const ::testing::TestParamInfo<MatchPolicy>& p) {
                           return to_string(p.param);
                         });

// Regression: NO_MATCH for REGU/REG is not decidable just because exports
// reached the requested timestamp — the region extends above the request,
// so a later export can still land inside it. (Found by the model-checking
// harness: a slow rank that had consumed its last candidate answered a
// premature NO_MATCH while its peers matched a later export.)
TEST(Matcher, ReguUndecidableWhileRegionUpperEdgeUnreached) {
  auto h = history_with({7.5});
  h.prune_through(7.5);  // consumed by an earlier request; no candidates left
  const MatchQuery q{6.75, MatchPolicy::REGU, 2.33};  // region [6.75, 9.08]
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);
  h.record(8.23);  // lands inside the region -> the answer was not NO_MATCH
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 8.23);
}

TEST(Matcher, RegNoMatchOnlyOncePastRegionUpperEdge) {
  auto h = history_with({19.0, 20.1});
  h.prune_through(20.1);
  const MatchQuery q{20.3, MatchPolicy::REG, 0.5};  // region [19.8, 20.8]
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);
  h.record(20.9);  // past the upper edge, nothing can arrive in the region
  EXPECT_EQ(h.evaluate(q).result, MatchResult::NoMatch);
}

TEST(Matcher, RegBelowBestDecisiveAtMirrorPoint) {
  // Best 19.0 sits 1.0 below the request; an export at distance <= 1.0
  // above (i.e. up to 21.0) would win the closer-then-later rule. Latest
  // 21.5 is past that mirror point, so 19.0 is final well before the
  // region's upper edge (25.0).
  auto h = history_with({19.0, 21.5});
  const MatchAnswer a = h.evaluate({20.0, MatchPolicy::REG, 5.0});
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 19.0);
}

TEST(Matcher, RegBelowBestPendingBeforeMirrorPoint) {
  auto h = history_with({19.0});
  const MatchQuery q{20.0, MatchPolicy::REG, 5.0};
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);  // 20.9 could still come
  h.record(20.4);  // closer than 19.0 -> becomes the match
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 20.4);
}

// --- Decidability edge cases pinned against the interval index ---------
//
// Each of these is a named regression (not just fuzz-covered) for a
// boundary the indexed engine's cached thresholds must get exactly right.

TEST(Matcher, RegMirrorPointExactTieDecidedByLaterPreference) {
  // Best 19.0 sits 1.0 below the request; the mirror point is exactly
  // 2x - best = 21.0. An export landing exactly there ties on distance
  // and the tie prefers the later timestamp — so the evaluation becomes
  // decisive at equality, not strictly past it, and the match is the
  // mirror-point export itself.
  auto h = history_with({19.0});
  const MatchQuery q{20.0, MatchPolicy::REG, 5.0};
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);
  h.record(21.0);  // latest == 2x - best exactly
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 21.0);
}

TEST(Matcher, RegIndexedThresholdAgreesAtMirrorPointTie) {
  auto h = history_with({19.0});
  const MatchQuery q{20.0, MatchPolicy::REG, 5.0};
  const std::uint64_t id = h.index_pending(q);
  EXPECT_FALSE(h.front_pending_decidable());
  h.record(19.5);  // closer best, new mirror point 20.5; still short of it
  EXPECT_FALSE(h.front_pending_decidable());
  h.record(20.5);  // exactly the new mirror point: tie, later wins
  EXPECT_TRUE(h.front_pending_decidable());
  const std::size_t n = h.evaluate_all([&](std::uint64_t got, const MatchAnswer& ans) {
    EXPECT_EQ(got, id);
    EXPECT_EQ(ans.result, MatchResult::Match);
    EXPECT_DOUBLE_EQ(ans.matched, 20.5);
    h.unindex_pending(got);
  });
  EXPECT_EQ(n, 1u);
}

TEST(Matcher, ReguDecidableExactlyAtUpperEdge) {
  // REGU region [20, 22.5]: an export exactly at the upper edge is both
  // in-region and the decidability boundary — MATCH at equality.
  auto h = history_with({19.9});
  const MatchQuery q{20.0, MatchPolicy::REGU, 2.5};
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);
  h.record(22.5);
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 22.5);
}

TEST(Matcher, ReguNoMatchJustPastUpperEdge) {
  auto h = history_with({19.9});
  const MatchQuery q{20.0, MatchPolicy::REGU, 2.5};
  const std::uint64_t id = h.index_pending(q);
  EXPECT_FALSE(h.front_pending_decidable());
  h.record(22.6);  // first export past the edge, nothing ever in-region
  EXPECT_TRUE(h.front_pending_decidable());
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::NoMatch);
  h.unindex_pending(id);
}

TEST(Matcher, IndexedRequestSurvivesPruneIntoItsWindow) {
  // Prune below an indexed request's window (clipping away its cached
  // best), then re-record into the window: the index must re-derive the
  // best — first to "none" (threshold falls back to the region edge),
  // then to the fresh export.
  auto h = history_with({18.0, 19.0});
  const MatchQuery q{20.0, MatchPolicy::REG, 2.5};  // region [17.5, 22.5]
  const std::uint64_t id = h.index_pending(q);      // cached best 19.0
  h.prune_below(19.5);                              // best pruned away
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.front_pending_decidable());  // threshold back to hi = 22.5
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);
  h.record(20.5);  // re-record into the window, at/above x: unbeatable
  EXPECT_TRUE(h.front_pending_decidable());
  const MatchAnswer a = h.evaluate(q);
  EXPECT_EQ(a.result, MatchResult::Match);
  EXPECT_DOUBLE_EQ(a.matched, 20.5);
  h.unindex_pending(id);
}

TEST(Matcher, EmptyHistoryIndexedRequestDecidesOnlyAtFinalize) {
  ExportHistory h;
  const MatchQuery q{20.0, MatchPolicy::REGL, 2.5};
  EXPECT_EQ(h.evaluate(q).result, MatchResult::Pending);  // empty history
  h.index_pending(q);
  EXPECT_FALSE(h.front_pending_decidable());
  h.finalize();
  EXPECT_TRUE(h.front_pending_decidable());
  const std::size_t n = h.evaluate_all([&](std::uint64_t id, const MatchAnswer& ans) {
    EXPECT_EQ(ans.result, MatchResult::NoMatch);
    h.unindex_pending(id);
  });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(h.pending_count(), 0u);
}

TEST(Matcher, EvaluateAllDrainsEveryNewlyDecidableRequest) {
  // Three stacked REGL requests, each with an in-region candidate; one
  // export past the last region makes all three decidable, and a single
  // batch sweep resolves them front-first while the resolver's
  // prune_through keeps later requests' answers intact.
  ExportHistory h;
  std::vector<std::uint64_t> ids;
  std::vector<Timestamp> matched;
  const double tol = 1.0;
  h.record(9.5);
  ids.push_back(h.index_pending({10.0, MatchPolicy::REGL, tol}));
  h.record(11.5);
  ids.push_back(h.index_pending({12.0, MatchPolicy::REGL, tol}));
  h.record(13.5);
  ids.push_back(h.index_pending({14.0, MatchPolicy::REGL, tol}));
  EXPECT_EQ(h.pending_count(), 3u);
  h.record(15.0);  // past every region: all three fronts decidable
  const std::size_t n = h.evaluate_all([&](std::uint64_t id, const MatchAnswer& ans) {
    EXPECT_EQ(id, ids[matched.size()]);
    ASSERT_EQ(ans.result, MatchResult::Match);
    matched.push_back(ans.matched);
    h.unindex_pending(id);
    h.prune_through(ans.matched);
  });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(matched, (std::vector<Timestamp>{9.5, 11.5, 13.5}));
  EXPECT_EQ(h.pending_count(), 0u);
}

TEST(Matcher, PendingCoveringFindsTheOverlappingRun) {
  // Overlapping REG regions (request stride below the tolerance): the
  // covering span of a timestamp is the contiguous run of indexed
  // requests whose region contains it.
  ExportHistory h;
  const double tol = 2.0;
  h.index_pending({10.0, MatchPolicy::REG, tol});  // [8, 12]
  h.index_pending({11.0, MatchPolicy::REG, tol});  // [9, 13]
  h.index_pending({14.0, MatchPolicy::REG, tol});  // [12, 16]
  EXPECT_EQ(h.pending_covering(8.5).count, 1u);
  EXPECT_EQ(h.pending_covering(9.5).first, 0u);
  EXPECT_EQ(h.pending_covering(9.5).count, 2u);
  EXPECT_EQ(h.pending_covering(12.0).count, 3u);  // edge of all three
  EXPECT_EQ(h.pending_covering(13.5).first, 2u);
  EXPECT_EQ(h.pending_covering(13.5).count, 1u);
  EXPECT_EQ(h.pending_covering(17.0).count, 0u);
}

// Property sweeps over random export streams: the policy-region
// invariants of Eq. 1-2 and monotonicity in the tolerance.
struct RandomStream {
  ExportHistory history;
  std::vector<Timestamp> all;
};

RandomStream random_stream(util::Xoshiro256& rng) {
  RandomStream s;
  Timestamp t = 0;
  const int n = 1 + static_cast<int>(rng.below(30));
  for (int i = 0; i < n; ++i) {
    t += rng.uniform(0.05, 2.0);
    s.history.record(t);
    s.all.push_back(t);
  }
  s.history.finalize();  // every evaluation below is decisive
  return s;
}

TEST(MatcherPropertySweep, ReglMatchesNeverAboveRequestAndWithinTolerance) {
  util::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    auto s = random_stream(rng);
    const double x = rng.uniform(0.0, 35.0);
    const double tol = rng.uniform(0.0, 5.0);
    const MatchAnswer a = s.history.evaluate({x, MatchPolicy::REGL, tol});
    if (a.result != MatchResult::Match) continue;
    EXPECT_LE(a.matched, x);
    EXPECT_GE(a.matched, x - tol);
  }
}

TEST(MatcherPropertySweep, ReguMatchesNeverBelowRequestAndWithinTolerance) {
  util::Xoshiro256 rng(2027);
  for (int trial = 0; trial < 300; ++trial) {
    auto s = random_stream(rng);
    const double x = rng.uniform(0.0, 35.0);
    const double tol = rng.uniform(0.0, 5.0);
    const MatchAnswer a = s.history.evaluate({x, MatchPolicy::REGU, tol});
    if (a.result != MatchResult::Match) continue;
    EXPECT_GE(a.matched, x);
    EXPECT_LE(a.matched, x + tol);
  }
}

TEST(MatcherPropertySweep, RegMatchIsNearestWithinTolerance) {
  util::Xoshiro256 rng(2028);
  for (int trial = 0; trial < 300; ++trial) {
    auto s = random_stream(rng);
    const double x = rng.uniform(0.0, 35.0);
    const double tol = rng.uniform(0.0, 5.0);
    const MatchAnswer a = s.history.evaluate({x, MatchPolicy::REG, tol});
    if (a.result != MatchResult::Match) {
      for (Timestamp t : s.all) EXPECT_GT(std::abs(t - x), tol);
      continue;
    }
    EXPECT_LE(std::abs(a.matched - x), tol);
    for (Timestamp t : s.all) {
      // Nothing in the stream is strictly closer, and on a distance tie
      // the match is the later timestamp.
      EXPECT_FALSE(better_match(t, a.matched, x)) << t << " beats " << a.matched;
    }
  }
}

TEST(MatcherPropertySweep, MatchingIsMonotoneInTolerance) {
  // Widening the tolerance never loses a match and never worsens the
  // distance to the request.
  util::Xoshiro256 rng(2029);
  for (MatchPolicy policy : {MatchPolicy::REGL, MatchPolicy::REGU, MatchPolicy::REG}) {
    for (int trial = 0; trial < 150; ++trial) {
      auto s = random_stream(rng);
      const double x = rng.uniform(0.0, 35.0);
      const double tol = rng.uniform(0.0, 4.0);
      const double wider = tol + rng.uniform(0.0, 4.0);
      const MatchAnswer narrow = s.history.evaluate({x, policy, tol});
      const MatchAnswer wide = s.history.evaluate({x, policy, wider});
      if (narrow.result != MatchResult::Match) continue;
      ASSERT_EQ(wide.result, MatchResult::Match);
      EXPECT_LE(std::abs(wide.matched - x), std::abs(narrow.matched - x));
    }
  }
}

}  // namespace
}  // namespace ccf::core
