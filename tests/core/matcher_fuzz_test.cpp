// Differential fuzz of the interval-indexed matcher against the preserved
// linear engine (tests/support/naive_matcher.hpp).
//
// Every seed derives a random interleaving of record / evaluate /
// prune_below / prune_through / finalize plus a protocol-style FIFO
// request stream, drives the indexed ExportHistory and the NaiveHistory
// with the identical operation sequence, and asserts after every step:
//   * identical answers (result, matched timestamp, latest watermark),
//   * identical decidability points — front_pending_decidable() (the
//     index's O(1) threshold test) must equal the evaluated answer's
//     decisiveness at every sweep step,
//   * identical candidate lists, latest watermarks, and eval counters
//     (the two engines perform the same evaluate() calls, so the
//     evaluations/pending/matches/no_matches totals must agree exactly).
//
// Replaying a failing seed: the failure message names the seed; run just
// that seed with
//     CCF_MATCHER_FUZZ_SEED=<seed> ctest -R matcher_fuzz
// (see docs/TESTING.md, "Differential fuzzing").
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <sstream>
#include <string>

#include "core/matcher.hpp"
#include "support/naive_matcher.hpp"
#include "util/rng.hpp"

namespace ccf::core {
namespace {

constexpr std::uint64_t kSeeds = 10'000;

struct PendingReq {
  MatchQuery query;
  std::uint64_t index_id = 0;
};

/// Both engines plus the FIFO request model the export-side protocol
/// keeps (outstanding requests resolve strictly front-first).
struct DualEngine {
  ExportHistory indexed;
  NaiveHistory naive;
  std::deque<PendingReq> queue;

  void expect_same_state() const {
    EXPECT_EQ(indexed.latest(), naive.latest());
    EXPECT_EQ(indexed.finalized(), naive.finalized());
    ASSERT_EQ(indexed.timestamps(), naive.timestamps());
    const auto& a = indexed.eval_counters();
    const auto& b = naive.eval_counters();
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.pending, b.pending);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.no_matches, b.no_matches);
  }

  void expect_same_answer(const MatchQuery& q, const MatchAnswer& got,
                          const MatchAnswer& want) const {
    EXPECT_EQ(got.result, want.result)
        << "x=" << q.requested << " policy=" << to_string(q.policy) << " tol=" << q.tolerance;
    if (got.result == MatchResult::Match && want.result == MatchResult::Match) {
      EXPECT_EQ(got.matched, want.matched) << "x=" << q.requested;
    }
    EXPECT_EQ(got.latest_exported, want.latest_exported);
  }

  /// One lockstep evaluation of the same query on both engines.
  MatchAnswer probe(const MatchQuery& q) {
    const MatchAnswer a = indexed.evaluate(q);
    const MatchAnswer b = naive.evaluate(q);
    expect_same_answer(q, a, b);
    return a;
  }

  /// Protocol-style resolution of the FIFO front: a MATCH consumes the
  /// matched timestamp (prune_through), a NO MATCH raises the low-water
  /// mark to the region floor (prune_below) — applied to both engines.
  void resolve_front(const MatchAnswer& answer) {
    const PendingReq req = queue.front();
    queue.pop_front();
    if (req.index_id != 0) indexed.unindex_pending(req.index_id);
    if (answer.result == MatchResult::Match) {
      indexed.prune_through(answer.matched);
      naive.prune_through(answer.matched);
    } else {
      const Timestamp lo = req.query.region().lo;
      indexed.prune_below(lo);
      naive.prune_below(lo);
    }
  }

  /// Front-first sweep, one lockstep evaluation per step; stops at the
  /// first PENDING front (both engines pay that trailing evaluation, as
  /// the pre-index protocol loop did).
  void sweep() {
    while (!queue.empty()) {
      const bool predicted = indexed.front_pending_decidable();
      const MatchAnswer a = probe(queue.front().query);
      // The index's O(1) threshold must agree with evaluate() exactly.
      ASSERT_EQ(predicted, a.decisive())
          << "threshold decidability diverged at x=" << queue.front().query.requested;
      if (!a.decisive()) break;
      resolve_front(a);
    }
  }

  /// Post-finalize drain through the batch API: every front is decidable,
  /// so evaluate_all() performs exactly one evaluation per request — the
  /// naive engine is driven in lockstep to keep the counters comparable.
  void drain_finalized() {
    indexed.evaluate_all([&](std::uint64_t id, const MatchAnswer& a) {
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.front().index_id, id);
      const MatchAnswer b = naive.evaluate(queue.front().query);
      expect_same_answer(queue.front().query, a, b);
      resolve_front(a);
    });
    EXPECT_TRUE(queue.empty());
  }
};

void run_seed(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const MatchPolicy policy = static_cast<MatchPolicy>(rng.below(3));
  // Mix exact matching (tol 0) with narrow and region-overlapping ones.
  const double tol = rng.below(5) == 0 ? 0.0 : rng.uniform(0.05, 3.0);

  DualEngine d;
  Timestamp next_export = 0;
  Timestamp next_request = rng.uniform(0.0, 4.0);
  const int ops = 20 + static_cast<int>(rng.below(40));

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t pick = rng.below(100);
    if (pick < 40) {
      if (d.indexed.finalized()) continue;
      next_export += rng.uniform(0.05, 1.5);
      d.indexed.record(next_export);
      d.naive.record(next_export);
      if (rng.below(2) == 0) d.sweep();  // phase-5 style post-export sweep
    } else if (pick < 65) {
      next_request += rng.uniform(0.1, 3.0);
      const MatchQuery q{next_request, policy, tol};
      const MatchAnswer a = d.probe(q);
      if (!a.decisive()) {
        d.queue.push_back({q, d.indexed.index_pending(q)});
      } else if (d.queue.empty()) {
        d.queue.push_back({q, 0});
        d.resolve_front(a);
      }
      // A decisive answer behind unresolved fronts is answered but not
      // resolved here (the protocol can't reach that state; the engines
      // still must agree on the answer, which probe() asserted).
    } else if (pick < 80) {
      d.sweep();
    } else if (pick < 87) {
      const Timestamp t = rng.uniform(0.0, next_export + 2.0);
      d.indexed.prune_below(t);
      d.naive.prune_below(t);
    } else if (pick < 94) {
      const Timestamp t = rng.uniform(0.0, next_export + 2.0);
      d.indexed.prune_through(t);
      d.naive.prune_through(t);
    } else if (!d.indexed.finalized()) {
      d.indexed.finalize();
      d.naive.finalize();
    }
    d.expect_same_state();
    // Random decidability probe, independent of the FIFO queue.
    const MatchQuery probe_q{rng.uniform(0.0, next_export + 5.0), policy, tol};
    d.probe(probe_q);
    if (::testing::Test::HasFatalFailure()) return;
  }

  if (!d.indexed.finalized()) {
    d.indexed.finalize();
    d.naive.finalize();
  }
  d.drain_finalized();
  d.expect_same_state();
  EXPECT_EQ(d.indexed.pending_count(), 0u);
}

TEST(MatcherDifferentialFuzz, IndexedEngineMatchesNaiveReference) {
  if (const char* env = std::getenv("CCF_MATCHER_FUZZ_SEED")) {
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    SCOPED_TRACE("CCF_MATCHER_FUZZ_SEED=" + std::string(env));
    run_seed(seed);
    return;
  }
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("replay: CCF_MATCHER_FUZZ_SEED=" + std::to_string(seed));
    run_seed(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential divergence at seed " << seed
             << " (replay with CCF_MATCHER_FUZZ_SEED=" << seed << ")";
    }
  }
}

}  // namespace
}  // namespace ccf::core
