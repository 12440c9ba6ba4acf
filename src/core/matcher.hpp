// The approximate matcher (paper §3.1, §4) — interval-indexed engine.
//
// Each export-side process keeps the history of timestamps it has exported
// for a region. Given an import request, evaluate() yields:
//   MATCH    — the best candidate is final (with the matched timestamp),
//   NO_MATCH — no exported timestamp can ever fall in the region,
//   PENDING  — a future export might still be (or beat) the best match.
//
// Exports arrive in strictly increasing timestamp order, so the outcome is
// decidable exactly when the latest export has reached the requested
// timestamp x (for every policy the best candidate can only improve while
// exports are still below x), or when the history is finalized (the
// program declared end-of-stream, so no future export exists).
//
// Engine structure (sort-based matching, after Marzolla & D'Angelo):
//   * the candidate history is a timestamp-sorted vector, so the best
//     in-region candidate of a query is found by binary search in
//     O(log n) — the closest candidate to x is either the largest
//     candidate <= x or the smallest candidate >= x inside the region;
//   * outstanding (still-PENDING) requests are registered in an
//     IntervalIndex: an endpoint-sorted list of their acceptable regions
//     plus, per request, the cached best candidate and the resulting
//     decidability threshold (region.hi, or the REG mirror point
//     2x - best when a below-request best exists). Recording one export
//     then resolves every newly-decidable request in a single
//     O(log k + covered) sweep instead of re-evaluating each request;
//   * prune_below()/prune_through() keep the index consistent: entries
//     whose cached best was pruned away get their best re-derived by
//     binary search before any further decidability test.
//
// The naive reference implementation (linear window scans, per-request
// re-evaluation) is preserved verbatim in the test-support library
// (tests/support/naive_matcher.hpp) and differentially fuzzed against
// this engine in tests/core/matcher_fuzz_test.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <vector>

#include "core/match_policy.hpp"
#include "core/timestamp.hpp"
#include "util/check.hpp"

namespace ccf::core {

enum class MatchResult : std::uint8_t { Match = 1, NoMatch = 2, Pending = 3 };

std::string to_string(MatchResult r);

/// A request against one region/connection.
struct MatchQuery {
  Timestamp requested = 0;
  MatchPolicy policy = MatchPolicy::REGL;
  double tolerance = 0;

  Interval region() const { return acceptable_region(policy, requested, tolerance); }
};

struct MatchAnswer {
  MatchResult result = MatchResult::Pending;
  Timestamp matched = kNeverExported;      ///< valid when result == Match
  Timestamp latest_exported = kNeverExported;

  bool decisive() const { return result != MatchResult::Pending; }
};

/// Index over the pending (not-yet-decisive) requests of one export
/// history. Requests are registered FIFO; because request timestamps
/// increase strictly per connection and the policy/tolerance are fixed,
/// the acceptable regions are monotone — each new request's [lo, hi] lies
/// at or above the previous one's. insert() asserts this, and every query
/// against the index exploits it: the set of regions containing a
/// timestamp is a contiguous FIFO range found by binary search.
///
/// Per entry the index caches the best in-region candidate and the
/// decidability threshold derived from it:
///     threshold = best ? min(region.hi, 2x - best) : region.hi
/// so `latest >= threshold` is exactly ExportHistory::evaluate()'s
/// decidability condition (a best at/above x makes 2x - best <= x <=
/// latest, i.e. immediately decidable; a below-x best stays beatable until
/// exports pass its mirror point; with no best only the region's upper
/// edge decides). The cache is maintained by the owning history's
/// record/prune hooks; a fresh export updates only the covered entries
/// (one sweep), and pruning re-derives only the bests it invalidated.
class IntervalIndex {
 public:
  struct Entry {
    std::uint64_t id = 0;
    MatchQuery query;
    Interval region;
    std::optional<Timestamp> best;  ///< == best_candidate(query), maintained
    Timestamp threshold = 0;        ///< decidable once latest >= threshold
  };

  /// Contiguous FIFO range [first, first + count) of entries.
  struct Span {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  /// Pure observation counters over index maintenance (bench/model-check
  /// structural interface; recording them never changes behaviour).
  struct Counters {
    std::uint64_t inserts = 0;
    std::uint64_t record_sweeps = 0;  ///< on_record() calls with entries present
    std::uint64_t swept_entries = 0;  ///< covered entries visited across sweeps
    std::uint64_t best_updates = 0;   ///< cached bests improved by a new export
    std::uint64_t recomputes = 0;     ///< bests re-derived after a prune
  };

  /// Registers a pending query with its current best candidate. The
  /// query's region must be monotone w.r.t. the last registered entry.
  std::uint64_t insert(const MatchQuery& query, std::optional<Timestamp> best);

  /// Drops an entry (O(1) for the FIFO front, the engine's only case).
  void erase(std::uint64_t id);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const Entry* front() const { return entries_.empty() ? nullptr : &entries_.front(); }
  const Entry& at(std::size_t fifo_offset) const { return entries_[fifo_offset]; }
  const Entry* find(std::uint64_t id) const;

  /// The FIFO range of entries whose region contains t — O(log k).
  Span covering(Timestamp t) const;

  /// True when t is the cached best candidate of any entry — O(log k).
  /// The eviction planner (mem/eviction.hpp) consumes this to rank
  /// resident snapshots by decidability.
  bool is_candidate(Timestamp t) const { return bests_.find(t) != bests_.end(); }

  /// Record hook: a new export t (the new latest, above the candidate
  /// clip) entered the history. Updates the cached bests and thresholds
  /// of the covered entries in one sweep.
  void on_record(Timestamp t);

  /// Prune hook: candidates below `clip` (strictly below when
  /// `through` is false, at-or-below when true) were erased from the
  /// history. Re-derives the best of every entry whose cached best was
  /// invalidated; `recompute(query)` must return the history's current
  /// best_candidate(query).
  template <class RecomputeFn>
  void on_prune(Timestamp clip, bool through, RecomputeFn&& recompute) {
    for (Entry& e : entries_) {
      if (!e.best) continue;
      if (*e.best < clip || (through && *e.best == clip)) {
        ++counters_.recomputes;
        set_best(e, recompute(e.query));
      }
    }
  }

  const Counters& counters() const { return counters_; }

 private:
  void set_best(Entry& e, std::optional<Timestamp> best);

  std::deque<Entry> entries_;        ///< FIFO; ids and regions both monotone
  std::multiset<Timestamp> bests_;   ///< cached bests, for is_candidate()
  std::uint64_t next_id_ = 1;
  Counters counters_;
};

class ExportHistory {
 public:
  /// Pure observation counters over evaluate() calls (model-checking /
  /// stats interface; recording them never changes behaviour).
  struct EvalCounters {
    std::uint64_t evaluations = 0;  ///< evaluate() calls
    std::uint64_t pending = 0;      ///< answers that were PENDING
    std::uint64_t matches = 0;      ///< answers that were MATCH
    std::uint64_t no_matches = 0;   ///< answers that were NO_MATCH
  };

  /// Records an export; timestamps must be strictly increasing. The
  /// latest-export watermark always advances; the timestamp is kept as a
  /// match candidate only if it lies above the prune clip (a pruned-away
  /// timestamp can never be requested again, see prune_below()). Sweeps
  /// the pending-request index: covered entries' bests and decidability
  /// thresholds are updated in place.
  void record(Timestamp t);

  /// Declares end-of-stream: every future evaluate() is decisive.
  void finalize();
  bool finalized() const { return finalized_; }

  Timestamp latest() const;
  std::size_t count() const { return timestamps_.size(); }
  bool empty() const { return timestamps_.empty(); }

  /// Evaluates a request against the history (see file header). O(log n).
  MatchAnswer evaluate(const MatchQuery& query) const;

  /// Best candidate currently inside `region` for request x, if any —
  /// regardless of decidability (used to track the provisional candidate
  /// the non-buddy-help baseline keeps buffered, Fig. 8). O(log n): the
  /// best is the closer of the nearest candidates on either side of x.
  std::optional<Timestamp> best_candidate(const MatchQuery& query) const;

  /// Drops history entries strictly below `t` (they can never match any
  /// future request once the request sequence has passed them). Evaluation
  /// correctness requires callers to prune only below resolved regions.
  /// Pending-index entries whose cached best was dropped are re-derived.
  void prune_below(Timestamp t);

  /// Drops entries <= t (used after a match at t is consumed: matched
  /// timestamps increase strictly, so t itself is also done).
  void prune_through(Timestamp t);

  const std::vector<Timestamp>& timestamps() const { return timestamps_; }

  const EvalCounters& eval_counters() const { return eval_counters_; }

  // --- Pending-request index (batch resolution) ------------------------

  /// Registers a still-undecided query with the pending index; its best
  /// candidate is derived once by binary search. Returns the entry id.
  std::uint64_t index_pending(const MatchQuery& query);

  /// Unregisters a resolved query.
  void unindex_pending(std::uint64_t id) { pending_.erase(id); }

  const IntervalIndex& pending() const { return pending_; }
  std::size_t pending_count() const { return pending_.size(); }

  /// FIFO range of indexed requests whose region contains t — O(log k).
  IntervalIndex::Span pending_covering(Timestamp t) const { return pending_.covering(t); }

  /// O(1) decidability test of the oldest indexed request: true exactly
  /// when evaluate() on it would be decisive.
  bool front_pending_decidable() const {
    const IntervalIndex::Entry* e = pending_.front();
    return e != nullptr && (finalized_ || latest_ >= e->threshold);
  }

  /// Batch sweep: evaluates indexed requests in FIFO order while the
  /// front is decidable, invoking `resolve(id, answer)` for each. The
  /// resolver must unindex the entry (resolution may also prune the
  /// history; the index tracks it, so the next front's decidability is
  /// judged against the post-prune state exactly as per-request
  /// re-evaluation would). Each decided request costs one evaluate()
  /// (same counter semantics as the naive engine's decisive answers);
  /// still-pending requests are not evaluated at all — that is the
  /// batch-resolution saving. Returns the number of requests resolved.
  template <class ResolveFn>
  std::size_t evaluate_all(ResolveFn&& resolve) {
    std::size_t resolved = 0;
    while (const IntervalIndex::Entry* e = pending_.front()) {
      if (!(finalized_ || latest_ >= e->threshold)) break;
      const std::uint64_t id = e->id;
      const MatchAnswer answer = evaluate(e->query);
      CCF_CHECK(answer.decisive(),
                "indexed front was threshold-decidable but evaluate() stayed PENDING");
      resolve(id, answer);
      CCF_CHECK(pending_.front() == nullptr || pending_.front()->id != id,
                "evaluate_all() resolver must unindex the resolved request");
      ++resolved;
    }
    return resolved;
  }

 private:
  std::vector<Timestamp> timestamps_;  ///< candidate list, strictly increasing
  Timestamp latest_ = kNeverExported;  ///< true latest export (never pruned)
  Timestamp clip_ = kNeverExported;    ///< candidates must be above the clip
  bool clip_exclusive_ = false;        ///< true: > clip_; false: >= clip_
  bool finalized_ = false;
  IntervalIndex pending_;              ///< outstanding requests, FIFO
  mutable EvalCounters eval_counters_;
};

/// Testing-only semantic mutation point, read once from the environment
/// variable CCF_MC_MUTATE_MATCHER. When set, best_candidate() deliberately
/// returns the lowest in-region candidate instead of the closest one — a
/// realistic matcher bug the model-checking harness must catch (see
/// docs/TESTING.md, "Mutation catch"). Never set in production; the lazy
/// static makes the default path one predictable branch. The index caches
/// the same mutated bests, so the indexed engine stays self-consistent —
/// and consistently wrong, which is what conformance must detect.
bool matcher_mutation_enabled();

}  // namespace ccf::core
