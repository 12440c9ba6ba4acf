#include "support/naive_matcher.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ccf::core {

void NaiveHistory::record(Timestamp t) {
  CCF_REQUIRE(!finalized_, "record() after finalize()");
  CCF_REQUIRE(t > latest_, "export timestamps must be strictly increasing: " << t << " after "
                                                                             << latest_);
  latest_ = t;
  const bool above_clip = clip_exclusive_ ? t > clip_ : t >= clip_;
  if (above_clip) timestamps_.push_back(t);
}

void NaiveHistory::finalize() { finalized_ = true; }

std::optional<Timestamp> NaiveHistory::best_candidate(const MatchQuery& query) const {
  const Interval region = query.region();
  // Candidates inside [lo, hi]; history is sorted, so scan the window.
  const auto lo_it = std::lower_bound(timestamps_.begin(), timestamps_.end(), region.lo);
  std::optional<Timestamp> best;
  for (auto it = lo_it; it != timestamps_.end() && *it <= region.hi; ++it) {
    if (matcher_mutation_enabled()) {
      // Deliberate bug (harness conformance target): first-in-region wins.
      if (!best) best = *it;
      continue;
    }
    if (!best || better_match(*it, *best, query.requested)) best = *it;
  }
  return best;
}

MatchAnswer NaiveHistory::evaluate(const MatchQuery& query) const {
  ++eval_counters_.evaluations;
  MatchAnswer answer;
  answer.latest_exported = latest();

  // Decidable when no future export can change the outcome: at
  // end-of-stream, once exports passed the region's upper edge, or once
  // the current best is unbeatable. A best at/above the request wins
  // outright (later exports are farther). A best below the request (REG)
  // stays beatable until exports pass its mirror point 2x - best: an
  // export there ties on distance and the tie prefers the later
  // timestamp. For REGL the region ends at the request, so the upper-edge
  // test reduces to the paper's latest >= requested rule.
  const Interval region = query.region();
  const std::optional<Timestamp> best = best_candidate(query);
  bool decidable = finalized_ || answer.latest_exported >= region.hi;
  if (!decidable && best) {
    decidable = answer.latest_exported >= 2 * query.requested - *best;
  }
  if (!decidable) {
    answer.result = MatchResult::Pending;
    ++eval_counters_.pending;
    return answer;
  }
  if (best) {
    answer.result = MatchResult::Match;
    answer.matched = *best;
    ++eval_counters_.matches;
  } else {
    answer.result = MatchResult::NoMatch;
    ++eval_counters_.no_matches;
  }
  return answer;
}

void NaiveHistory::prune_below(Timestamp t) {
  const auto it = std::lower_bound(timestamps_.begin(), timestamps_.end(), t);
  timestamps_.erase(timestamps_.begin(), it);
  if (t > clip_ || (t == clip_ && clip_exclusive_)) {
    clip_ = t;
    clip_exclusive_ = false;  // future records >= t stay eligible
  }
}

void NaiveHistory::prune_through(Timestamp t) {
  const auto it = std::upper_bound(timestamps_.begin(), timestamps_.end(), t);
  timestamps_.erase(timestamps_.begin(), it);
  if (t >= clip_) {
    clip_ = t;
    clip_exclusive_ = true;  // future records must exceed t
  }
}

}  // namespace ccf::core
