// Matcher scaling suite: the interval-indexed batch engine vs the
// preserved linear engine (tests/support/naive_matcher.hpp) on identical
// protocol-shaped workloads, up to 10^5 exports per row.
//
// Workload: a strictly increasing export stream and a request stream that
// fires ahead of the exports (mixed leads, with a long-lead cohort that
// keeps deep candidate windows alive). Both engines consume the exact same
// merged schedule with the exact same FIFO front-first resolution
// discipline (MATCH -> prune_through(matched), NO MATCH ->
// prune_below(region.lo)):
//   * naive — the pre-index protocol loop: after every export, re-evaluate
//     the front outstanding request until it stays PENDING, each
//     evaluation a linear window scan;
//   * indexed — record() sweeps the pending index and evaluate_all()
//     resolves every newly-decidable request; a request that stays
//     pending costs nothing per export.
// Answers are compared element-for-element; any divergence marks the row
// and fails the binary (and bench/run_benches --suite matcher).
//
// Rows carry wall-clock for the headline speedup AND the structural
// counters (evaluations, sweep sizes, inserts) that CI gates on — CI
// never gates on wall-clock (see run_benches).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "core/matcher.hpp"
#include "support/naive_matcher.hpp"
#include "util/rng.hpp"

namespace {

using ccf::core::ExportHistory;
using ccf::core::IntervalIndex;
using ccf::core::MatchAnswer;
using ccf::core::MatchPolicy;
using ccf::core::MatchQuery;
using ccf::core::MatchResult;
using ccf::core::NaiveHistory;
using ccf::core::Timestamp;

struct Workload {
  MatchPolicy policy = MatchPolicy::REG;
  double tolerance = 2.0;
  std::vector<Timestamp> exports;
  std::vector<Timestamp> requests;
  std::vector<double> leads;  ///< request i fires once exports pass x_i - lead_i
};

Workload make_workload(MatchPolicy policy, std::size_t n_exports, std::uint64_t seed) {
  Workload w;
  w.policy = policy;
  ccf::util::Xoshiro256 rng(seed);
  Timestamp t = 0;
  w.exports.reserve(n_exports);
  for (std::size_t i = 0; i < n_exports; ++i) {
    t += rng.uniform(0.5, 1.5);
    w.exports.push_back(t);
  }
  // One request per 8 exports, spanning the same virtual-time range.
  const std::size_t n_requests = n_exports / 8;
  const double mean_step = (t + 4.0) / static_cast<double>(n_requests);
  // The request stream runs ahead of the exports by ~1/16 of its own
  // length (requests fire in x order, so the effective lead of request i
  // is capped by its predecessors' — an isolated long lead cannot deepen
  // the queue; a uniformly leading stream does). The resulting pending
  // queue is ~n_requests/16 deep, so per-request re-evaluation pays
  // depth x window per export while the indexed engine pays one
  // O(log k + covered) sweep regardless of how many requests are pending.
  const double mean_lead = static_cast<double>(n_requests) / 16.0 * mean_step;
  Timestamp x = 0;
  for (std::size_t i = 0; i < n_requests; ++i) {
    x += rng.uniform(0.2 * mean_step, 1.8 * mean_step);
    w.requests.push_back(x);
    w.leads.push_back(rng.uniform(0.5 * mean_lead, 1.5 * mean_lead));
  }
  return w;
}

struct Answer {
  MatchResult result = MatchResult::Pending;
  Timestamp matched = 0;
};

struct RunResult {
  std::vector<Answer> answers;
  double seconds = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t pending_evals = 0;
  std::size_t max_window = 0;   ///< deepest candidate list seen
  std::size_t max_pending = 0;  ///< deepest outstanding queue seen
};

/// Merges the export/request streams and drives one engine through them.
/// `on_request(query, seq)` handles a fresh request; `sweep()` resolves
/// newly-decidable fronts (called after every record and after finalize).
template <class History, class OnRequest, class Sweep>
RunResult drive(const Workload& w, History& h, OnRequest&& on_request, Sweep&& sweep,
                const std::size_t& queue_depth) {
  RunResult r;
  r.answers.resize(w.requests.size());
  const auto start = std::chrono::steady_clock::now();
  std::size_t e = 0, q = 0;
  Timestamp exported = ccf::core::kNeverExported;
  while (e < w.exports.size() || q < w.requests.size()) {
    const bool fire_request = q < w.requests.size() &&
                              (e >= w.exports.size() || w.requests[q] - w.leads[q] <= exported);
    if (fire_request) {
      on_request(MatchQuery{w.requests[q], w.policy, w.tolerance}, q, r.answers);
      ++q;
    } else {
      exported = w.exports[e];
      h.record(exported);
      sweep(r.answers);
      ++e;
    }
    r.max_window = std::max(r.max_window, h.count());
    r.max_pending = std::max(r.max_pending, queue_depth);
  }
  h.finalize();
  sweep(r.answers);
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  r.evaluations = h.eval_counters().evaluations;
  r.pending_evals = h.eval_counters().pending;
  return r;
}

/// Per-request re-evaluation: after every export, resolve decidable
/// fronts, then re-evaluate every remaining outstanding request — without
/// per-entry decidability thresholds that poll is how a batch-resolving
/// engine learns which pending requests an export just decided (FIFO
/// blocks resolution behind a pending front, so the poll buys no early
/// answers — it is pure discovery cost). Every evaluation is a linear
/// window scan (NaiveHistory). The indexed engine replaces the whole poll
/// with one O(log k + covered) index sweep per export.
RunResult run_naive(const Workload& w) {
  NaiveHistory h;
  struct Req {
    MatchQuery query;
    std::size_t seq = 0;
  };
  std::deque<Req> queue;
  std::size_t depth = 0;

  auto resolve = [&](const Req& req, const MatchAnswer& a, std::vector<Answer>& answers) {
    answers[req.seq] = Answer{a.result, a.matched};
    if (a.result == MatchResult::Match) h.prune_through(a.matched);
    else h.prune_below(req.query.region().lo);
  };
  auto sweep = [&](std::vector<Answer>& answers) {
    while (!queue.empty()) {
      const MatchAnswer a = h.evaluate(queue.front().query);
      if (!a.decisive()) break;
      resolve(queue.front(), a, answers);
      queue.pop_front();
      depth = queue.size();
    }
    // The front (index 0) was just evaluated and stayed PENDING; poll the
    // rest of the outstanding queue.
    for (std::size_t i = 1; i < queue.size(); ++i) (void)h.evaluate(queue[i].query);
  };
  return drive(
      w, h,
      [&](const MatchQuery& query, std::size_t seq, std::vector<Answer>& answers) {
        const MatchAnswer a = h.evaluate(query);
        if (a.decisive() && queue.empty()) {
          resolve(Req{query, seq}, a, answers);
        } else {
          queue.push_back(Req{query, seq});
          depth = queue.size();
        }
      },
      sweep, depth);
}

struct IndexedResult {
  RunResult run;
  IntervalIndex::Counters index;
};

/// The indexed engine: record() sweeps the pending index, evaluate_all()
/// resolves every decidable front; still-pending requests cost nothing.
IndexedResult run_indexed(const Workload& w) {
  ExportHistory h;
  std::deque<std::size_t> queue;  ///< seq of each indexed request, FIFO
  std::vector<MatchQuery> queries(w.requests.size());
  std::size_t depth = 0;

  auto resolve = [&](const MatchQuery& query, const MatchAnswer& a, std::size_t seq,
                     std::vector<Answer>& answers) {
    answers[seq] = Answer{a.result, a.matched};
    if (a.result == MatchResult::Match) h.prune_through(a.matched);
    else h.prune_below(query.region().lo);
  };
  auto sweep = [&](std::vector<Answer>& answers) {
    h.evaluate_all([&](std::uint64_t id, const MatchAnswer& a) {
      const std::size_t seq = queue.front();
      queue.pop_front();
      depth = queue.size();
      h.unindex_pending(id);
      resolve(queries[seq], a, seq, answers);
    });
  };
  IndexedResult out;
  out.run = drive(
      w, h,
      [&](const MatchQuery& query, std::size_t seq, std::vector<Answer>& answers) {
        queries[seq] = query;
        const MatchAnswer a = h.evaluate(query);
        if (a.decisive() && queue.empty()) {
          resolve(query, a, seq, answers);
        } else {
          h.index_pending(query);
          queue.push_back(seq);
          depth = queue.size();
        }
      },
      sweep, depth);
  out.index = h.pending().counters();
  return out;
}

struct Row {
  std::string policy;
  std::size_t exports = 0;
  std::size_t requests = 0;
  RunResult naive;
  RunResult indexed;
  IntervalIndex::Counters index;
  bool answers_match = false;
};

Row run_row(MatchPolicy policy, std::size_t n_exports, std::uint64_t seed) {
  const Workload w = make_workload(policy, n_exports, seed);
  Row row;
  row.policy = to_string(policy);
  row.exports = w.exports.size();
  row.requests = w.requests.size();
  row.naive = run_naive(w);
  IndexedResult ir = run_indexed(w);
  row.indexed = std::move(ir.run);
  row.index = ir.index;

  row.answers_match = row.naive.answers.size() == row.indexed.answers.size();
  for (std::size_t i = 0; row.answers_match && i < row.naive.answers.size(); ++i) {
    const Answer& a = row.naive.answers[i];
    const Answer& b = row.indexed.answers[i];
    row.answers_match =
        a.result == b.result && (a.result != MatchResult::Match || a.matched == b.matched);
  }
  return row;
}

double speedup_of(const Row& r) {
  return r.indexed.seconds > 0 ? r.naive.seconds / r.indexed.seconds : 0.0;
}

void print_json(const std::vector<Row>& rows) {
  std::cout << "{\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::cout << "    {\"policy\": \"" << r.policy << "\", \"exports\": " << r.exports
              << ", \"requests\": " << r.requests << ",\n"
              << "     \"naive_seconds\": " << r.naive.seconds
              << ", \"indexed_seconds\": " << r.indexed.seconds
              << ", \"speedup\": " << speedup_of(r) << ",\n"
              << "     \"naive_evaluations\": " << r.naive.evaluations
              << ", \"naive_pending_evals\": " << r.naive.pending_evals
              << ", \"indexed_evaluations\": " << r.indexed.evaluations
              << ", \"indexed_pending_evals\": " << r.indexed.pending_evals << ",\n"
              << "     \"record_sweeps\": " << r.index.record_sweeps
              << ", \"swept_entries\": " << r.index.swept_entries
              << ", \"best_updates\": " << r.index.best_updates
              << ", \"recomputes\": " << r.index.recomputes
              << ", \"inserts\": " << r.index.inserts << ",\n"
              << "     \"max_window\": " << r.indexed.max_window
              << ", \"max_pending\": " << r.indexed.max_pending
              << ", \"answers_match\": " << (r.answers_match ? "true" : "false") << "}"
              << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
}

void print_table(const std::vector<Row>& rows) {
  std::printf("matcher scaling: naive per-request re-evaluation vs interval-indexed batch\n");
  std::printf("%-6s %8s %9s %10s %10s %8s %12s %14s %11s\n", "policy", "exports", "requests",
              "naive_s", "indexed_s", "speedup", "naive_evals", "indexed_evals", "max_window");
  for (const Row& r : rows) {
    std::printf("%-6s %8zu %9zu %10.4f %10.4f %7.1fx %12llu %14llu %11zu%s\n",
                r.policy.c_str(), r.exports, r.requests, r.naive.seconds, r.indexed.seconds,
                speedup_of(r), static_cast<unsigned long long>(r.naive.evaluations),
                static_cast<unsigned long long>(r.indexed.evaluations), r.indexed.max_window,
                r.answers_match ? "" : "  ANSWERS DIVERGE");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::size_t max_exports = 100000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--max-exports=", 0) == 0) {
      max_exports = static_cast<std::size_t>(std::stoul(arg.substr(14)));
    } else {
      std::cerr << "usage: bench_matcher [--json] [--max-exports=N]\n";
      return 2;
    }
  }

  std::vector<Row> rows;
  bool all_match = true;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{10000}, std::size_t{100000}}) {
    if (n > max_exports) continue;
    for (const MatchPolicy policy : {MatchPolicy::REGL, MatchPolicy::REGU, MatchPolicy::REG}) {
      rows.push_back(run_row(policy, n, /*seed=*/n + static_cast<std::size_t>(policy)));
      all_match = all_match && rows.back().answers_match;
    }
  }

  if (json) print_json(rows);
  else print_table(rows);
  return all_match ? 0 : 1;
}
