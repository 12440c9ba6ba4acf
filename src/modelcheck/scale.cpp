#include "modelcheck/scale.hpp"

#include <map>
#include <optional>
#include <sstream>

#include "core/export_state.hpp"
#include "core/options.hpp"
#include "core/protocol.hpp"
#include "dist/decomposition.hpp"
#include "modelcheck/oracle.hpp"
#include "runtime/scripted_context.hpp"
#include "util/rng.hpp"

namespace ccf::modelcheck {

namespace {

using core::ExportConnConfig;
using core::ExportRegionState;
using core::MatchResult;
using core::RequestMsg;
using core::ResponseMsg;

constexpr runtime::ProcId kRep = 999;
const core::ControlRoute kRepRoute{kRep, 1, 0, false};  ///< straight to the rep, one shard
constexpr runtime::ProcId kImporter = 42;

struct RegionStreams {
  MatchPolicy policy = MatchPolicy::REGL;
  double tolerance = 0;
  std::vector<Timestamp> exports;
  std::vector<Timestamp> requests;
  std::vector<double> leads;  ///< request i is issued at virtual time x_i - lead_i
};

RegionStreams generate_streams(util::Xoshiro256& rng, const ScaleConfig& config) {
  RegionStreams s;
  s.policy = static_cast<MatchPolicy>(rng.below(3));
  s.tolerance = rng.uniform(0.5, 4.0);
  Timestamp t = 0;
  for (int i = 0; i < config.exports_per_region; ++i) {
    t += rng.uniform(0.5, 1.5);
    s.exports.push_back(t);
  }
  // Requests span the same virtual-time range as the exports so most
  // resolve mid-stream (the stragglers are decided by finalize).
  const double span = t + 4.0;
  const double mean_step = span / static_cast<double>(config.requests_per_region);
  Timestamp x = 0;
  for (int i = 0; i < config.requests_per_region; ++i) {
    x += rng.uniform(0.2 * mean_step, 1.8 * mean_step);
    s.requests.push_back(x);
    s.leads.push_back(rng.uniform(0.0, 2.0 * config.mean_lead));
  }
  return s;
}

void check_region(int region, const RegionStreams& s,
                  const std::map<std::uint32_t, ResponseMsg>& decisive, std::uint64_t answered,
                  ScaleReport& report) {
  const OracleResult oracle = run_oracle(s.exports, s.requests, s.policy, s.tolerance);
  if (answered != s.requests.size()) {
    std::ostringstream os;
    os << "region " << region << ": " << answered << " decisive answers for "
       << s.requests.size() << " requests";
    report.violations.push_back(os.str());
  }
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    const auto it = decisive.find(static_cast<std::uint32_t>(i));
    if (it == decisive.end()) continue;
    const OracleAnswer& want = oracle.answers[i];
    const ResponseMsg& got = it->second;
    if (got.result != want.result ||
        (want.result == MatchResult::Match && got.matched != want.matched)) {
      std::ostringstream os;
      os << "region " << region << " request " << i << " (x=" << s.requests[i] << "): got "
         << core::to_string(got.result) << "@" << got.matched << ", oracle says "
         << core::to_string(want.result) << "@" << want.matched;
      report.violations.push_back(os.str());
      if (report.violations.size() > 32) return;  // enough to diagnose
    }
  }
}

}  // namespace

ScaleReport run_scale(const ScaleConfig& config) {
  ScaleReport report;
  util::Xoshiro256 rng(config.seed);

  // Tiny block: the scale axis is protocol state (history depth, pending
  // queue length), not payload bandwidth.
  dist::BlockDecomposition one(2, 2, 1, 1);
  core::FrameworkOptions options;

  for (int r = 0; r < config.regions; ++r) {
    const RegionStreams s = generate_streams(rng, config);
    runtime::ScriptedContext ctx(0);

    std::vector<ExportConnConfig> conns;
    conns.push_back(ExportConnConfig{0, s.policy, s.tolerance,
                                     dist::RedistSchedule::for_exporter(0, one, one,
                                                                        one.domain()),
                                     {kImporter}});
    ExportRegionState state("scale" + std::to_string(r), one.domain(), std::move(conns),
                            options, kRepRoute);

    // Merge the two streams: request i fires once the export stream has
    // reached x_i - lead_i, so requests outrun the exports and pile up
    // pending until later exports (or finalize) resolve them in batches.
    // A protocol invariant tripping mid-run (e.g. under a mutated
    // matcher) is a caught violation, same as an oracle mismatch.
    try {
      std::vector<double> block(4, 0.0);
      std::size_t e = 0, q = 0;
      Timestamp exported = core::kNeverExported;
      while (e < s.exports.size() || q < s.requests.size()) {
        const bool fire_request =
            q < s.requests.size() &&
            (e >= s.exports.size() || s.requests[q] - s.leads[q] <= exported);
        if (fire_request) {
          state.on_forwarded_request(
              RequestMsg{0, static_cast<std::uint32_t>(q), s.requests[q]}, ctx);
          ++q;
        } else {
          exported = s.exports[e];
          block.assign(4, exported);
          state.on_export(exported, block.data(), ctx);
          ++e;
        }
      }
      state.finalize(ctx);
    } catch (const std::exception& ex) {
      report.violations.push_back("region " + std::to_string(r) + ": run aborted: " +
                                  ex.what());
      continue;
    }

    // Collect the decisive answer of every request; a request whose first
    // response was PENDING was resolved later by an export sweep (or
    // finalize) — the batch-resolution path under test.
    std::map<std::uint32_t, ResponseMsg> decisive;
    std::map<std::uint32_t, std::uint64_t> responses_per_seq;
    std::uint64_t answered = 0;
    for (const auto& m : ctx.sent_with_tag(core::kTagProcResponse)) {
      const ResponseMsg resp = ResponseMsg::decode(m.payload);
      ++responses_per_seq[resp.seq];
      if (resp.result == MatchResult::Pending) continue;
      ++answered;
      decisive.emplace(resp.seq, resp);
    }
    for (const auto& [seq, n] : responses_per_seq) {
      if (n > 1) ++report.batch_resolutions;
    }

    check_region(r, s, decisive, answered, report);

    const auto stats = state.stats_snapshot();
    report.exports += stats.exports;
    report.requests += s.requests.size();
    report.evaluations += stats.matcher_evaluations;
    report.pending_evals += stats.matcher_pending;
    if (report.violations.size() > 32) break;
  }
  return report;
}

}  // namespace ccf::modelcheck
