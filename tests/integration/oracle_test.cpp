// Temporal-model oracle tests.
//
// The approximate-matching model is deterministic: given the collective
// export timestamp sequence and the request sequence, the matched version
// of every request is fully determined —
//
//   m_k = the in-region export closest to x_k, among exports strictly
//         greater than the last successful match (consumption
//         monotonicity), or NO MATCH if none exists —
//
// regardless of process speeds, network latencies, process counts, or
// whether buddy-help is enabled (buddy-help is a pure performance
// optimization). These tests compute the expected answers by brute force
// and assert the full system produces exactly them (answers AND payloads)
// across many randomized timing/topology configurations.
#include <gtest/gtest.h>

#include <optional>

#include "core/system.hpp"
#include "util/rng.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;

struct Expected {
  bool matched = false;
  Timestamp version = 0;
};

/// Brute-force reference for the model described above.
std::vector<Expected> oracle(const std::vector<Timestamp>& exports,
                             const std::vector<Timestamp>& requests, MatchPolicy policy,
                             double tol) {
  std::vector<Expected> out;
  Timestamp consumed = kNeverExported;
  for (Timestamp x : requests) {
    const Interval region = acceptable_region(policy, x, tol);
    std::optional<Timestamp> best;
    for (Timestamp t : exports) {
      if (t <= consumed || !region.contains(t)) continue;
      if (!best || better_match(t, *best, x)) best = t;
    }
    if (best) {
      out.push_back({true, *best});
      consumed = *best;
    } else {
      out.push_back({false, 0});
    }
  }
  return out;
}

struct RunConfig {
  int exporter_procs;
  int importer_procs;
  double exporter_work;       // seconds per export iteration
  double slow_extra;          // extra for the last exporter rank
  double importer_work;       // seconds per import iteration
  bool buddy_help;
  double latency;             // fixed network latency (seconds)
  bool real_threads = false;  // preemptive scheduling instead of virtual time
};

struct Observed {
  std::vector<Expected> answers;
  std::vector<double> payload_heads;  // data()[0] of each matched import
};

Observed run_system(const std::vector<Timestamp>& exports,
                    const std::vector<Timestamp>& requests, MatchPolicy policy, double tol,
                    const RunConfig& rc) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", rc.exporter_procs, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", rc.importer_procs, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", policy, tol});

  runtime::ClusterOptions cluster_options;
  cluster_options.mode = rc.real_threads ? runtime::ExecutionMode::RealThreads
                                         : runtime::ExecutionMode::VirtualTime;
  cluster_options.latency = std::make_shared<const transport::FixedLatency>(rc.latency);
  FrameworkOptions fw;
  fw.buddy_help = rc.buddy_help;
  CoupledSystem system(config, cluster_options, fw);

  const dist::Index rows = 12, cols = 12;
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, rc.exporter_procs);
  const auto i_decomp = BlockDecomposition::make_grid(rows, cols, rc.importer_procs);

  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    const double work =
        rc.exporter_work + (rt.rank() == rc.exporter_procs - 1 ? rc.slow_extra : 0.0);
    for (Timestamp t : exports) {
      ctx.compute(work);
      data.fill([&](dist::Index, dist::Index) { return t; });
      rt.export_region("r", t, data);
    }
    rt.finalize();
  });

  Observed observed;
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    for (Timestamp x : requests) {
      const auto status = rt.import_region("r", x, data);
      ctx.compute(rc.importer_work);
      if (rt.rank() == 0) {
        if (status.ok()) {
          observed.answers.push_back({true, status.matched});
          observed.payload_heads.push_back(data.data()[0]);
        } else {
          observed.answers.push_back({false, 0});
        }
      }
    }
    rt.finalize();
  });

  system.run();
  return observed;
}

void check_against_oracle(const std::vector<Timestamp>& exports,
                          const std::vector<Timestamp>& requests, MatchPolicy policy,
                          double tol, const RunConfig& rc, const std::string& label) {
  const auto expected = oracle(exports, requests, policy, tol);
  const Observed observed = run_system(exports, requests, policy, tol, rc);
  ASSERT_EQ(observed.answers.size(), expected.size()) << label;
  std::size_t payload_idx = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(observed.answers[i].matched, expected[i].matched)
        << label << " request " << i << " x=" << requests[i];
    if (expected[i].matched && observed.answers[i].matched) {
      EXPECT_DOUBLE_EQ(observed.answers[i].version, expected[i].version)
          << label << " request " << i;
      // The payload content identifies the version that was shipped.
      EXPECT_DOUBLE_EQ(observed.payload_heads.at(payload_idx), expected[i].version)
          << label << " request " << i;
    }
    if (observed.answers[i].matched) ++payload_idx;
  }
}

struct OracleParam {
  MatchPolicy policy;
  double tol;
  std::uint64_t seed;
};

class OracleSweep : public ::testing::TestWithParam<OracleParam> {};

TEST_P(OracleSweep, AnswersInvariantAcrossTimingsAndTopologies) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed);

  // Random but increasing export and request sequences.
  std::vector<Timestamp> exports;
  Timestamp t = 0;
  const int n_exports = 30 + static_cast<int>(rng.below(40));
  for (int i = 0; i < n_exports; ++i) {
    t += 0.25 + rng.uniform() * 2.0;
    exports.push_back(t);
  }
  std::vector<Timestamp> requests;
  Timestamp x = 0;
  const int n_requests = 4 + static_cast<int>(rng.below(8));
  for (int i = 0; i < n_requests; ++i) {
    x += 1.0 + rng.uniform() * (t / n_requests);
    requests.push_back(x);
  }

  // The same workload under very different execution conditions must
  // produce identical answers.
  const RunConfig configs[] = {
      {1, 1, 1e-5, 0.0, 1e-5, true, 0.0, false},     // tiny, symmetric
      {4, 2, 1e-5, 5e-4, 1e-6, true, 1e-6, false},   // slow exporter straggler
      {4, 2, 1e-5, 5e-4, 1e-6, false, 1e-6, false},  // same, no buddy-help
      {2, 6, 1e-6, 0.0, 5e-4, true, 1e-5, false},    // slow importer
      {3, 3, 2e-5, 2e-4, 2e-5, true, 5e-4, false},   // high latency
      // Real threads: preemptive, nondeterministic interleavings — the
      // answers must STILL match the oracle (timing independence).
      {3, 2, 1e-6, 1e-4, 1e-6, true, 0.0, true},
      {2, 3, 1e-6, 0.0, 1e-4, false, 0.0, true},
  };
  int idx = 0;
  for (const auto& rc : configs) {
    check_against_oracle(exports, requests, param.policy, param.tol, rc,
                         "config " + std::to_string(idx++));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, OracleSweep,
    ::testing::Values(OracleParam{MatchPolicy::REGL, 2.5, 1}, OracleParam{MatchPolicy::REGL, 0.5, 2},
                      OracleParam{MatchPolicy::REGL, 8.0, 3}, OracleParam{MatchPolicy::REGU, 2.0, 4},
                      OracleParam{MatchPolicy::REGU, 0.3, 5}, OracleParam{MatchPolicy::REG, 1.5, 6},
                      OracleParam{MatchPolicy::REG, 5.0, 7}, OracleParam{MatchPolicy::REGL, 2.5, 8},
                      OracleParam{MatchPolicy::REG, 0.1, 9}, OracleParam{MatchPolicy::REGU, 6.0, 10}),
    [](const ::testing::TestParamInfo<OracleParam>& p) {
      return to_string(p.param.policy) + "_seed" + std::to_string(p.param.seed);
    });

TEST(OracleEdgeCases, RequestsBeyondAllExports) {
  // Requests past the end of the export stream are answered NO MATCH (or
  // the last export if in region) after the exporter finalizes.
  const std::vector<Timestamp> exports{1, 2, 3};
  const std::vector<Timestamp> requests{2.5, 10.0, 20.0};
  check_against_oracle(exports, requests, MatchPolicy::REGL, 1.0, {2, 2, 1e-6, 0, 1e-6, true, 0},
                       "beyond");
}

TEST(OracleEdgeCases, ZeroToleranceExactMatching) {
  const std::vector<Timestamp> exports{1, 2, 3, 5, 8};
  const std::vector<Timestamp> requests{2, 4, 8};
  check_against_oracle(exports, requests, MatchPolicy::REGL, 0.0, {2, 3, 1e-6, 1e-5, 1e-6, true, 0},
                       "exact");
}

TEST(OracleEdgeCases, DenseRequestsOverlappingRegions) {
  // Request stride far below the tolerance: every region overlaps several
  // neighbours (the regression territory of the shared-candidate bug).
  std::vector<Timestamp> exports;
  for (int i = 1; i <= 40; ++i) exports.push_back(i * 0.7);
  std::vector<Timestamp> requests;
  for (int i = 1; i <= 20; ++i) requests.push_back(i * 1.1);
  for (bool help : {true, false}) {
    check_against_oracle(exports, requests, MatchPolicy::REGL, 5.0,
                         {3, 2, 1e-5, 3e-4, 1e-6, help, 1e-6},
                         help ? "dense-help" : "dense-nohelp");
    check_against_oracle(exports, requests, MatchPolicy::REG, 4.0,
                         {3, 2, 1e-5, 3e-4, 1e-6, help, 1e-6},
                         help ? "dense-reg-help" : "dense-reg-nohelp");
  }
}

}  // namespace
}  // namespace ccf::core
