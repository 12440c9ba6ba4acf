// Chaos harness for bounded-memory buffer governance.
//
// The scenario the governor exists for: an importer that goes quiet
// mid-run while the exporters sprint ahead. Ungoverned, the exporters'
// buffer pools grow with every version the stalled importer has not yet
// asked about; governed, cold snapshots are demoted to the spill tier and
// restored on a late MATCH, so resident bytes never exceed the budget.
// A seeded FaultInjector additionally drops/duplicates/delays the control
// plane. Under every schedule the governed runs must
//   * give every importer rank the fault-free ungoverned answers (and the
//     payload of exactly the matched version),
//   * keep each exporter's peak resident snapshot bytes <= the budget,
//   * keep the spill books balanced: every demoted snapshot is restored,
//     freed on disk, or still live.
// Virtual-time mode makes each schedule deterministic and replayable.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;
using transport::FaultInjector;
using transport::FaultPlan;

constexpr dist::Index kRows = 12, kCols = 12;
constexpr int kExporterProcs = 3, kImporterProcs = 2;
/// Two snapshots of one exporter rank's block: (12/3)*12 doubles each.
constexpr std::size_t kBudgetBytes = 2 * (kRows / kExporterProcs) * kCols * sizeof(double);

struct Answer {
  bool matched = false;
  Timestamp version = 0;

  bool operator==(const Answer& o) const {
    return matched == o.matched && (!matched || version == o.version);
  }
};

struct RunResult {
  std::vector<std::vector<Answer>> per_rank;  ///< importer answers, by rank
  std::vector<ProcStats> exporter_stats;
  std::uint64_t faults_injected = 0;
};

FrameworkOptions tolerant_options() {
  FrameworkOptions fw;
  fw.retry_timeout_seconds = 0.05;
  return fw;
}

FrameworkOptions governed_options(const std::filesystem::path& spill_dir) {
  FrameworkOptions fw = tolerant_options();
  fw.memory.budget_bytes = kBudgetBytes;
  fw.memory.spill_directory = spill_dir.string();
  return fw;
}

/// Only the control plane is faulted (as in chaos_test): the protocol
/// recovers control losses end-to-end, and BufferPressure notices are
/// advisory by design, so losing them may cost memory headroom but never
/// an answer.
bool control_plane_only(transport::ProcId, transport::ProcId, transport::Tag tag) {
  return tag >= kTagImportRequest && tag < kTagDataBase;
}

/// Exports 1..18 at full speed; the importer answers three requests, then
/// stalls for 0.25 s of modeled compute — five orders of magnitude longer
/// than an export step — before issuing the remaining three.
RunResult run_system(const FrameworkOptions& fw, std::shared_ptr<FaultInjector> faults) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", kExporterProcs, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", kImporterProcs, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, 2.5, {}});

  runtime::ClusterOptions cluster_options;
  cluster_options.mode = runtime::ExecutionMode::VirtualTime;
  cluster_options.latency = std::make_shared<const transport::FixedLatency>(1e-3);
  cluster_options.faults = faults;
  CoupledSystem system(config, cluster_options, fw);

  const auto e_decomp = BlockDecomposition::make_grid(kRows, kCols, kExporterProcs);
  const auto i_decomp = BlockDecomposition::make_grid(kRows, kCols, kImporterProcs);

  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (int k = 1; k <= 18; ++k) {
      ctx.compute(1e-4);
      data.fill([&](dist::Index, dist::Index) { return static_cast<double>(k); });
      rt.export_region("r", k, data);
    }
    rt.finalize();
  });

  RunResult result;
  result.per_rank.resize(kImporterProcs);
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    auto& answers = result.per_rank[static_cast<std::size_t>(rt.rank())];
    const std::vector<Timestamp> requests = {2.0, 5.5, 6.0, 9.5, 13.0, 17.5};
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ctx.compute(i == 3 ? 0.25 : 1e-4);  // go quiet mid-run
      const auto status = rt.import_region("r", requests[i], data);
      if (status.ok()) {
        // The payload identifies the shipped version: a restore from the
        // spill tier must hand back exactly the matched snapshot.
        EXPECT_DOUBLE_EQ(data.data()[0], status.matched);
        answers.push_back({true, status.matched});
      } else {
        answers.push_back({false, 0});
      }
    }
    rt.finalize();
  });

  system.run();
  for (int r = 0; r < kExporterProcs; ++r) {
    result.exporter_stats.push_back(system.proc_stats("E", r));
  }
  if (faults) {
    const auto fs = faults->stats();
    result.faults_injected = fs.dropped + fs.duplicated + fs.delayed;
  }
  return result;
}

void expect_same_answers(const RunResult& run, const std::vector<Answer>& reference,
                         const std::string& label) {
  for (std::size_t rank = 0; rank < run.per_rank.size(); ++rank) {
    const auto& answers = run.per_rank[rank];
    ASSERT_EQ(answers.size(), reference.size()) << label << " rank " << rank;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(answers[i] == reference[i])
          << label << " rank " << rank << " request " << i << ": got ("
          << answers[i].matched << ", " << answers[i].version << "), expected ("
          << reference[i].matched << ", " << reference[i].version << ")";
    }
  }
}

/// Budget + books invariants on every governed run, faulty or not. A
/// dropped-then-retried final ConnClosed can delay (never lose) frees, so
/// live_spilled_entries == 0 is asserted only for lossless runs by the
/// caller.
void expect_governed_invariants(const RunResult& run, const std::string& label) {
  std::uint64_t evictions = 0;
  for (std::size_t rank = 0; rank < run.exporter_stats.size(); ++rank) {
    for (const auto& e : run.exporter_stats[rank].exports) {
      const auto& b = e.buffer;
      EXPECT_LE(b.peak_bytes, kBudgetBytes) << label << " rank " << rank;
      EXPECT_EQ(b.evictions, b.restores + b.spill_frees + b.live_spilled_entries)
          << label << " rank " << rank << " spill books";
      evictions += b.evictions;
    }
    EXPECT_LE(run.exporter_stats[rank].governor.peak_charged_bytes, kBudgetBytes)
        << label << " rank " << rank;
  }
  EXPECT_GT(evictions, 0u) << label << ": the stall never pressured the budget";
}

class ScopedSpillDir {
 public:
  explicit ScopedSpillDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("ccf_memchaos_" + tag)) {}
  ~ScopedSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(MemoryChaos, GovernedStalledImporterMatchesUngovernedFaultFreeRun) {
  const RunResult reference = run_system(tolerant_options(), nullptr);
  ASSERT_FALSE(reference.per_rank.empty());

  ScopedSpillDir spill("faultfree");
  const RunResult governed = run_system(governed_options(spill.path()), nullptr);
  expect_same_answers(governed, reference.per_rank[0], "governed-faultfree");
  expect_governed_invariants(governed, "governed-faultfree");
  for (std::size_t rank = 0; rank < governed.exporter_stats.size(); ++rank) {
    for (const auto& e : governed.exporter_stats[rank].exports) {
      EXPECT_EQ(e.buffer.live_spilled_entries, 0u) << "rank " << rank;
    }
  }
  // The ungoverned reference really did buffer past the budget — the
  // governed run bounded a workload that genuinely needed bounding.
  std::size_t ungoverned_peak = 0;
  for (const auto& stats : reference.exporter_stats) {
    for (const auto& e : stats.exports) {
      ungoverned_peak = std::max(ungoverned_peak, e.buffer.peak_bytes);
    }
  }
  EXPECT_GT(ungoverned_peak, kBudgetBytes);
}

TEST(MemoryChaos, SeededFaultSchedulesStayUnderBudgetAndConverge) {
  const RunResult reference = run_system(tolerant_options(), nullptr);
  ASSERT_FALSE(reference.per_rank.empty());
  const std::vector<Answer>& expected = reference.per_rank[0];

  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_prob = 0.15;
    plan.duplicate_prob = 0.15;
    plan.delay_prob = 0.15;
    plan.delay_min_seconds = 0.02;
    plan.delay_max_seconds = 0.2;
    plan.eligible = control_plane_only;

    ScopedSpillDir spill("seed" + std::to_string(seed));
    RunResult run;
    try {
      run = run_system(governed_options(spill.path()), std::make_shared<FaultInjector>(plan));
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": " << e.what();
    }
    const std::string label = "seed " + std::to_string(seed);
    expect_same_answers(run, expected, label);
    expect_governed_invariants(run, label);
    total_faults += run.faults_injected;
  }
  // The harness must actually have exercised the fault machinery.
  EXPECT_GT(total_faults, 50u);
}

}  // namespace
}  // namespace ccf::core
