// Workloads of the end-to-end benchmark and the coupled run that drives
// them through the public core::CoupledSystem API.
//
// Every workload couples an exporter program E to a one-rank importer
// program I. All inputs a body needs (export schedule, request schedule,
// per-iteration compute durations) are generated up front from the seed,
// so the bodies only replay them and every run of one seed does the same
// work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/match_policy.hpp"
#include "core/rep.hpp"
#include "core/stats.hpp"
#include "core/subrep.hpp"
#include "dist/decomposition.hpp"
#include "probe.hpp"
#include "runtime/cluster.hpp"

namespace pb {

struct Connection {
  std::string region;
  ccf::core::MatchPolicy policy = ccf::core::MatchPolicy::REGL;
  double tolerance = 0;
};

struct Plan {
  std::string name;
  ccf::runtime::ExecutionMode mode = ccf::runtime::ExecutionMode::RealProcesses;
  bool split_nodes = false;  ///< CCF_NODES=split: E and I on different nodes (TCP)
  int exporters = 2;
  int fanin = 0;             ///< exporter rep aggregation-tree fan-in
  int straggler = 0;         ///< p_s: the exporter rank the seed slows down
  /// Export samples of every exporter rank count, not only p_s's (for a
  /// wide program whose p_s alone makes too few calls for a p99).
  bool pool_exporters = false;
  ccf::dist::Index rows = 0, cols = 0;
  std::vector<Connection> conns;

  int exports = 0;  ///< per region per run, at t0 + k*dt for k = 1..exports
  double t0 = 0, dt = 1;
  std::vector<double> requests;          ///< importer request timestamps, per region
  std::uint64_t seed = 0;
  double compute_base = 0;               ///< exporter seconds per iteration before jitter
  std::vector<double> exporter_compute;  ///< seconds, [rank * exports + k - 1]
  double importer_init = 0;              ///< seconds before the first request
  double importer_compute = 0;           ///< seconds before each request round

  std::size_t memory_budget_bytes = 0;  ///< per exporter process; spills when set
  double rep_dispatch_seconds = 0;
  /// Network model for virtual-time runs (wall-clock runs use the real one).
  std::shared_ptr<const ccf::transport::LatencyModel> latency;

  /// Forcing field of each exporter rank at t0, before any stamp.
  std::vector<std::vector<double>> base_blocks;

  double export_time(int k) const { return t0 + k * dt; }
  bool wall_clock() const { return mode != ccf::runtime::ExecutionMode::VirtualTime; }
  int imports_per_run() const { return static_cast<int>(requests.size() * conns.size()); }
  ccf::dist::BlockDecomposition exporter_decomp() const;
  ccf::dist::BlockDecomposition importer_decomp() const;
};

/// The named workload with inputs drawn from `seed` (run 0's compute);
/// `tiny` shrinks every size for the self-test.
Plan make_plan(const std::string& workload, std::uint64_t seed, bool tiny);

/// Redraws the exporters' per-iteration compute for run `run` of the
/// plan's seed: `compute_base` scaled by a seeded SlowJitter pattern
/// (straggler p_s 2.5x, the paper's 3.57/1.43, plus up to 50% jitter on
/// every rank). The seed enters the workload here only.
void draw_compute(Plan& plan, int run);

/// The same programs in deterministic virtual time: its answers are the
/// oracle for a wall-clock plan, its end time the virtual-time prediction.
Plan virtual_twin(const Plan& plan);

struct RunResult {
  int run_id = 0;
  bool crashed = false;
  bool disturbed = false;  ///< the hypervisor took CPU time during the run
  std::string error;
  std::int64_t construct_ns = 0;    ///< before CoupledSystem construction
  std::int64_t run_call_ns = 0;     ///< run() called
  std::int64_t run_return_ns = 0;   ///< run() returned
  double end_time = 0;              ///< CoupledSystem::end_time()
  std::vector<RankRecord> exporters;  ///< by rank
  RankRecord importer;
  std::vector<ccf::core::ProcStats> exporter_stats;
  ccf::core::RepResult rep;        ///< exporter program's rep
  ccf::core::SubRepResult subrep;  ///< exporter program's sub-reps
  ccf::transport::TransportCounters transport;
};

/// One full coupled run of `plan`; rank samples travel through files under
/// `run_dir`, which is removed again before returning.
RunResult run_once(const Plan& plan, int run_id, bool traced, const std::string& run_dir);

/// Pins the calling thread (and the threads it starts later) to the
/// `slot`-th CPU it may run on, counted modulo their number; -1 is the
/// last. Wall-clock ranks each get a core of their own so that a spinning
/// rank is never migrated; threads a rank started earlier (the
/// transport's I/O thread) keep the full set.
void pin_to_slot(int slot);

/// Order-dependent 64-bit digest of an imported block.
std::uint64_t block_checksum(const double* data, std::size_t n);

/// Digest the importer's block must have after importing version `t`.
std::uint64_t expected_checksum(const Plan& plan, double t);

/// The policy's answer for request `x` on `conn` given the plan's export
/// schedule; false for NO MATCH.
bool predicted_match(const Plan& plan, const Connection& conn, double x, double& matched);

}  // namespace pb
