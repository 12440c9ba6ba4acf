// CoupledSystem: assembles and runs an entire coupled simulation in one
// simulated cluster (real threads or deterministic virtual time).
//
// Given a Config, it derives the deployment layout, installs the rep
// process for every program, wraps each worker process body with a
// ready-made CouplingRuntime, runs the cluster to completion, and captures
// per-process statistics and trace listings for the harness.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/coupling_runtime.hpp"
#include "core/rep.hpp"
#include "core/subrep.hpp"
#include "runtime/cluster.hpp"

namespace ccf::core {

class CoupledSystem {
 public:
  /// Worker process body: receives its CouplingRuntime (already bound to
  /// the right program and rank) and the raw ProcessContext.
  using ProgramBody = std::function<void(CouplingRuntime&, runtime::ProcessContext&)>;

  CoupledSystem(Config config, runtime::ClusterOptions cluster_options,
                FrameworkOptions framework_options);

  /// Installs the SPMD body run by every worker process of `program`.
  void set_program_body(const std::string& program, ProgramBody body);

  /// Runs all programs and reps to completion; propagates failures.
  void run();

  const Config& config() const { return config_; }
  const DeploymentLayout& layout() const { return layout_; }
  const FrameworkOptions& framework_options() const { return framework_options_; }

  /// End-of-run time, in seconds on clock().
  double end_time() const { return end_time_; }

  /// The clock the run keeps, for the mode it runs in once CCF_MODE is
  /// applied: "virtual" in virtual time, "wall" on threads and processes.
  const char* clock() const;

  /// Statistics of one worker process (valid after run()).
  const ProcStats& proc_stats(const std::string& program, int rank) const;

  /// Trace listing of an exported region on one process ("" if untraced).
  const std::string& trace_listing(const std::string& program, int rank,
                                   const std::string& region) const;

  /// Structured trace events of an exported region on one process (empty
  /// if untraced). Same data as trace_listing, machine-checkable.
  const std::vector<TraceEvent>& trace_events(const std::string& program, int rank,
                                              const std::string& region) const;

  /// Program-wide rep counters and answers (valid after run()). With a
  /// sharded rep this is the merge over all shards: counters summed,
  /// answers re-grouped by connection in determination order.
  const RepResult& rep_result(const std::string& program) const;

  /// Aggregation-tree relay counters summed over the program's sub-reps
  /// (all zero when the program runs without a tree).
  const SubRepResult& subrep_result(const std::string& program) const;

  /// Message fabric a program's traffic rides under the selected cluster
  /// options: "sim" for the modeled fabrics (VirtualTime, or RealThreads
  /// over the in-memory fabric), "tcp" when the real backend is selected
  /// and any of the program's connections crosses nodes, "shm" otherwise.
  /// Feeds the report CSV's `transport` column.
  std::string transport_kind(const std::string& program) const;

  /// Structural transport counters of the run (all zero for backends that
  /// do not track them; valid after run()).
  const transport::TransportCounters& transport_counters() const { return transport_counters_; }

 private:
  /// Applies CCF_NODES and derives the per-program node assignment plus
  /// the transport's node/identity maps (entries already present in
  /// cluster_options_.transport are kept).
  void configure_transport();

  struct ProcSlot {
    ProcStats stats;
    std::map<std::string, std::string> traces;  ///< region -> listing
    std::map<std::string, std::vector<TraceEvent>> events;  ///< region -> events
  };

  Config config_;
  runtime::ClusterOptions cluster_options_;
  FrameworkOptions framework_options_;
  DeploymentLayout layout_;
  std::map<std::string, ProgramBody> bodies_;
  std::map<std::string, std::vector<ProcSlot>> slots_;
  std::map<std::string, std::vector<RepResult>> rep_shard_results_;      ///< raw, per shard
  std::map<std::string, std::vector<SubRepResult>> subrep_node_results_; ///< raw, per node
  std::map<std::string, RepResult> rep_results_;
  std::map<std::string, SubRepResult> subrep_results_;
  std::map<std::string, int> program_node_;  ///< deployment node per program
  transport::TransportCounters transport_counters_;
  double end_time_ = 0;
  bool ran_ = false;
};

}  // namespace ccf::core
