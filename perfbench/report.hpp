// Metrics, output checks and the printed result of one benchmark command.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace pb {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The answer an import must return, in the importer's call order.
struct Expected {
  bool ok = false;
  double matched = 0;
};

/// End-to-end metrics, from untraced runs only.
std::vector<Metric> end_to_end_metrics(const Plan& plan, const std::vector<RunResult>& untraced);

/// Per-layer metrics, from traced runs; the untraced runs give the
/// tracing overhead. `virtual_makespan_s` is the virtual-time end of the
/// same workload.
std::vector<Metric> per_layer_metrics(const Plan& plan, const std::vector<RunResult>& traced,
                                      const std::vector<RunResult>& untraced,
                                      double virtual_makespan_s);

struct Verdict {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< every failed check, one line each
  bool correct() const { return problems.empty(); }
};

/// Checks every import of every run against `expected` (matched timestamp
/// and data checksum) and the workload's regime conditions.
void check_runs(const Plan& plan, const std::vector<const RunResult*>& runs,
                const std::vector<Expected>& expected, Verdict& verdict);

/// Writes the per-rank, per-layer self-time table (median over the traced
/// runs) to `path` and prints its per-program summary.
void write_self_time_table(const Plan& plan, const std::vector<RunResult>& traced,
                           const std::string& path, std::ostream& out);

/// Writes every span of one traced run as tab-separated lines.
void write_spans(const RunResult& run, const std::string& path);

void print_metrics(const std::vector<Metric>& metrics, std::ostream& out);

/// The machine-readable last line.
std::string result_json(const Verdict& verdict, const std::vector<Metric>& metrics);

double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

}  // namespace pb
