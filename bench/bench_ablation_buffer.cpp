// Ablation: finite buffer space (paper §6 raises "the performance effects
// of finite buffer space in a coupled component" as an open question).
//
// Scenario: the importer is slower than the exporter (the Fig. 4(a)
// regime, where the buffer grows without bound). We sweep the per-process
// memory budget with no spill tier (so the budget is a hard cap that
// stalls the exporter) and report peak occupancy, backpressure stalls,
// and the end-to-end completion time — the buffer/throughput trade-off.
#include <cstdio>
#include <iostream>

#include "sim/microbench.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ccf::util::CliParser cli("bench_ablation_buffer",
                           "Sweeps the finite buffer-space cap under a slower importer");
  cli.add_option("rows", "64", "global array rows/cols");
  cli.add_option("exports", "401", "number of exports");
  cli.add_option("importers", "4", "importer process count (slower-importer regime)");
  cli.add_option("caps", "0,200,100,50,25,10", "caps in snapshots (0 = unlimited)");
  if (!cli.parse(argc, argv)) return 0;

  const auto caps = ccf::util::parse_int_list(cli.get("caps"));
  std::printf("== Ablation: finite buffer space (U=%lld procs, slower importer) ==\n\n",
              cli.get_int("importers"));
  ccf::util::TableWriter table({"cap (snapshots)", "peak (snapshots)", "stalls",
                                "stall time s", "end time s", "transfers"});

  for (long long cap : caps) {
    ccf::sim::MicrobenchParams p;
    p.rows = p.cols = cli.get_int("rows");
    p.importer_procs = static_cast<int>(cli.get_int("importers"));
    p.num_exports = static_cast<int>(cli.get_int("exports"));
    p.memory_budget_snapshots = static_cast<std::size_t>(cap);  // no spill directory
    const auto r = ccf::sim::run_microbench(p);
    const std::size_t snapshot_bytes =
        r.slow_stats.buffer.peak_entries > 0 && r.slow_stats.buffer.peak_bytes > 0
            ? r.slow_stats.buffer.peak_bytes / r.slow_stats.buffer.peak_entries
            : 1;
    table.add_row({cap == 0 ? "unlimited" : std::to_string(cap),
                   std::to_string(r.slow_stats.buffer.peak_bytes / snapshot_bytes),
                   std::to_string(r.slow_stats.stalls),
                   ccf::util::TableWriter::fmt(r.slow_stats.stall_seconds, 4),
                   ccf::util::TableWriter::fmt(r.end_time, 4),
                   std::to_string(r.slow_stats.transfers)});
  }
  table.print(std::cout);
  std::printf(
      "\nnote: with a slower importer the exporter stalls once the cap is reached and\n"
      "thereafter advances at the importer's pace; transfers (correctness) are\n"
      "unaffected. The stall time is the price of the bounded memory footprint.\n");
  return 0;
}
