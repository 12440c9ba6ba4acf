// Rep scalability suite: rank-count x fan-in sweep over the hierarchical
// representative layer (docs/PROTOCOL.md "Hierarchical representatives").
//
// The flat layout (fan-in 0, the paper's §4 single gateway) funnels every
// per-rank response and conn-done through one process, so rep-inbound
// wire messages grow O(K) in the program width K. With an aggregation
// tree of fan-in F, sub-reps coalesce those messages into batched frames
// and the rep hears O(F) frames per collective wave — O(F·log K) overall
// — while every collective answer stays identical.
//
// Each sweep point runs one wide exporter program feeding a one-rank
// importer over two connections in virtual time, with a fixed per-message
// rep dispatch cost so end-to-end time reflects control-path
// serialization. --json emits one machine-readable object for
// bench/run_benches, which gates on the structural counters only
// (identical answers, flat per-rank inbound, frame books) — never on
// timings.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/system.hpp"
#include "transport/latency.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace ccf;
using core::CouplingRuntime;
using dist::BlockDecomposition;
using dist::DistArray2D;

namespace {

struct Row {
  int ranks = 0;
  int fanin = 0;
  int shards = 1;
  int flush = 0;          ///< tree_flush_count (0 = one frame per wave)
  int requests = 0;       ///< total import calls (both connections)
  int matched = 0;
  double checksum = 0;    ///< order-independent digest of the answers
  core::RepResult rep;    ///< exporter-side rep, summed across shards
  core::SubRepResult subrep;  ///< exporter-side sub-reps, summed
  double end_time = 0;
};

Row run_point(int ranks, int fanin, int shards, int requests_per_conn, int flush_count) {
  core::Config config;
  core::ProgramSpec e_spec{"E", "h", "/e", ranks, {}};
  e_spec.rep_fanin = fanin;
  e_spec.rep_shards = shards;
  e_spec.tree_flush_count = flush_count;
  config.add_program(e_spec);
  config.add_program(core::ProgramSpec{"I", "h", "/i", 1, {}});
  config.add_connection(core::ConnectionSpec{"E", "a", "I", "a", core::MatchPolicy::REGL, 0.5});
  config.add_connection(core::ConnectionSpec{"E", "b", "I", "b", core::MatchPolicy::REG, 2.0});

  // Virtual time: counters and answers are exact and machine-independent.
  runtime::ClusterOptions cluster;
  cluster.mode = runtime::ExecutionMode::VirtualTime;
  cluster.latency = std::make_shared<const transport::FixedLatency>(1e-3);
  core::FrameworkOptions fw;
  fw.rep_dispatch_seconds = 1e-5;  // control-path serialization cost
  core::CoupledSystem system(config, cluster, fw);

  // Smallest power-of-two square wide enough that make_grid can factor
  // `ranks` into a process grid (power-of-two rank counts split evenly).
  dist::Index side = 4;
  while (side * side < ranks) side *= 2;
  const auto e_decomp = BlockDecomposition::make_grid(side, side, ranks);
  const auto i_decomp = BlockDecomposition::make_grid(side, side, 1);

  const int exports = requests_per_conn + 2;
  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("a", e_decomp);
    rt.define_export_region("b", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (int step = 1; step <= exports; ++step) {
      ctx.compute(1e-5);
      data.fill([&](dist::Index, dist::Index) { return step; });
      rt.export_region("a", step, data);
      rt.export_region("b", step, data);
    }
    rt.finalize();
  });

  Row row;
  row.ranks = ranks;
  row.fanin = fanin;
  row.shards = shards;
  row.flush = flush_count;
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("a", i_decomp);
    rt.define_import_region("b", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    int requests = 0, matched = 0;
    double checksum = 0;
    for (int k = 0; k < requests_per_conn; ++k) {
      ctx.compute(1e-4);
      for (const char* region : {"a", "b"}) {
        const auto status = rt.import_region(region, 0.75 + k, data);
        ++requests;
        if (status.ok()) {
          ++matched;
          checksum += status.matched * 3.0 + data.data()[0];
        } else {
          checksum -= 1.0;
        }
      }
    }
    // Published, not written to `row`: a forked body's writes stay in the
    // child (CCF_MODE=procs).
    rt.publish("requests", requests);
    rt.publish("matched", matched);
    rt.publish("checksum", checksum);
    rt.finalize();
  });

  system.run();
  const core::ProcStats importer = system.proc_stats("I", 0);
  row.requests = static_cast<int>(importer.series("requests").at(0));
  row.matched = static_cast<int>(importer.series("matched").at(0));
  row.checksum = importer.series("checksum").at(0);
  row.rep = system.rep_result("E");
  row.subrep = system.subrep_result("E");
  row.end_time = system.end_time();
  return row;
}

std::string json_row(const Row& row) {
  std::ostringstream os;
  os << "    {\"ranks\": " << row.ranks << ", \"fanin\": " << row.fanin
     << ", \"shards\": " << row.shards << ", \"flush_count\": " << row.flush
     << ", \"requests\": " << row.requests
     << ", \"matched\": " << row.matched << ", \"checksum\": " << row.checksum
     << ", \"rep_wire_in\": " << row.rep.wire_in
     << ", \"rep_inbound_per_rank\": "
     << static_cast<double>(row.rep.wire_in) / static_cast<double>(row.ranks)
     << ", \"rep_frames_in\": " << row.rep.frames_in
     << ", \"rep_frame_entries_in\": " << row.rep.frame_entries_in
     << ", \"rep_frames_out\": " << row.rep.frames_out
     << ", \"rep_frame_entries_out\": " << row.rep.frame_entries_out
     << ", \"rep_requests\": " << row.rep.requests_forwarded
     << ", \"rep_answers\": " << row.rep.answers_sent
     << ", \"rep_helps\": " << row.rep.buddy_helps_sent
     << ", \"subrep_wire_in\": " << row.subrep.wire_in
     << ", \"subrep_frames_up\": " << row.subrep.frames_up
     << ", \"subrep_entries_up\": " << row.subrep.entries_up
     << ", \"subrep_entries_down\": " << row.subrep.entries_down
     << ", \"end_time_seconds\": " << row.end_time << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_rep_scale",
                      "Rank x fan-in sweep over the hierarchical representative layer");
  cli.add_option("ranks", "8,64,512,4096", "exporter rank counts to sweep");
  cli.add_option("fanins", "0,8", "aggregation-tree fan-ins (0 = flat single rep)");
  cli.add_option("requests", "6", "import requests per connection");
  cli.add_option("flushes", "4",
                 "pipelined-aggregation tree_flush_count values added per treed "
                 "fan-in (0, the per-wave baseline, always runs)");
  cli.add_flag("sharded", "add a fanin=max,shards=2 point per rank count");
  cli.add_flag("json", "emit machine-readable JSON instead of the table");
  if (!cli.parse(argc, argv)) return 0;

  const auto ranks = util::parse_int_list(cli.get("ranks"));
  const auto fanins = util::parse_int_list(cli.get("fanins"));
  const auto flushes = util::parse_int_list(cli.get("flushes"));
  const int requests = static_cast<int>(cli.get_int("requests"));
  const bool json = cli.get_bool("json");

  std::vector<Row> rows;
  for (long long n : ranks) {
    for (long long f : fanins) {
      rows.push_back(run_point(static_cast<int>(n), static_cast<int>(f), 1, requests, 0));
      // Pipelined-aggregation dimension: same point with partial frames
      // flushed every `flush` entries instead of once per drained wave.
      if (f >= 2 && n > f) {
        for (long long flush : flushes) {
          if (flush <= 0) continue;
          rows.push_back(run_point(static_cast<int>(n), static_cast<int>(f), 1, requests,
                                   static_cast<int>(flush)));
        }
      }
    }
    if (cli.get_bool("sharded")) {
      long long fmax = 0;
      for (long long f : fanins) fmax = std::max(fmax, f);
      if (fmax >= 2) {
        rows.push_back(
            run_point(static_cast<int>(n), static_cast<int>(fmax), 2, requests, 0));
      }
    }
  }

  if (json) {
    std::printf("{\n  \"suite\": \"rep\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::printf("%s%s\n", json_row(rows[i]).c_str(), i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
  }

  std::printf("== rep scalability: rank x fan-in sweep (2 conns -> 1-rank importer) ==\n\n");
  util::TableWriter table({"ranks", "fan-in", "shards", "flush", "rep in", "in/rank",
                           "frames in", "entries", "answers", "matched", "end time s"});
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.ranks),
                   row.fanin == 0 ? "flat" : std::to_string(row.fanin),
                   std::to_string(row.shards),
                   row.flush == 0 ? "wave" : std::to_string(row.flush),
                   std::to_string(row.rep.wire_in),
                   util::TableWriter::fmt(
                       static_cast<double>(row.rep.wire_in) / row.ranks, 2),
                   std::to_string(row.rep.frames_in),
                   std::to_string(row.rep.frame_entries_in),
                   std::to_string(row.rep.answers_sent), std::to_string(row.matched),
                   util::TableWriter::fmt(row.end_time, 4)});
  }
  table.print(std::cout);
  std::printf("\nnote: with fan-in F the rep hears O(F log K) batched frames per\n"
              "collective wave instead of O(K) per-rank messages; the answers are\n"
              "identical at every point (same checksum column upstream in --json).\n");
  return 0;
}
