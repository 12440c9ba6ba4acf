#include "core/report.hpp"

#include <ostream>

#include "util/table.hpp"

namespace ccf::core {

void print_run_report(const CoupledSystem& system, std::ostream& os) {
  for (const auto& prog : system.config().programs()) {
    os << "program " << prog.name << " (" << prog.nprocs << " processes";
    const RepResult& rep = system.rep_result(prog.name);
    if (rep.requests_forwarded > 0 || rep.buddy_helps_sent > 0) {
      os << "; rep: " << rep.requests_forwarded << " requests, " << rep.answers_sent
         << " answers, " << rep.buddy_helps_sent << " buddy-helps";
    }
    if (rep.frames_in > 0 || rep.frames_out > 0) {
      os << "; tree: " << rep.frames_in << " frames in (" << rep.frame_entries_in
         << " entries), " << rep.frames_out << " frames out (" << rep.frame_entries_out
         << " entries)";
    }
    os << ")\n";

    bool any_exports = false, any_imports = false;
    for (int r = 0; r < prog.nprocs; ++r) {
      const ProcStats& stats = system.proc_stats(prog.name, r);
      any_exports |= !stats.exports.empty();
      any_imports |= !stats.imports.empty();
    }

    if (any_exports) {
      util::TableWriter table({"rank", "region", "exports", "memcpys", "skips", "transfers",
                               "helps", "stalls", "T_ub ms", "cp/B", "peakB", "evict",
                               "spillB"});
      for (int r = 0; r < prog.nprocs; ++r) {
        for (const auto& e : system.proc_stats(prog.name, r).exports) {
          table.add_row({std::to_string(r), e.region, std::to_string(e.exports),
                         std::to_string(e.buffer.stores), std::to_string(e.buffer.skips),
                         std::to_string(e.transfers), std::to_string(e.buddy_helps_received),
                         std::to_string(e.stalls), util::TableWriter::fmt(e.t_ub() * 1e3, 3),
                         util::TableWriter::fmt(e.copies_per_delivered_byte(), 2),
                         std::to_string(e.buffer.peak_bytes),
                         std::to_string(e.buffer.evictions),
                         std::to_string(e.buffer.spill_bytes)});
        }
      }
      if (table.rows() > 0) table.print(os);
    }
    if (any_imports) {
      util::TableWriter table({"rank", "region", "imports", "matches", "no-match"});
      for (int r = 0; r < prog.nprocs; ++r) {
        for (const auto& i : system.proc_stats(prog.name, r).imports) {
          table.add_row({std::to_string(r), i.region, std::to_string(i.imports),
                         std::to_string(i.matches), std::to_string(i.no_matches)});
        }
      }
      if (table.rows() > 0) table.print(os);
    }

    // Failure-tolerance accounting: printed only when something actually
    // happened, so lossless runs keep the exact report layout.
    std::uint64_t retries = 0, stale = 0, commit_retries = 0, done_retries = 0;
    std::uint64_t dup_req = 0, reordered = 0, degraded = 0, departed = 0;
    for (int r = 0; r < prog.nprocs; ++r) {
      const ProcStats& stats = system.proc_stats(prog.name, r);
      retries += stats.ft.request_retries;
      stale += stats.ft.stale_answers;
      commit_retries += stats.ft.commit_retries;
      done_retries += stats.ft.conn_done_retries;
      departed += stats.ft.rep_departed ? 1 : 0;
      for (const auto& e : stats.exports) {
        dup_req += e.duplicate_requests;
        reordered += e.reordered_requests;
        degraded += e.degraded_conns;
      }
    }
    if (retries + stale + commit_retries + done_retries + dup_req + reordered + degraded +
            departed >
        0) {
      os << "  fault tolerance: " << retries << " request retries, " << stale
         << " stale answers, " << commit_retries << " commit retries, " << done_retries
         << " conn-done retries, " << dup_req << " duplicate requests, " << reordered
         << " reordered requests, " << degraded << " degraded conns, " << departed
         << " departed procs\n";
    }
    os << "\n";
  }
  os << "end time: " << system.end_time() << " " << system.clock() << " seconds\n";
}

void write_run_report_csv(const CoupledSystem& system, const std::string& path) {
  util::CsvWriter csv(path);
  csv.write_row({"program", "rank", "kind", "region", "exports", "memcpys", "skips",
                 "transfers", "helps", "stalls", "t_ub_seconds", "imports", "matches",
                 "no_matches", "dup_requests", "reordered_requests", "degraded_conns",
                 "request_retries", "stale_answers", "bytes_delivered", "bytes_pack_copied",
                 "copies_per_byte", "sends_aliased", "sends_packed", "peak_buffered_bytes",
                 "evictions", "spill_bytes", "restores", "rep_requests", "rep_answers",
                 "rep_helps", "rep_pressure", "transport"});
  for (const auto& prog : system.config().programs()) {
    // Fabric the program's traffic rode (sim|shm|tcp), repeated on every
    // one of its rows so the CSV is self-describing per program.
    const std::string transport = system.transport_kind(prog.name);
    // One control-plane row per program: the rep layer's per-message-class
    // totals (summed across shards). rank -1 marks the row as belonging to
    // the representative, not any worker process.
    const RepResult& rep = system.rep_result(prog.name);
    csv.write_row({prog.name, "-1", "rep", "-", "0", "0", "0", "0", "0", "0", "0", "0", "0",
                   "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0",
                   std::to_string(rep.requests_forwarded), std::to_string(rep.answers_sent),
                   std::to_string(rep.buddy_helps_sent),
                   std::to_string(rep.pressure_signals + rep.pressure_notices +
                                  rep.pressure_broadcasts),
                   transport});
    for (int r = 0; r < prog.nprocs; ++r) {
      const ProcStats& stats = system.proc_stats(prog.name, r);
      for (const auto& e : stats.exports) {
        csv.write_row({prog.name, std::to_string(r), "export", e.region,
                       std::to_string(e.exports), std::to_string(e.buffer.stores),
                       std::to_string(e.buffer.skips), std::to_string(e.transfers),
                       std::to_string(e.buddy_helps_received), std::to_string(e.stalls),
                       util::TableWriter::fmt(e.t_ub(), 9), "0", "0", "0",
                       std::to_string(e.duplicate_requests),
                       std::to_string(e.reordered_requests),
                       std::to_string(e.degraded_conns), "0", "0",
                       std::to_string(e.bytes_delivered), std::to_string(e.bytes_pack_copied),
                       util::TableWriter::fmt(e.copies_per_delivered_byte(), 4),
                       std::to_string(e.sends_aliased), std::to_string(e.sends_packed),
                       std::to_string(e.buffer.peak_bytes),
                       std::to_string(e.buffer.evictions),
                       std::to_string(e.buffer.spill_bytes),
                       std::to_string(e.buffer.restores), "0", "0", "0", "0", transport});
      }
      for (const auto& i : stats.imports) {
        csv.write_row({prog.name, std::to_string(r), "import", i.region, "0", "0", "0", "0",
                       "0", "0", "0", std::to_string(i.imports), std::to_string(i.matches),
                       std::to_string(i.no_matches), "0", "0", "0",
                       std::to_string(stats.ft.request_retries),
                       std::to_string(stats.ft.stale_answers), "0", "0", "0", "0", "0", "0",
                       "0", "0", "0", "0", "0", "0", "0", transport});
      }
    }
  }
  csv.flush();
}

}  // namespace ccf::core
