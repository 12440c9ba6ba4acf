// Export-side per-region runtime state: buffering decisions, local match
// decisions, buddy-help handling, and data shipment (paper §4, §4.1).
//
// One instance lives in each exporter process per exported region. Every
// connected importing program is a "connection" with its own matcher
// history, request queue and skip thresholds; snapshots live in a shared
// BufferPool with per-connection need bits.
//
// The skip rules implemented here are exactly the paper's:
//  * a request for x (policy/tol -> region [lo, hi]) lets the process
//    discard and skip everything below lo (Fig. 5 line 7, Fig. 8 line 7);
//  * a resolved match m (decided locally or learned via buddy-help)
//    lets the process skip every export below m — even exports it has not
//    produced yet, which is buddy-help's whole benefit (Fig. 5 lines
//    10-13, Fig. 7 lines 8-11);
//  * inside an unresolved region, a newly exported better candidate
//    supersedes (frees) the previous one (Fig. 8 lines 9-18);
//  * everything else above the thresholds is buffered, because a future
//    request could still name it (Fig. 3 scenarios).
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/control_route.hpp"
#include "core/matcher.hpp"
#include "core/options.hpp"
#include "core/protocol.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "dist/schedule.hpp"
#include "dist/transfer_stats.hpp"
#include "mem/eviction.hpp"
#include "runtime/process_context.hpp"

namespace ccf::core {

using runtime::ProcessContext;
using runtime::ProcId;

/// Static description of one outgoing connection of an exported region.
struct ExportConnConfig {
  int conn_id = 0;  ///< global connection index (also the buffer-pool bit)
  MatchPolicy policy = MatchPolicy::REGL;
  double tolerance = 0;
  dist::RedistSchedule schedule;       ///< exporter layout -> importer layout
  std::vector<ProcId> importer_procs;  ///< importer ranks' global ids
  /// False when this process's block lies outside the connection's
  /// transfer window: it still participates in the collective matching
  /// protocol (Property 1) but never buffers or ships data for the
  /// connection.
  bool contributes = true;
};

class ExportRegionState {
 public:
  ExportRegionState(std::string region_name, dist::Box local_box, int my_rank,
                    std::vector<ExportConnConfig> conns, const FrameworkOptions& options,
                    ProcId rep_id);

  /// The collective export call: decides buffer/skip per connection,
  /// snapshots if needed, ships any now-satisfiable matched transfer, and
  /// re-evaluates outstanding requests against the new history.
  void on_export(Timestamp t, const double* local_block, ProcessContext& ctx);

  /// A request forwarded by the rep. Sends this process's response
  /// (possibly PENDING) back to the rep via `ctx`. Requests are processed
  /// exactly once per sequence number: duplicates get their original
  /// response replayed, and requests arriving ahead of a gap are parked
  /// until the gap fills (the fabric may duplicate or reorder).
  void on_forwarded_request(const RequestMsg& msg, ProcessContext& ctx);

  /// The rep's buddy-help answer for a request this process had PENDING.
  void on_buddy_help(const AnswerMsg& msg, ProcessContext& ctx);

  /// End-of-stream: answers all outstanding requests decisively and
  /// resolves them. After this, forwarded requests are answered
  /// immediately (the matcher is frozen) and buffered matches can still
  /// be shipped.
  void finalize(ProcessContext& ctx);

  /// The importing program of `conn_id` finished: release every snapshot
  /// held for it and skip all future buffering on that connection.
  void on_conn_closed(std::uint32_t conn_id, ProcessContext& ctx);

  /// Liveness escape hatch (failure-tolerant mode): force-close every
  /// still-open connection so a process stalled on a finite buffer against
  /// a dead importer releases its snapshots and continues in degraded,
  /// unconnected mode. Returns the number of connections closed.
  std::size_t degrade_open_conns(ProcessContext& ctx);

  /// Redirects this region's rep-bound control messages (ProcResponse)
  /// through a shared route — the aggregation tree's leaf sub-rep or the
  /// owning rep shard (docs/PROTOCOL.md). `route` must outlive this object;
  /// null restores the default direct route to the ctor's rep id. Called by
  /// the runtime right after construction.
  void set_control_route(const ControlRoute* route) {
    route_ = route != nullptr ? route : &default_route_;
  }

  /// Wires the process-wide memory governor and spill store into this
  /// region's pool (both may be null). Called by the runtime right after
  /// construction, before any export.
  void attach_memory(mem::MemoryGovernor* governor, mem::SpillStore* spill) {
    pool_.attach_memory(governor, spill);
  }

  /// Demotes resident snapshots to the spill tier (decidability-ranked;
  /// see mem/eviction.hpp) until `bytes_needed` resident bytes are
  /// reclaimed or nothing spillable remains. Returns bytes reclaimed.
  /// No-op without a spill store.
  std::size_t shed(std::size_t bytes_needed);

  /// Bytes one snapshot of this process's block occupies.
  std::size_t snapshot_bytes() const {
    return static_cast<std::size_t>(local_box_.count()) * sizeof(double);
  }

  /// True when every connection of this region has been closed.
  bool all_conns_closed() const;

  /// Whether blocking on framework traffic can make progress: stalling is
  /// only sound while no request is outstanding and no announced match is
  /// waiting to be produced (otherwise this process itself must advance
  /// to unblock the system — the cap is then exceeded softly).
  bool safe_to_stall() const;

  /// Accounts one backpressure stall of `seconds` (finite-buffer mode).
  void record_stall(double seconds) {
    ++stats_.stalls;
    stats_.stall_seconds += seconds;
  }

  bool handles_conn(std::uint32_t conn_id) const;

  const std::string& region_name() const { return name_; }

  /// Stats with the buffer-pool, data-plane, and matcher counters folded in.
  ExportRegionStats stats_snapshot() const {
    ExportRegionStats s = stats_;
    s.buffer = pool_.stats();
    s.bytes_delivered = xfer_.bytes_delivered;
    s.bytes_pack_copied = xfer_.bytes_pack_copied;
    s.sends_aliased = xfer_.sends_aliased;
    s.sends_packed = xfer_.sends_packed;
    for (const auto& c : conns_) {
      const ExportHistory::EvalCounters& ec = c.history.eval_counters();
      s.matcher_evaluations += ec.evaluations;
      s.matcher_pending += ec.pending;
    }
    return s;
  }

  /// Called by the runtime with the measured duration of each export call
  /// (drain + buffering + sends) — the Figure 4 series.
  void record_export_duration(Timestamp t, double seconds) {
    stats_.export_timestamps.push_back(t);
    stats_.export_seconds.push_back(seconds);
  }

  Trace& trace() { return trace_; }
  const BufferPool& pool() const { return pool_; }
  std::size_t outstanding_requests() const;

 private:
  struct Outstanding {
    std::uint32_t seq = 0;
    MatchQuery query;
    Interval region;
    std::optional<Timestamp> candidate;  ///< best buffered candidate so far
    double unnecessary_seconds = 0;      ///< Eq.(1) accumulator for this request
    bool responded_decisive = false;
    /// Entry id in the history's pending-request interval index; 0 when
    /// the request resolved decisively on arrival and was never indexed.
    /// The index and the outstanding queue stay FIFO-aligned: entry i of
    /// one is entry i of the other.
    std::uint64_t index_id = 0;
  };

  struct PendingSend {
    std::uint32_t seq = 0;
    Timestamp match = 0;
  };

  struct Conn {
    explicit Conn(ExportConnConfig c) : cfg(std::move(c)) {}
    ExportConnConfig cfg;
    ExportHistory history;
    std::deque<Outstanding> outstanding;
    std::deque<PendingSend> pending_sends;
    Timestamp low_water = kNeverExported;  ///< skip/free strictly below this
    Timestamp last_request = kNeverExported;
    bool closed = false;  ///< importer program finished; never buffer again
    Timestamp last_region_lo = kNeverExported;  ///< lo of the newest request's region
    /// Recently resolved requests, for validating racy buddy-help
    /// duplicates and replaying responses to retried requests (bounded;
    /// see resolve_front).
    std::map<std::uint32_t, AnswerMsg> resolved;
    /// Next request sequence number this process will accept; lower seqs
    /// are duplicates, higher ones are parked until the gap fills.
    std::uint32_t next_request_seq = 0;
    std::map<std::uint32_t, RequestMsg> parked_requests;
  };

  Conn& conn_of(std::uint32_t conn_id);
  void process_request(Conn& conn, const RequestMsg& msg, ProcessContext& ctx);
  void replay_response(Conn& conn, std::uint32_t seq, ProcessContext& ctx);
  void send_response(Conn& conn, std::uint32_t seq, const MatchAnswer& answer,
                     ProcessContext& ctx);
  void resolve_front(Conn& conn, MatchResult result, Timestamp matched, ProcessContext& ctx);
  void send_data(Conn& conn, std::uint32_t seq, Timestamp match, ProcessContext& ctx);
  void check_local_decisions(Conn& conn, ProcessContext& ctx);
  void raise_low_water(Conn& conn, Timestamp threshold, Outstanding* attribute_to,
                       ProcessContext& ctx);
  void trace_removed(const std::vector<BufferPool::Freed>& freed, ProcessContext& ctx);

  std::string name_;
  dist::Box local_box_;
  int my_rank_;
  std::vector<Conn> conns_;
  FrameworkOptions options_;
  ProcId rep_id_;
  ControlRoute default_route_;  ///< direct to rep_id_, single shard
  const ControlRoute* route_ = nullptr;
  BufferPool pool_;
  ExportRegionStats stats_;
  dist::TransferStats xfer_;  ///< data-plane copy accounting across all sends
  Trace trace_;
};

}  // namespace ccf::core
