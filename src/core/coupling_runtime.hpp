// The process-side coupling API (paper §3, Figure 1).
//
// A program's worker processes construct one CouplingRuntime each, define
// their regions once, commit() (a collective that exchanges region
// geometry between programs through the reps), and then export/import as
// often as they like. finalize() declares end-of-stream and enters the
// framework service loop until the rep shuts the process down.
//
//   CouplingRuntime rt(ctx, config, layout, "F", rank);
//   rt.define_export_region("r1", decomp);
//   rt.commit();
//   for (...) { compute(); rt.export_region("r1", t, data); }
//   rt.finalize();
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/config.hpp"
#include "core/control_route.hpp"
#include "core/export_state.hpp"
#include "core/layout.hpp"
#include "core/options.hpp"
#include "core/stats.hpp"
#include "dist/dist_array.hpp"
#include "dist/redistribute.hpp"
#include "mem/governor.hpp"
#include "mem/spill.hpp"

namespace ccf::core {

class CouplingRuntime {
 public:
  CouplingRuntime(runtime::ProcessContext& ctx, const Config& config,
                  const DeploymentLayout& layout, std::string program_name, int rank,
                  FrameworkOptions options = {});

  /// Declares a region this process will export. The decomposition's rank
  /// `rank()` block is this process's contribution.
  void define_export_region(const std::string& name, const dist::BlockDecomposition& decomp);

  /// Declares a region this process will import into.
  void define_import_region(const std::string& name, const dist::BlockDecomposition& decomp);

  /// Collective: exchanges region geometry with all connected programs
  /// via the reps and builds the redistribution schedules. Must be called
  /// once, after all define_* calls and before any export/import.
  void commit();

  /// Collective export of a new version of the region at timestamp `t`
  /// (strictly increasing per region). `data` must use the decomposition
  /// the region was defined with. Unconnected regions are a near-no-op
  /// (the paper's low-overhead case).
  void export_region(const std::string& name, Timestamp t, const dist::DistArray2D<double>& data);

  struct ImportStatus {
    MatchResult result = MatchResult::NoMatch;
    Timestamp matched = kNeverExported;
    bool ok() const { return result == MatchResult::Match; }
  };

  /// Collective import request for timestamp `x` (strictly increasing per
  /// region). On a match, `out` is filled with the matched version.
  ImportStatus import_region(const std::string& name, Timestamp x,
                             dist::DistArray2D<double>& out);

  /// Non-blocking import (paper §6): issues the request and returns
  /// immediately, letting the importer overlap computation with the
  /// matching/transfer. Requests may be pipelined; import_wait() must be
  /// called once per ticket, in issue order per region (collectively).
  struct ImportTicket {
    std::string region;
    std::uint32_t seq = 0;
    Timestamp requested = 0;
  };

  ImportTicket import_request(const std::string& name, Timestamp x);

  /// Completes a pipelined import: blocks for the answer (and, on a
  /// match, the data) of the oldest unfinished ticket of the region.
  ImportStatus import_wait(const ImportTicket& ticket, dist::DistArray2D<double>& out);

  /// Unfinished pipelined requests on a region.
  std::size_t pending_imports(const std::string& name) const;

  /// Collective teardown: answers outstanding requests decisively, then
  /// serves framework traffic until the rep's shutdown message.
  void finalize();

  int rank() const { return rank_; }
  const std::string& program() const { return program_; }

  /// Appends `value` to the series `name` in this process's stats
  /// (ProcStats::published). App results a body computes reach the harness
  /// this way in every execution mode; a forked body's writes to captured
  /// variables stay in the child.
  void publish(const std::string& name, double value);

  /// Per-process statistics, trace events included (valid any time;
  /// complete after finalize()).
  ProcStats stats_snapshot() const;

 private:
  struct ExportRegion {
    dist::BlockDecomposition decomp;
    std::unique_ptr<ExportRegionState> state;  ///< null when unconnected
    std::uint64_t unconnected_exports = 0;
  };

  struct ImportRegion {
    explicit ImportRegion(dist::BlockDecomposition d) : decomp(std::move(d)) {}
    dist::BlockDecomposition decomp;
    int conn_id = -1;
    std::unique_ptr<dist::RedistSchedule> schedule;  ///< this rank's receive pieces
    std::vector<ProcId> exporter_procs;
    std::uint32_t next_seq = 0;
    Timestamp last_request = kNeverExported;
    std::uint32_t next_wait_seq = 0;  ///< oldest ticket not yet waited on
    ImportRegionStats stats;
  };

  /// What a blocked worker waits for: the blocking points of
  /// docs/PROTOCOL.md. A wait that gives up names it in its TimeoutError.
  struct Wait {
    enum Kind { Geometry, Answer, BufferSpace, Shutdown } kind;
    int conn = -1;          ///< answer wait: the import connection
    std::uint32_t seq = 0;  ///< answer wait: the request
  };

  /// The one blocking wait. Until `done()` holds (it runs before every
  /// receive), receives rep->proc control traffic and hands each message
  /// to `on_message`; in failure-tolerant mode a silent deadline calls
  /// `on_tick()`, which returns false to end the wait. The tick rules of
  /// each kind are described at the definition.
  template <class Done, class OnMessage, class OnTick>
  void wait_for(const Wait& what, Done&& done, OnMessage&& on_message, OnTick&& on_tick);

  /// Processes all queued rep->proc control traffic in arrival order.
  void drain_control();

  /// The per-message step of every wait but the geometry wait, and of
  /// drain_control: notes that the rep is alive, records a ShutdownProc,
  /// and serves everything else.
  void handle_control(const runtime::Message& m);
  ExportRegionState* state_for_conn(std::uint32_t conn);

  /// Parks an answer for a later import_wait; duplicates and answers for
  /// already-consumed sequence numbers are discarded (counted as stale).
  void stash_answer(const AnswerMsg& answer);

  /// Emits one ProcPressure control message to the rep per watermark
  /// transition of the governor (no-op when ungoverned or level-stable).
  void signal_pressure();

  /// Tree fallback (docs/PROTOCOL.md): when nothing — not even a relayed
  /// heartbeat — has arrived from the parent sub-rep for a whole departure
  /// window, the sub-rep is presumed dead. The route drops to the direct
  /// shard layer and a MetaNudge announces the switch to every shard (the
  /// rep marks the rank as direct and bypasses the tree for it from then
  /// on). No-op when already direct or departure detection is off.
  void maybe_reparent();

  /// Acknowledges (or re-acknowledges) shard `shard`'s geometry broadcast.
  void send_meta_ack(int shard);

  /// Blocks for the answer to request `seq` on `region`, serving framework
  /// control traffic meanwhile (deadlock freedom for bidirectional
  /// couplings). In failure-tolerant mode every tick re-sends the request.
  AnswerMsg await_answer(ImportRegion& region, std::uint32_t seq, Timestamp requested);

  runtime::ProcessContext& ctx_;
  const Config& config_;
  const DeploymentLayout& layout_;
  std::string program_;
  int rank_;
  FrameworkOptions options_;
  ControlRoute route_;  ///< where control traffic goes: parent sub-rep or shards
  bool committed_ = false;
  bool finalized_ = false;
  bool shutdown_seen_ = false;
  std::set<int> shutdown_shards_;  ///< shards whose ShutdownProc arrived
  std::map<std::string, ExportRegion> export_regions_;
  std::map<std::string, ImportRegion> import_regions_;
  /// Answers parked per connection, keyed by request seq (the fabric may
  /// deliver them out of order; import_wait consumes them in issue order).
  std::map<int, std::map<std::uint32_t, AnswerMsg>> stashed_answers_;
  ProcCounters counters_;  ///< governor filled in by stats_snapshot()
  std::map<std::string, std::vector<double>> published_;
  double last_rep_seen_ = 0;  ///< ctx.now() of the last message from the rep

  // Buffer governance (src/mem; both null with the default MemoryOptions).
  std::unique_ptr<mem::MemoryGovernor> governor_;
  std::unique_ptr<mem::SpillStore> spill_;
  /// Last process-level pressure state signalled to the rep: the OR of
  /// the governor's level and the transport's egress congestion. With the
  /// modeled fabrics transport pressure is constant false, making this
  /// exactly the governor's signaled level (the pre-transport behavior).
  bool sent_pressure_level_ = false;
  /// Import connections whose exporter announced BufferPressure.
  std::set<int> pressured_conns_;
};

}  // namespace ccf::core
