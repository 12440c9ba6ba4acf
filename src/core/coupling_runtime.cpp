#include "core/coupling_runtime.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace ccf::core {

using runtime::MatchSpec;
using runtime::Message;
using transport::kAnyTag;
using transport::Reader;
using transport::Writer;

namespace {

// One logical proc->rep control send for program-wide (not per-connection)
// tags: once to the parent sub-rep (the top-level sub-rep duplicates
// program-wide tags to every shard), or to every shard when the worker's
// parent is the root.
void send_up_all(runtime::ProcessContext& ctx, const ControlRoute& route, Tag tag,
                 const transport::Payload& payload) {
  if (route.has_parent) {
    ctx.send(route.parent, tag, payload);
    return;
  }
  for (int s = 0; s < route.shards; ++s) ctx.send(route.base + s, tag, payload);
}

}  // namespace

// Lossless mode blocks in a plain receive: in virtual time every deadline
// receive queues a Deadline event, so even an unreachable deadline would
// change the event stream. In failure-tolerant mode a wait ticks when its
// deadline passes with nothing received:
//   - geometry and answer: a first timeout staggered by rank (retries do
//     not stampede), backoff, re-parenting, and giving up after
//     kMaxRetries ticks;
//   - shutdown: the same without the retry limit (its tick's departure
//     check bounds it);
//   - buffer space: one deadline a departure window past stall entry,
//     without backoff, retry count or re-parenting.
template <class Done, class OnMessage, class OnTick>
void CouplingRuntime::wait_for(const Wait& what, Done&& done, OnMessage&& on_message,
                               OnTick&& on_tick) {
  // Re-read before every receive: a tick may re-parent the route.
  auto match = [&] {
    MatchSpec spec = route_.control_match();
    // With several shards one may forward a request while another's
    // geometry is still on its way; no export state exists yet to take it,
    // so the geometry wait leaves everything but the broadcast queued.
    if (what.kind == Wait::Geometry) spec.tag = kTagRegionMetaBcast;
    return spec;
  };
  const bool stall = what.kind == Wait::BufferSpace;
  const double stall_deadline = ctx_.now() + options_.departure_window_seconds();
  double timeout = options_.retry_timeout_seconds * (1.0 + 0.1 * rank_);
  int retries = 0;
  while (!done()) {
    std::optional<Message> m;
    if (!options_.failure_tolerance()) {
      m = ctx_.recv(match());
    } else {
      m = ctx_.recv_until(match(), stall ? stall_deadline : ctx_.now() + timeout);
    }
    if (m) {
      on_message(*m);
      continue;
    }
    if (!stall) {
      if (what.kind != Wait::Shutdown && ++retries > kMaxRetries) {
        const std::string wait = what.kind == Wait::Geometry
                                     ? std::string("geometry wait")
                                     : "answer wait on connection " + std::to_string(what.conn) +
                                           " seq " + std::to_string(what.seq);
        throw util::TimeoutError(wait + ": nothing received after " +
                                 std::to_string(kMaxRetries) + " retries at process " +
                                 std::to_string(ctx_.id()));
      }
      maybe_reparent();
    }
    if (!on_tick()) return;
    timeout = std::min(timeout * kRetryBackoffFactor, options_.backoff_cap_seconds());
  }
}

CouplingRuntime::CouplingRuntime(runtime::ProcessContext& ctx, const Config& config,
                                 const DeploymentLayout& layout, std::string program_name,
                                 int rank, FrameworkOptions options)
    : ctx_(ctx),
      config_(config),
      layout_(layout),
      program_(std::move(program_name)),
      rank_(rank),
      options_(options) {
  const ProgramLayout& pl = layout_.program(program_);
  CCF_REQUIRE(rank_ >= 0 && rank_ < pl.nprocs,
              "rank " << rank_ << " outside program " << program_);
  CCF_REQUIRE(ctx_.id() == pl.proc(rank_),
              "process id " << ctx_.id() << " does not match layout for " << program_
                            << " rank " << rank_);
  route_ = ControlRoute{pl.rep, pl.shards, 0, false};
  if (const TreeNode up = pl.parent(TreeNode{0, rank_}); !pl.is_root(up)) {
    route_.parent = pl.id(up);
    route_.has_parent = true;
  }
  if (options_.memory.governed()) {
    governor_ = std::make_unique<mem::MemoryGovernor>(options_.memory.budget_bytes,
                                                      kLowWatermark, kHighWatermark);
    if (!options_.memory.spill_directory.empty()) {
      spill_ = std::make_unique<mem::SpillStore>(options_.memory.spill_directory);
    }
  }
}

void CouplingRuntime::define_export_region(const std::string& name,
                                           const dist::BlockDecomposition& decomp) {
  CCF_REQUIRE(!committed_, "define_export_region after commit()");
  CCF_REQUIRE(!export_regions_.count(name) && !import_regions_.count(name),
              "region '" << name << "' defined twice");
  CCF_REQUIRE(decomp.nprocs() == layout_.program(program_).nprocs,
              "region decomposition uses " << decomp.nprocs() << " processes, program has "
                                           << layout_.program(program_).nprocs);
  export_regions_.emplace(name, ExportRegion{decomp, nullptr, 0});
}

void CouplingRuntime::define_import_region(const std::string& name,
                                           const dist::BlockDecomposition& decomp) {
  CCF_REQUIRE(!committed_, "define_import_region after commit()");
  CCF_REQUIRE(!export_regions_.count(name) && !import_regions_.count(name),
              "region '" << name << "' defined twice");
  CCF_REQUIRE(decomp.nprocs() == layout_.program(program_).nprocs,
              "region decomposition uses " << decomp.nprocs() << " processes, program has "
                                           << layout_.program(program_).nprocs);
  ImportRegion region(decomp);
  region.stats.region = name;
  import_regions_.emplace(name, std::move(region));
}

void CouplingRuntime::commit() {
  CCF_REQUIRE(!committed_, "commit() called twice");
  committed_ = true;

  // Rank 0 ships the program's region definitions to the rep, which
  // validates them against the configuration and swaps geometry with the
  // connected programs' reps.
  transport::Payload defs_payload;
  if (rank_ == 0) {
    Writer w;
    w.put<std::uint32_t>(static_cast<std::uint32_t>(export_regions_.size()));
    for (const auto& [name, region] : export_regions_) {
      RegionMeta meta{name, region.decomp.rows(), region.decomp.cols(),
                      region.decomp.proc_rows(), region.decomp.proc_cols()};
      meta.encode_into(w);
    }
    w.put<std::uint32_t>(static_cast<std::uint32_t>(import_regions_.size()));
    for (const auto& [name, region] : import_regions_) {
      RegionMeta meta{name, region.decomp.rows(), region.decomp.cols(),
                      region.decomp.proc_rows(), region.decomp.proc_cols()};
      meta.encode_into(w);
    }
    defs_payload = w.take();
    send_up_all(ctx_, route_, kTagRegionDefs, defs_payload);
  }

  // Every rep shard broadcasts the peer geometry of the connections it
  // owns:
  //   u32 shard; u32 n; n x { u32 conn, RegionMeta }.
  // A process is committed once it holds all shards' pieces.
  std::map<std::uint32_t, RegionMeta> peer_meta;
  std::set<int> meta_seen;
  auto absorb_meta = [&](const Message& m) {
    Reader r(m.payload);
    const int shard = static_cast<int>(r.get<std::uint32_t>());
    const auto n = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto conn = r.get<std::uint32_t>();
      peer_meta.emplace(conn, RegionMeta::decode_from(r));
    }
    meta_seen.insert(shard);
    last_rep_seen_ = ctx_.now();
    // In tolerant mode the rep must not shut down until every worker holds
    // the geometry (a peer program may finish — and trigger rep exit —
    // before a dropped broadcast was recovered), so receipt is acknowledged.
    if (options_.failure_tolerance()) send_meta_ack(shard);
  };
  wait_for(
      Wait{Wait::Geometry}, [&] { return static_cast<int>(meta_seen.size()) >= route_.shards; },
      absorb_meta,
      [&] {
        // The definitions, the rep-to-rep geometry shipment, or a broadcast
        // itself may have been lost: re-send what we own, and nudge every
        // shard to replay its broadcast.
        ++counters_.ft.commit_retries;
        if (rank_ == 0) send_up_all(ctx_, route_, kTagRegionDefs, defs_payload);
        send_up_all(ctx_, route_, kTagMetaNudge, transport::empty_payload());
        return true;
      });

  // Build export-side state machines.
  for (auto& [name, region] : export_regions_) {
    const auto conn_ids = config_.connections_exporting(program_, name);
    if (conn_ids.empty()) continue;  // unconnected: stays a no-op region
    std::vector<ExportConnConfig> conn_configs;
    for (int conn_id : conn_ids) {
      const ConnectionSpec& spec = config_.connections()[static_cast<std::size_t>(conn_id)];
      auto it = peer_meta.find(static_cast<std::uint32_t>(conn_id));
      CCF_CHECK(it != peer_meta.end(), "missing peer metadata for connection " << conn_id);
      const RegionMeta& peer = it->second;
      // The transferred window: a sub-box of the exporter domain the
      // importer's whole region maps onto (default: the whole domain).
      const dist::Box window = spec.exporter_window.value_or(region.decomp.domain());
      CCF_REQUIRE(region.decomp.domain().contains(window),
                  "connection " << conn_id << ": transfer window " << window
                                << " escapes the exported region's domain");
      CCF_REQUIRE(peer.rows == window.rows() && peer.cols == window.cols(),
                  "region dimension mismatch on connection " << conn_id << ": window "
                      << window.rows() << "x" << window.cols() << ", importer " << peer.rows
                      << "x" << peer.cols);
      dist::BlockDecomposition importer_decomp(peer.rows, peer.cols, peer.proc_rows,
                                               peer.proc_cols);
      ExportConnConfig cfg{conn_id, spec.policy, spec.tolerance,
                           dist::RedistSchedule::for_exporter(rank_, region.decomp,
                                                              importer_decomp, window,
                                                              window.row_begin,
                                                              window.col_begin),
                           layout_.program(spec.importer_program).proc_ids()};
      cfg.contributes = !cfg.schedule.pieces().empty();
      conn_configs.push_back(std::move(cfg));
    }
    region.state = std::make_unique<ExportRegionState>(
        name, region.decomp.box_of(rank_), std::move(conn_configs), options_, route_);
    region.state->attach_memory(governor_.get(), spill_.get());
  }

  // Build import-side schedules.
  for (auto& [name, region] : import_regions_) {
    const auto conn = config_.connection_importing(program_, name);
    CCF_CHECK(conn.has_value(),
              "import region '" << name << "' survived validation without an exporter");
    region.conn_id = *conn;
    const ConnectionSpec& spec = config_.connections()[static_cast<std::size_t>(*conn)];
    auto it = peer_meta.find(static_cast<std::uint32_t>(*conn));
    CCF_CHECK(it != peer_meta.end(), "missing peer metadata for connection " << *conn);
    const RegionMeta& peer = it->second;
    dist::BlockDecomposition exporter_decomp(peer.rows, peer.cols, peer.proc_rows,
                                             peer.proc_cols);
    const dist::Box window =
        spec.exporter_window.value_or(dist::Box{0, peer.rows, 0, peer.cols});
    CCF_REQUIRE((dist::Box{0, peer.rows, 0, peer.cols}.contains(window)),
                "connection " << *conn << ": transfer window " << window
                              << " escapes the exporter's domain");
    CCF_REQUIRE(window.rows() == region.decomp.rows() && window.cols() == region.decomp.cols(),
                "region dimension mismatch on connection " << *conn << ": window "
                    << window.rows() << "x" << window.cols() << ", imported region "
                    << region.decomp.rows() << "x" << region.decomp.cols());
    region.schedule = std::make_unique<dist::RedistSchedule>(dist::RedistSchedule::for_importer(
        rank_, exporter_decomp, region.decomp, window, window.row_begin, window.col_begin));
    region.exporter_procs = layout_.program(spec.exporter_program).proc_ids();
  }
}

void CouplingRuntime::signal_pressure() {
  // Process-level pressure is the OR of local memory pressure and the
  // transport's egress congestion (real backend only); one ProcPressure
  // edge is sent per change of the combined level. The governor's own
  // edge bookkeeping is still consumed so its accounting stays exact.
  const bool governed = governor_ != nullptr && governor_->under_pressure();
  if (governor_ != nullptr) governor_->consume_pressure_edge();
  const bool level = governed || ctx_.transport_pressure();
  if (level == sent_pressure_level_) return;
  sent_pressure_level_ = level;
  const PressureMsg msg{0, static_cast<std::uint8_t>(level ? 1 : 0)};
  send_up_all(ctx_, route_, kTagProcPressure, msg.encode());
  ++counters_.pressure_signals;
}

void CouplingRuntime::stash_answer(const AnswerMsg& answer) {
  const int conn_id = static_cast<int>(answer.conn);
  for (const auto& [name, region] : import_regions_) {
    if (region.conn_id != conn_id) continue;
    if (answer.seq < region.next_wait_seq) {
      // Answer to a request already completed: a fabric duplicate or the
      // answer to a retry whose original got through after all.
      ++counters_.ft.stale_answers;
      return;
    }
    break;
  }
  auto [it, fresh] = stashed_answers_[conn_id].emplace(answer.seq, answer);
  (void)it;
  if (!fresh) ++counters_.ft.stale_answers;
}

AnswerMsg CouplingRuntime::await_answer(ImportRegion& region, std::uint32_t seq,
                                        Timestamp requested) {
  const int conn_id = region.conn_id;
  std::map<std::uint32_t, AnswerMsg>& stash = stashed_answers_[conn_id];
  // While blocked on our own import we keep serving framework traffic —
  // in bidirectional couplings the peer's request may need this very
  // process's response before the peer can produce the data we wait for.
  // handle_control stashes every answer, ours included.
  wait_for(
      Wait{Wait::Answer, conn_id, seq}, [&] { return stash.count(seq) > 0; },
      [this](const Message& m) { handle_control(m); },
      [&] {
        // The request, a rep relay, or the answer broadcast was lost (or
        // the exporter is just slow). Re-sending is idempotent end to end:
        // reps and workers replay cached answers, so every rank may retry
        // — which also covers the loss of rank 0's original request.
        ++counters_.ft.request_retries;
        RequestMsg req{static_cast<std::uint32_t>(conn_id), seq, requested};
        ctx_.send(route_.up_conn(conn_id), kTagImportRequest, req.encode());
        return true;
      });
  return stash.extract(seq).mapped();
}

ExportRegionState* CouplingRuntime::state_for_conn(std::uint32_t conn) {
  for (auto& [name, region] : export_regions_) {
    if (region.state && region.state->handles_conn(conn)) return region.state.get();
  }
  return nullptr;
}

void CouplingRuntime::handle_control(const Message& m) {
  last_rep_seen_ = ctx_.now();
  switch (m.tag) {
    case kTagShutdownProc: {
      // One shard reports that every connected program finished; the
      // worker is done once all shards have (before finalize() it keeps
      // exporting). Nothing is freed, so no pressure change to signal.
      Reader r(m.payload);
      shutdown_shards_.insert(static_cast<int>(r.get<std::uint32_t>()));
      if (static_cast<int>(shutdown_shards_.size()) >= route_.shards) shutdown_seen_ = true;
      return;
    }
    case kTagProcForward: {
      const RequestMsg req = RequestMsg::decode(m.payload);
      ExportRegionState* state = state_for_conn(req.conn);
      CCF_CHECK(state != nullptr, "forwarded request for unknown connection " << req.conn);
      state->on_forwarded_request(req, ctx_);
      break;
    }
    case kTagBuddyHelp: {
      const AnswerMsg help = AnswerMsg::decode(m.payload);
      ExportRegionState* state = state_for_conn(help.conn);
      CCF_CHECK(state != nullptr, "buddy-help for unknown connection " << help.conn);
      state->on_buddy_help(help, ctx_);
      break;
    }
    case kTagConnClosed: {
      const ConnMsg msg = ConnMsg::decode(m.payload);
      ExportRegionState* state = state_for_conn(msg.conn);
      CCF_CHECK(state != nullptr, "conn-closed for unknown connection " << msg.conn);
      state->on_conn_closed(msg.conn, ctx_);
      break;
    }
    case kTagRepHeartbeat:
      ++counters_.ft.heartbeats;
      break;
    case kTagPressureBcast: {
      // The exporter side of one of our import connections crossed a
      // buffer watermark: remember the level so import_request throttles
      // (or stops throttling) on that connection.
      const PressureMsg msg = PressureMsg::decode(m.payload);
      ++counters_.pressure_notices;
      if (msg.level != 0) {
        pressured_conns_.insert(static_cast<int>(msg.conn));
      } else {
        pressured_conns_.erase(static_cast<int>(msg.conn));
      }
      break;
    }
    case kTagRegionMetaBcast:
      // Late duplicate of the startup geometry broadcast (a commit-retry
      // nudge raced with the original broadcast's delivery, or the rep is
      // re-broadcasting because our ack was lost): re-acknowledge.
      if (options_.failure_tolerance()) {
        Reader r(m.payload);
        send_meta_ack(static_cast<int>(r.get<std::uint32_t>()));
      }
      break;
    default:
      if (m.tag >= kTagImportAnswerBase && m.tag < kTagDataBase) {
        // The awaited answer, or one for another request or connection, or
        // a late duplicate (a retried request answered after the original
        // already completed).
        stash_answer(AnswerMsg::decode(m.payload));
        break;
      }
      throw util::InternalError("unexpected control tag " + std::to_string(m.tag) +
                                " at process " + std::to_string(ctx_.id()));
  }
  // Requests, buddy-help, and connection closures all free snapshots, so
  // any control message can clear (or, via parked requests, raise) the
  // governor's pressure level.
  signal_pressure();
}

void CouplingRuntime::drain_control() {
  // Consume rep->proc traffic in arrival order; tag wildcarding preserves
  // the FIFO the skip rules rely on (a request's buddy-help precedes the
  // next forwarded request in the rep's send order).
  while (auto m = ctx_.try_recv(route_.control_match())) handle_control(*m);
}

void CouplingRuntime::maybe_reparent() {
  if (!route_.has_parent) return;
  if (ctx_.now() - last_rep_seen_ <= options_.departure_window_seconds()) return;
  // Nothing — not even a relayed heartbeat — for a whole departure window:
  // the leaf sub-rep is presumed dead. Fall back to the direct shard layer
  // and announce the switch; any plain own-proc message makes the rep mark
  // this rank direct, so the nudge doubles as that announcement.
  route_.has_parent = false;
  ++counters_.ft.reparents;
  for (int s = 0; s < route_.shards; ++s) {
    ctx_.send(route_.base + s, kTagMetaNudge, transport::empty_payload());
  }
  last_rep_seen_ = ctx_.now();  // restart the window before declaring the rep dead
}

void CouplingRuntime::send_meta_ack(int shard) {
  Writer w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(shard));
  ctx_.send(route_.up_shard(shard), kTagMetaAck, w.take());
}

void CouplingRuntime::export_region(const std::string& name, Timestamp t,
                                    const dist::DistArray2D<double>& data) {
  CCF_REQUIRE(committed_, "export before commit()");
  CCF_REQUIRE(!finalized_, "export after finalize()");
  auto it = export_regions_.find(name);
  CCF_REQUIRE(it != export_regions_.end(), "export of undefined region '" << name << "'");
  ExportRegion& region = it->second;
  CCF_REQUIRE(data.decomposition() == region.decomp && data.rank() == rank_,
              "exported array layout does not match region '" << name << "'");

  const double start = ctx_.now();
  if (region.state == nullptr) {
    // Exported region nobody imports: the framework does no buffering at
    // all (the paper's low-overhead path).
    ++region.unconnected_exports;
    return;
  }
  drain_control();

  // Finite buffer space (paper §6) is the memory budget (src/mem): when
  // the next snapshot would exceed it, first demote cold-but-matchable
  // snapshots to the spill tier if there is one (decidability-ranked, no
  // protocol effect), then block on framework traffic — an import request
  // advances the low-water mark and frees snapshots; an importer
  // departure releases a whole connection. Stalling is skipped when this
  // process itself must advance to unblock the system (see
  // ExportRegionState::safe_to_stall), and when waiting cannot possibly
  // create room (the snapshot alone exceeds the budget): then the budget
  // is exceeded softly, with pressure raised — the degraded
  // bounded-buffering mode — rather than deadlocking the collective
  // protocol.
  if (governor_ != nullptr) {
    const std::size_t snap_bytes = region.state->snapshot_bytes();
    auto shed_shortfall = [&] {
      const std::size_t need = governor_->shortfall(snap_bytes);
      if (need > 0) region.state->shed(need);
    };
    // Stall only while freeing/spilling what is charged could cover the
    // shortfall; otherwise no amount of waiting makes this snapshot fit.
    auto over_limit = [&] {
      const std::size_t need = governor_->shortfall(snap_bytes);
      return need > 0 && need <= governor_->stats().charged_bytes;
    };
    shed_shortfall();
    double stall_start = 0;
    wait_for(
        Wait{Wait::BufferSpace},
        [&] {
          if (!over_limit() || !region.state->safe_to_stall() || shutdown_seen_) return true;
          signal_pressure();
          stall_start = ctx_.now();
          return false;
        },
        [&](const Message& m) {
          handle_control(m);
          region.state->record_stall(ctx_.now() - stall_start);
          shed_shortfall();
        },
        [&] {
          // In failure-tolerant mode the stall is bounded: past the deadline
          // we assume the importing program died without a departure
          // notice, force-close its connections (releasing the snapshots it
          // pinned) and continue in degraded mode. The deadline is absolute
          // from stall entry — heartbeats prove the rep is alive, not that
          // buffer space will ever be freed.
          region.state->record_stall(ctx_.now() - stall_start);
          region.state->degrade_open_conns(ctx_);
          return false;
        });
  }

  region.state->on_export(t, data.data(), ctx_);
  region.state->record_export_duration(t, ctx_.now() - start);
  signal_pressure();
}

CouplingRuntime::ImportTicket CouplingRuntime::import_request(const std::string& name,
                                                              Timestamp x) {
  CCF_REQUIRE(committed_, "import before commit()");
  CCF_REQUIRE(!finalized_, "import after finalize()");
  auto it = import_regions_.find(name);
  CCF_REQUIRE(it != import_regions_.end(), "import of undefined region '" << name << "'");
  ImportRegion& region = it->second;
  CCF_REQUIRE(x > region.last_request,
              "import request timestamps must increase: " << x << " after "
                                                          << region.last_request);
  region.last_request = x;

  // Collective backpressure response: the exporter announced it is over
  // its buffer high watermark, so give it breathing room before asking
  // for more (every rank throttles identically — the request itself stays
  // collective and the answer unchanged).
  if (options_.memory.importer_throttle_seconds > 0 &&
      pressured_conns_.count(region.conn_id) > 0) {
    ctx_.compute(options_.memory.importer_throttle_seconds);
    ++region.stats.pressure_throttles;
    region.stats.throttle_seconds += options_.memory.importer_throttle_seconds;
  }

  const std::uint32_t seq = region.next_seq++;
  if (rank_ == 0) {
    RequestMsg req{static_cast<std::uint32_t>(region.conn_id), seq, x};
    ctx_.send(route_.up_conn(region.conn_id), kTagImportRequest, req.encode());
  }
  return ImportTicket{name, seq, x};
}

CouplingRuntime::ImportStatus CouplingRuntime::import_wait(const ImportTicket& ticket,
                                                           dist::DistArray2D<double>& out) {
  auto it = import_regions_.find(ticket.region);
  CCF_REQUIRE(it != import_regions_.end(),
              "import_wait on undefined region '" << ticket.region << "'");
  ImportRegion& region = it->second;
  CCF_REQUIRE(out.decomposition() == region.decomp && out.rank() == rank_,
              "import target layout does not match region '" << ticket.region << "'");
  CCF_REQUIRE(ticket.seq == region.next_wait_seq,
              "import_wait out of order on region '"
                  << ticket.region << "': ticket seq " << ticket.seq << ", expected "
                  << region.next_wait_seq << " (waits must follow issue order)");
  CCF_REQUIRE(ticket.seq < region.next_seq, "import_wait on a ticket never issued");

  const double start = ctx_.now();
  const AnswerMsg answer = await_answer(region, ticket.seq, ticket.requested);
  // Bumped only after the answer arrives: stash_answer treats seqs below
  // this as stale and must not discard the in-flight one.
  ++region.next_wait_seq;
  CCF_CHECK(answer.conn == static_cast<std::uint32_t>(region.conn_id) &&
                answer.seq == ticket.seq,
            "import answer out of order: got conn " << answer.conn << " seq " << answer.seq
                                                    << ", expected seq " << ticket.seq);

  ImportStatus status;
  status.result = answer.result;
  status.matched = answer.matched;
  ++region.stats.imports;
  if (answer.result == MatchResult::Match) {
    dist::execute_recvs(ctx_, *region.schedule, region.exporter_procs,
                        data_tag(region.conn_id, ticket.seq), out);
    ++region.stats.matches;
    region.stats.matched_timestamps.push_back(answer.matched);
  } else {
    ++region.stats.no_matches;
  }
  region.stats.import_seconds.push_back(ctx_.now() - start);
  return status;
}

CouplingRuntime::ImportStatus CouplingRuntime::import_region(const std::string& name,
                                                             Timestamp x,
                                                             dist::DistArray2D<double>& out) {
  const ImportTicket ticket = import_request(name, x);
  return import_wait(ticket, out);
}

std::size_t CouplingRuntime::pending_imports(const std::string& name) const {
  auto it = import_regions_.find(name);
  CCF_REQUIRE(it != import_regions_.end(), "unknown import region '" << name << "'");
  return it->second.next_seq - it->second.next_wait_seq;
}

void CouplingRuntime::finalize() {
  CCF_REQUIRE(committed_, "finalize before commit()");
  CCF_REQUIRE(!finalized_, "finalize() called twice");
  for (const auto& [name, region] : import_regions_) {
    CCF_REQUIRE(region.next_wait_seq == region.next_seq,
                "finalize with " << (region.next_seq - region.next_wait_seq)
                                 << " unfinished pipelined imports on region '" << name << "'");
  }
  finalized_ = true;

  for (auto& [name, region] : export_regions_) {
    if (region.state) region.state->finalize(ctx_);
  }
  auto send_conn_done = [&] {
    // Lossless fabric: rank 0 speaks for the program (requests are
    // collective, so rank 0 finishing means every answer was broadcast
    // and the remaining ranks finish from their mailboxes). Under faults
    // any single rank's answer copy may have been dropped, and only a
    // live rep can replay it — so every rank reports its own completion
    // and the rep waits for all of them.
    if (rank_ != 0 && !options_.failure_tolerance()) return;
    for (int conn : config_.connections_of_importer_program(program_)) {
      ConnMsg msg{static_cast<std::uint32_t>(conn)};
      ctx_.send(route_.up_conn(conn), kTagImporterConnDone, msg.encode());
    }
  };
  send_conn_done();

  // Service loop: this process's part of the region data may still be
  // requested (a slower importer catching up); keep answering until the
  // rep confirms every connected program finished.
  wait_for(
      Wait{Wait::Shutdown}, [&] { return shutdown_seen_; },
      [this](const Message& m) { handle_control(m); },
      [&] {
        // A failure-tolerant tick (a) detects that the rep itself went away
        // (no traffic — not even heartbeats — for the departure window), in
        // which case we give up waiting for the global shutdown and finish
        // degraded rather than hang forever, and otherwise (b) re-sends our
        // end-of-stream notice in case it was lost. wait_for re-parents
        // first: silence from a dead leaf sub-rep must not read as the rep
        // itself having departed.
        if (ctx_.now() - last_rep_seen_ > options_.departure_window_seconds()) {
          counters_.ft.rep_departed = true;
          return false;
        }
        ++counters_.ft.conn_done_retries;
        send_conn_done();
        return true;
      });
  counters_.finished_at = ctx_.now();
}

void CouplingRuntime::publish(const std::string& name, double value) {
  published_[name].push_back(value);
}

ProcStats CouplingRuntime::stats_snapshot() const {
  ProcStats stats;
  static_cast<ProcCounters&>(stats) = counters_;
  if (governor_ != nullptr) stats.governor = governor_->stats();
  for (const auto& [name, region] : export_regions_) {
    if (region.state) {
      stats.exports.push_back(region.state->stats_snapshot());
    } else {
      ExportRegionStats s;
      s.region = name;
      s.exports = region.unconnected_exports;
      stats.exports.push_back(std::move(s));
    }
  }
  for (const auto& [name, region] : import_regions_) stats.imports.push_back(region.stats);
  stats.published = published_;
  return stats;
}

}  // namespace ccf::core
