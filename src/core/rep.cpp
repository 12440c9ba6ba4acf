#include "core/rep.hpp"

#include <map>
#include <set>
#include <utility>

#include "core/fanout.hpp"
#include "core/protocol.hpp"
#include "core/rep_state.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace ccf::core {

using runtime::MatchSpec;
using runtime::Message;
using transport::kAnyProc;
using transport::kAnyTag;
using transport::Reader;
using transport::Writer;

namespace {

/// Heartbeat-tick resends of one kind of acknowledged message, keyed per
/// destination or request. A key is re-sent on every tick until acked;
/// after kMaxRetries resends delivery is presumed (the odds of that many
/// independent losses are negligible), so shutdown always completes.
template <class Key>
struct ResendLedger {
  std::set<Key> acked;  ///< acknowledged, or presumed delivered
  std::map<Key, int> resends;

  /// True when `key` is owed a resend on this tick (and counts it).
  bool due(const Key& key) {
    if (acked.count(key)) return false;
    if (++resends[key] <= kMaxRetries) return true;
    acked.insert(key);
    return false;
  }
};

}  // namespace

RepResult run_rep(runtime::ProcessContext& ctx, const Config& config,
                  const DeploymentLayout& layout, const std::string& program_name,
                  FrameworkOptions options, int shard) {
  const ProgramLayout& pl = layout.program(program_name);
  CCF_REQUIRE(shard >= 0 && shard < pl.shards, "rep shard index outside layout");
  CCF_REQUIRE(ctx.id() == pl.shard_id(shard), "rep body running on wrong process id");

  // This shard owns the connections with conn % shards == shard; peers
  // address it the same way (ProgramLayout::control_target).
  auto owned = [&](int conn) { return conn % pl.shards == shard; };
  std::vector<int> export_conns, import_conns;
  for (int conn : config.connections_of_exporter_program(program_name)) {
    if (owned(conn)) export_conns.push_back(conn);
  }
  for (int conn : config.connections_of_importer_program(program_name)) {
    if (owned(conn)) import_conns.push_back(conn);
  }

  auto peer_rep_of = [&](int conn) -> ProcId {
    const ConnectionSpec& spec = config.connections()[static_cast<std::size_t>(conn)];
    const std::string& peer =
        spec.exporter_program == program_name ? spec.importer_program : spec.exporter_program;
    return layout.program(peer).control_target(conn);
  };

  auto is_own_proc = [&](ProcId id) { return id >= pl.first && id < pl.first + pl.nprocs; };

  RepResult result;
  DownFanout down(ctx, pl, pl.root());
  std::map<int, RequestAggregator> aggregators;
  for (int conn : export_conns) {
    aggregators.emplace(conn, RequestAggregator(pl.nprocs, options.buddy_help));
  }

  // --- startup: region geometry exchange -----------------------------------
  bool defs_received = false;
  bool meta_broadcast = false;
  std::map<std::string, RegionMeta> own_exports;
  std::map<std::string, RegionMeta> own_imports;
  std::map<int, RegionMeta> peer_meta;
  transport::Payload meta_payload;  ///< kept for nudge-triggered resends
  // Every connection this shard takes part in, exports first: the order
  // geometry is shipped and re-shipped in.
  std::vector<int> own_conns = export_conns;
  own_conns.insert(own_conns.end(), import_conns.begin(), import_conns.end());
  // Tolerant mode: workers acknowledge the meta broadcast, and the rep may
  // not exit while any worker still lacks the geometry — a peer program
  // finishing early would otherwise kill the rep mid-recovery and strand a
  // worker whose broadcast was dropped in an unanswerable commit() retry
  // loop. Un-acked workers are re-broadcast to on heartbeat ticks.
  ResendLedger<ProcId> meta_resend;
  // The rep-to-rep geometry shipment needs the same treatment: a peer
  // program can run to completion (zero imports) and take its rep down
  // while our PeerRegionMeta to it — or, worse, its shipment to us — is
  // still lost in flight. Each shipment is therefore acknowledged per
  // connection, re-shipped on heartbeat ticks, and gates this rep's exit.
  ResendLedger<int> peer_meta_resend;

  // --- shutdown bookkeeping -------------------------------------------------
  std::set<int> import_conns_done;   ///< own rank(s) said "done importing"
  std::map<int, std::set<int>> conn_done_ranks;  ///< which ranks reported, per conn
  std::set<int> export_conns_finished;  ///< peer rep said "done requesting"
  // Failure-tolerant mode only: ConnFinished is retried (on the heartbeat
  // tick) until the exporter rep acknowledges it, so a lost rep-to-rep
  // notification cannot wedge the exporter program.
  const bool reliable_finish = options.failure_tolerance();
  ResendLedger<int> conn_finished_resend;

  // A rank that never responded to a forwarded request may never have
  // received it — and a contributing silent rank never ships its data
  // piece, wedging the importer's transfer even though the collective
  // answer was decided by the other ranks. In failure-tolerant mode the
  // rep re-forwards to exactly the silent ranks on heartbeat ticks and
  // refuses to shut down while any remain (a response ends the resends;
  // `acked` holds only the requests given up on).
  ResendLedger<std::pair<int, std::uint32_t>> forward_resend;
  auto silent_ranks_remain = [&] {
    for (const auto& [conn, agg] : aggregators) {
      for (const auto& u : agg.unresponsive_ranks()) {
        if (!forward_resend.acked.count({conn, u.request.seq})) return true;
      }
    }
    return false;
  };

  // ConnClosed is withheld per rank until that rank has responded to every
  // request ever forwarded on the connection. Fabric-level FIFO normally
  // guarantees a worker sees all forwards before ConnClosed, but a delay
  // fault can reorder them — and a worker that closes the connection first
  // frees snapshots, then resolves the late request MATCH on a version it
  // can no longer ship, wedging the importer's transfer forever. A response
  // (even PENDING) proves the worker holds the request as a protected
  // obligation, making closure safe. Deferred ranks are notified from the
  // ProcResponse handler once their elicited (re-forwarded) response lands.
  std::set<int> conn_closed_pending;
  auto notify_conn_closed = [&](int conn) {
    const transport::Payload payload = ConnMsg{static_cast<std::uint32_t>(conn)}.encode();
    auto agg = aggregators.find(conn);
    bool deferred = false;
    for (int rank = 0; rank < pl.nprocs; ++rank) {
      if (reliable_finish && agg != aggregators.end() &&
          !agg->second.rank_answered_all(rank)) {
        deferred = true;
        continue;
      }
      down.to_rank(rank, kTagConnClosed, payload);
    }
    if (deferred) conn_closed_pending.insert(conn);
  };

  // --- collective BufferPressure (docs/MEMORY.md) ---------------------------
  // Property-1-style aggregation over the program's ranks: any rank over
  // its high watermark puts the whole program under pressure (its part of
  // every snapshot must be buffered for the collective export to stay
  // shippable). Only *transitions* of the aggregate are propagated, one
  // Pressure note per exporting connection. Pressure is advisory — a lost
  // note merely costs throttling accuracy, never correctness — so the
  // notes ride the fabric without retry machinery. With an aggregation
  // tree, the per-rank signals ride up-frames (any-raised/all-clear is
  // evaluated here over the leaf-rank origins) and the importer-side
  // broadcast fans out down the peer's tree.
  std::set<int> pressured_ranks;
  bool program_pressure = false;
  auto on_proc_pressure = [&](ProcId src, const transport::Payload& payload) {
    const PressureMsg msg = PressureMsg::decode(payload);
    const int rank = static_cast<int>(src - pl.first);
    ++result.pressure_signals;
    if (msg.level != 0) {
      pressured_ranks.insert(rank);
    } else {
      pressured_ranks.erase(rank);
    }
    const bool now = !pressured_ranks.empty();
    if (now == program_pressure) return;
    program_pressure = now;
    for (int conn : export_conns) {
      ctx.send(peer_rep_of(conn),
               kTagPressure,
               PressureMsg{static_cast<std::uint32_t>(conn),
                           static_cast<std::uint8_t>(now ? 1 : 0)}
                   .encode());
      ++result.pressure_notices;
    }
  };

  // Importer-side answer cache: replays the ImportAnswer broadcast when a
  // proc retries a request whose answer already came back (the original
  // broadcast — or the proc's request — was lost). Grows by one answer per
  // request, like the exporter-side aggregator's answer map.
  std::map<std::pair<std::uint32_t, std::uint32_t>, AnswerMsg> import_answers;

  auto ship_conn_meta = [&](int conn) {
    const ConnectionSpec& spec = config.connections()[static_cast<std::size_t>(conn)];
    Writer w;
    w.put<std::uint32_t>(static_cast<std::uint32_t>(conn));
    if (spec.exporter_program == program_name) {
      own_exports.at(spec.exporter_region).encode_into(w);
    } else {
      own_imports.at(spec.importer_region).encode_into(w);
    }
    ctx.send(peer_rep_of(conn), kTagPeerRegionMeta, w.take());
  };

  auto ship_peer_meta = [&] {
    for (int conn : own_conns) ship_conn_meta(conn);
  };

  auto maybe_broadcast_meta = [&] {
    if (meta_broadcast || !defs_received || peer_meta.size() != own_conns.size()) return;
    Writer w;
    // The shard id lets workers collect and merge every shard's broadcast.
    w.put<std::uint32_t>(static_cast<std::uint32_t>(shard));
    w.put<std::uint32_t>(static_cast<std::uint32_t>(peer_meta.size()));
    for (const auto& [conn, meta] : peer_meta) {
      // Validate geometry agreement for conns this program imports on:
      // the imported region must match the exporter's transfer window
      // (or, without a window, the exporter's whole domain).
      const ConnectionSpec& spec = config.connections()[static_cast<std::size_t>(conn)];
      if (spec.importer_program == program_name) {
        const RegionMeta& mine = own_imports.at(spec.importer_region);
        const dist::Box window =
            spec.exporter_window.value_or(dist::Box{0, meta.rows, 0, meta.cols});
        CCF_REQUIRE((dist::Box{0, meta.rows, 0, meta.cols}.contains(window)),
                    "connection " << conn << ": transfer window " << window
                                  << " escapes the exporter's " << meta.rows << "x"
                                  << meta.cols << " domain");
        CCF_REQUIRE(mine.rows == window.rows() && mine.cols == window.cols(),
                    "connection " << conn << ": imported region " << spec.importer_region
                                  << " is " << mine.rows << "x" << mine.cols
                                  << " but the exporter window provides " << window.rows()
                                  << "x" << window.cols());
      }
      w.put<std::uint32_t>(static_cast<std::uint32_t>(conn));
      meta.encode_into(w);
    }
    meta_payload = w.take();
    down.bcast(kTagRegionMetaBcast, meta_payload);
    meta_broadcast = true;
  };

  auto import_side_done = [&] {
    if (import_conns_done.size() != import_conns.size()) return false;
    if (!reliable_finish) return true;
    // Tolerant mode: every rank must have reported completion. A dropped
    // ImportAnswer broadcast can strand any single rank, and only a live
    // rep can replay the answer when that rank's retry arrives.
    for (int conn : import_conns) {
      auto it = conn_done_ranks.find(conn);
      if (it == conn_done_ranks.end() || static_cast<int>(it->second.size()) < pl.nprocs) {
        return false;
      }
    }
    return true;
  };

  auto all_finished = [&] {
    if (!meta_broadcast || !import_side_done() ||
        export_conns_finished.size() != export_conns.size()) {
      return false;
    }
    // Tolerant mode: every resend ledger must be settled too (the heartbeat
    // tick repairs what is not).
    return !reliable_finish ||
           (conn_finished_resend.acked.size() >= import_conns_done.size() &&
            !silent_ranks_remain() && static_cast<int>(meta_resend.acked.size()) >= pl.nprocs &&
            peer_meta_resend.acked.size() >= own_conns.size());
  };

  // One control message, plain or reconstructed from an up-frame entry
  // (`src` is then the entry's leaf-rank origin mapped back to its ProcId,
  // so all per-rank bookkeeping stays exact through the tree).
  auto handle = [&](ProcId src, transport::Tag tag, const transport::Payload& payload) {
    switch (tag) {
      case kTagRegionDefs: {
        if (defs_received) {
          // Rank0 timed out waiting for the meta broadcast and re-sent its
          // definitions. Our own shipment (or the peer's) may have been
          // lost: re-ship ours and nudge every peer rep to re-ship theirs.
          ++result.duplicates_ignored;
          ship_peer_meta();
          std::set<ProcId> peers;
          for (int conn : own_conns) peers.insert(peer_rep_of(conn));
          for (ProcId peer : peers) {
            ctx.send(peer, kTagMetaNudge, transport::empty_payload());
          }
          break;
        }
        defs_received = true;
        Reader r(payload);
        const auto n_exp = r.get<std::uint32_t>();
        for (std::uint32_t i = 0; i < n_exp; ++i) {
          RegionMeta meta = RegionMeta::decode_from(r);
          own_exports.emplace(meta.name, std::move(meta));
        }
        const auto n_imp = r.get<std::uint32_t>();
        for (std::uint32_t i = 0; i < n_imp; ++i) {
          RegionMeta meta = RegionMeta::decode_from(r);
          own_imports.emplace(meta.name, std::move(meta));
        }
        // Early detection of incorrect coupling specifications (paper
        // §3.1): every connected region must have been defined.
        for (int conn : export_conns) {
          const ConnectionSpec& spec = config.connections()[static_cast<std::size_t>(conn)];
          CCF_REQUIRE(own_exports.count(spec.exporter_region),
                      "program " << program_name << " never defined exported region '"
                                 << spec.exporter_region << "' required by connection "
                                 << conn);
        }
        for (int conn : import_conns) {
          const ConnectionSpec& spec = config.connections()[static_cast<std::size_t>(conn)];
          CCF_REQUIRE(own_imports.count(spec.importer_region),
                      "program " << program_name << " never defined imported region '"
                                 << spec.importer_region << "' required by connection "
                                 << conn);
        }
        // Ship our geometry to every peer rep.
        ship_peer_meta();
        maybe_broadcast_meta();
        break;
      }
      case kTagPeerRegionMeta: {
        Reader r(payload);
        const auto conn = r.get<std::uint32_t>();
        // emplace ignores duplicates (a peer re-shipped after a nudge).
        peer_meta.emplace(static_cast<int>(conn), RegionMeta::decode_from(r));
        // Acknowledge every receipt (duplicates included): the peer rep
        // re-ships until acked, so a lost ack is repaired by re-acking the
        // re-shipment.
        if (reliable_finish) {
          ctx.send(src, kTagPeerMetaAck, ConnMsg{conn}.encode());
        }
        maybe_broadcast_meta();
        break;
      }
      case kTagPeerMetaAck: {
        const ConnMsg msg = ConnMsg::decode(payload);
        peer_meta_resend.acked.insert(static_cast<int>(msg.conn));
        break;
      }
      case kTagMetaNudge: {
        if (is_own_proc(src)) {
          // A worker never saw the meta broadcast: replay it to that
          // worker alone once it exists.
          if (meta_broadcast) {
            down.to_rank(static_cast<int>(src - pl.first), kTagRegionMetaBcast, meta_payload);
            ++result.meta_resends;
          }
        } else if (defs_received) {
          // A peer rep is missing our geometry: re-ship everything bound
          // for that rep (cheap, idempotent on the receiving side).
          ship_peer_meta();
          ++result.meta_resends;
        }
        break;
      }
      case kTagImportRequest: {
        const RequestMsg req = RequestMsg::decode(payload);
        const auto cached = import_answers.find({req.conn, req.seq});
        if (cached != import_answers.end()) {
          // Retried request whose answer already exists: replay the
          // broadcast instead of bothering the exporter again.
          down.bcast(import_answer_tag(static_cast<int>(req.conn)), cached->second.encode());
          ++result.answers_resent;
          break;
        }
        ctx.send(peer_rep_of(static_cast<int>(req.conn)), kTagRequestForward, req.encode());
        break;
      }
      case kTagRequestForward: {
        const RequestMsg req = RequestMsg::decode(payload);
        auto agg = aggregators.find(static_cast<int>(req.conn));
        CCF_CHECK(agg != aggregators.end(),
                  "request forwarded to non-exporter of connection " << req.conn);
        if (const AnswerMsg* answer = agg->second.answer_of(req.seq)) {
          // Duplicate of an answered request: the RepAnswer may have been
          // lost on the way back — resend it from the aggregator's answers.
          ctx.send(peer_rep_of(static_cast<int>(req.conn)), kTagRepAnswer, answer->encode());
          ++result.answers_resent;
          break;
        }
        const bool duplicate = agg->second.is_open(req.seq);
        if (!duplicate) agg->second.open(req);
        else ++result.duplicates_ignored;
        // (Re-)forward to the workers. On the duplicate path this re-elicits
        // responses in case the first ProcForward or the responses were
        // lost; workers dedup by request seq and replay what they answered.
        down.bcast(kTagProcForward, req.encode());
        if (!duplicate) ++result.requests_forwarded;
        break;
      }
      case kTagProcResponse: {
        const ResponseMsg resp = ResponseMsg::decode(payload);
        const int rank = static_cast<int>(src - pl.first);
        auto agg = aggregators.find(static_cast<int>(resp.conn));
        CCF_CHECK(agg != aggregators.end(), "response for unknown connection " << resp.conn);
        ++result.responses_received;
        const RequestAggregator::Actions actions = agg->second.on_response(rank, resp);
        if (actions.answer_importer) {
          ctx.send(peer_rep_of(static_cast<int>(resp.conn)), kTagRepAnswer,
                   actions.answer_importer->encode());
          ++result.answers_sent;
        }
        if (!actions.buddy_help_ranks.empty()) {
          const transport::Payload help_payload = agg->second.answer_of(resp.seq)->encode();
          for (int r : actions.buddy_help_ranks) {
            down.to_rank(r, kTagBuddyHelp, help_payload);
            ++result.buddy_helps_sent;
          }
        }
        // A withheld ConnClosed becomes deliverable once this rank has
        // responded to every forwarded request (see notify_conn_closed).
        if (conn_closed_pending.count(static_cast<int>(resp.conn)) &&
            agg->second.rank_answered_all(rank)) {
          down.to_rank(rank, kTagConnClosed, ConnMsg{resp.conn}.encode());
          if (agg->second.unresponsive_ranks().empty()) {
            conn_closed_pending.erase(static_cast<int>(resp.conn));
          }
        }
        break;
      }
      case kTagRepAnswer: {
        const AnswerMsg answer = AnswerMsg::decode(payload);
        const auto [it, fresh] = import_answers.emplace(
            std::make_pair(answer.conn, answer.seq), answer);
        if (!fresh) ++result.duplicates_ignored;
        // (Re-)broadcast either way: a duplicate RepAnswer means the
        // exporter saw a retry, so some proc is still waiting.
        down.bcast(import_answer_tag(static_cast<int>(answer.conn)), it->second.encode());
        break;
      }
      case kTagImporterConnDone: {
        const ConnMsg msg = ConnMsg::decode(payload);
        conn_done_ranks[static_cast<int>(msg.conn)].insert(static_cast<int>(src - pl.first));
        if (!import_conns_done.insert(static_cast<int>(msg.conn)).second) {
          ++result.duplicates_ignored;
        }
        // Relay every time: the previous ConnFinished may have been lost.
        ctx.send(peer_rep_of(static_cast<int>(msg.conn)), kTagConnFinished, msg.encode());
        break;
      }
      case kTagConnFinished: {
        const ConnMsg msg = ConnMsg::decode(payload);
        if (!export_conns_finished.insert(static_cast<int>(msg.conn)).second) {
          ++result.duplicates_ignored;
        }
        // The peer's workers committed before its rep could report this,
        // and their geometry broadcast needed ours: it arrived, whether or
        // not its PeerMetaAck did.
        peer_meta_resend.acked.insert(static_cast<int>(msg.conn));
        // Tell the worker processes the importer left: they release every
        // snapshot held for this connection and stop buffering for it.
        // Re-broadcast on duplicates (idempotent at the workers).
        notify_conn_closed(static_cast<int>(msg.conn));
        if (reliable_finish) {
          ctx.send(src, kTagConnFinishedAck, msg.encode());
        }
        break;
      }
      case kTagConnFinishedAck: {
        const ConnMsg msg = ConnMsg::decode(payload);
        conn_finished_resend.acked.insert(static_cast<int>(msg.conn));
        break;
      }
      case kTagMetaAck:
        meta_resend.acked.insert(src);
        break;
      case kTagProcPressure:
        on_proc_pressure(src, payload);
        break;
      case kTagPressure: {
        // The exporter side of one of our import connections changed
        // pressure level: relay to our procs so they throttle requests.
        const PressureMsg msg = PressureMsg::decode(payload);
        down.bcast(kTagPressureBcast, msg.encode());
        ++result.pressure_broadcasts;
        break;
      }
      default:
        throw util::InternalError("rep of " + program_name + " got unexpected tag " +
                                  std::to_string(tag));
    }
  };

  auto process = [&](const Message& m) {
    ++result.wire_in;
    if (m.tag == kTagTreeUp) {
      ++result.frames_in;
      const std::vector<FrameEntry> entries = decode_frame(m.payload);
      // Dispatch cost scales with the entries carried, not the frames they
      // ride in: batching changes the framing, never the modeled work —
      // and partial frames let this per-entry work start before the
      // sub-reps finish draining their wave.
      if (options.rep_dispatch_seconds > 0 && !entries.empty()) {
        ctx.compute(options.rep_dispatch_seconds * static_cast<double>(entries.size()));
      }
      for (const FrameEntry& e : entries) {
        ++result.frame_entries_in;
        handle(pl.first + e.rank, e.tag, e.payload);
      }
      return;
    }
    if (options.rep_dispatch_seconds > 0) ctx.compute(options.rep_dispatch_seconds);
    if (is_own_proc(m.src)) {
      // With sub-reps below us, a worker only ever speaks to us directly
      // after re-parenting (its sub-rep stopped relaying): serve it
      // directly from now on — tree frames toward it may be black-holed.
      // In a depth-0 tree every worker is a direct child and this is a no-op.
      down.mark_direct(static_cast<int>(m.src - pl.first));
    }
    handle(m.src, m.tag, m.payload);
  };

  double next_beat = ctx.now() + options.heartbeat_interval_seconds();

  // A program with no connections still performs the geometry phase, then
  // shuts its processes down immediately.
  while (!all_finished()) {
    Message m;
    if (reliable_finish) {
      auto maybe = ctx.recv_until(MatchSpec{kAnyProc, kAnyTag}, next_beat);
      if (!maybe) {
        down.bcast(kTagRepHeartbeat, transport::empty_payload());
        ++result.heartbeats_sent;
        // Re-send every un-acked message of the tolerant protocol on the
        // same tick: geometry, peer geometry, ConnFinished, then forwards
        // to silent ranks.
        if (meta_broadcast && static_cast<int>(meta_resend.acked.size()) < pl.nprocs) {
          for (ProcId proc : pl.proc_ids()) {
            if (!meta_resend.due(proc)) continue;
            down.to_rank(static_cast<int>(proc - pl.first), kTagRegionMetaBcast, meta_payload);
            ++result.meta_resends;
          }
        }
        if (defs_received && peer_meta_resend.acked.size() < own_conns.size()) {
          for (int conn : own_conns) {
            if (!peer_meta_resend.due(conn)) continue;
            ship_conn_meta(conn);
            ++result.meta_resends;
          }
        }
        for (int conn : import_conns_done) {
          if (!conn_finished_resend.due(conn)) continue;
          ctx.send(peer_rep_of(conn), kTagConnFinished,
                   ConnMsg{static_cast<std::uint32_t>(conn)}.encode());
        }
        for (const auto& [conn, agg] : aggregators) {
          for (const auto& u : agg.unresponsive_ranks()) {
            if (!forward_resend.due({conn, u.request.seq})) continue;
            const transport::Payload payload = u.request.encode();
            for (int rank : u.ranks) down.to_rank(rank, kTagProcForward, payload);
            ++result.forward_resends;
          }
        }
        down.flush();
        next_beat = ctx.now() + options.heartbeat_interval_seconds();
        continue;
      }
      m = std::move(*maybe);
    } else {
      m = ctx.recv(MatchSpec{kAnyProc, kAnyTag});
    }
    process(m);
    // Drain the rest of the wave so simultaneous arrivals coalesce into
    // one down-frame per top-level sub-rep.
    while (auto more = ctx.try_recv(MatchSpec{kAnyProc, kAnyTag})) process(*more);
    down.flush();
  }

  Writer shutdown;
  shutdown.put<std::uint32_t>(static_cast<std::uint32_t>(shard));
  down.bcast(kTagShutdownProc, shutdown.take());
  down.flush();
  result.frames_out = down.counts().frames;
  result.frame_entries_out = down.counts().frame_entries;
  for (const auto& [conn, agg] : aggregators) {
    for (const auto& [seq, answer] : agg.answers()) result.answers.push_back(answer);
  }
  return result;
}

}  // namespace ccf::core
