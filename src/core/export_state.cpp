#include "core/export_state.hpp"

#include <algorithm>
#include <limits>

#include "dist/redistribute.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace ccf::core {

ExportRegionState::ExportRegionState(std::string region_name, dist::Box local_box,
                                     std::vector<ExportConnConfig> conns,
                                     const FrameworkOptions& options,
                                     const ControlRoute& route)
    : name_(std::move(region_name)),
      local_box_(local_box),
      options_(options),
      route_(route),
      trace_(kTracedObject, options.trace, options.trace_max_events) {
  stats_.region = name_;
  conns_.reserve(conns.size());
  for (auto& cfg : conns) {
    CCF_REQUIRE(cfg.conn_id >= 0 && cfg.conn_id < 32, "connection id out of mask range");
    conns_.emplace_back(std::move(cfg));
  }
}

bool ExportRegionState::handles_conn(std::uint32_t conn_id) const {
  for (const auto& c : conns_) {
    if (static_cast<std::uint32_t>(c.cfg.conn_id) == conn_id) return true;
  }
  return false;
}

std::size_t ExportRegionState::outstanding_requests() const {
  std::size_t n = 0;
  for (const auto& c : conns_) n += c.outstanding.size();
  return n;
}

ExportRegionState::Conn& ExportRegionState::conn_of(std::uint32_t conn_id) {
  for (auto& c : conns_) {
    if (static_cast<std::uint32_t>(c.cfg.conn_id) == conn_id) return c;
  }
  throw util::InternalError("region " + name_ + " does not handle connection " +
                            std::to_string(conn_id));
}

void ExportRegionState::trace_removed(const std::vector<BufferPool::Freed>& freed,
                                      ProcessContext& ctx) {
  if (freed.empty() || !trace_.enabled()) return;
  trace_.emit(TraceKind::Remove, ctx.now(), freed.front().t, freed.back().t);
}

void ExportRegionState::on_export(Timestamp t, const double* local_block, ProcessContext& ctx) {
  ++stats_.exports;

  // Phase 1: decide, per connection, whether this version must be kept.
  ConnMask needed = 0;
  struct Supersede {
    Conn* conn;
    Timestamp old_candidate;
    Outstanding* request;
  };
  std::vector<Supersede> superseded;

  for (auto& c : conns_) {
    c.history.record(t);
    bool need = false;
    if (!c.cfg.contributes) {
      // Outside this connection's transfer window: nothing of this
      // process's block can ever be shipped on it.
      need = false;
    } else if (!c.pending_sends.empty() && c.pending_sends.front().match == t) {
      // This is the announced match we have been waiting to produce
      // (buddy-help told us before the export happened, Fig. 5 line 14).
      need = true;
    } else if (t < c.low_water) {
      // Below every region any current or future request can name.
      need = false;
    } else {
      // The pending-request index and the outstanding queue are
      // FIFO-aligned, so the first index entry covering t is the first
      // outstanding request whose region contains t — O(log k) instead of
      // a queue scan.
      const IntervalIndex::Span span = c.history.pending_covering(t);
      Outstanding* covering = nullptr;
      if (span.count > 0) {
        covering = &c.outstanding[span.first];
        CCF_CHECK(covering->index_id == c.history.pending().at(span.first).id,
                  "pending index out of step with the outstanding queue");
      }
      if (covering != nullptr) {
        // Inside an unresolved region: a candidate. A newly exported
        // better candidate supersedes (frees) the previous one (Fig. 8
        // lines 9-18).
        need = true;
        if (!covering->candidate ||
            better_match(t, *covering->candidate, covering->query.requested)) {
          if (covering->candidate) superseded.push_back({&c, *covering->candidate, covering});
          covering->candidate = t;
        }
      } else if (!c.closed && t > c.last_region_lo) {
        // Above the newest request's region floor: a future request's
        // region can still reach down to (just above) that floor, so the
        // temporal model requires keeping this version (Fig. 3(a), and the
        // REG case where versions above a resolved match remain eligible).
        // A closed connection (the importing program finished) can never
        // request anything again, so nothing new is kept for it.
        need = true;
      } else {
        // At or below the newest region's floor and not inside any
        // unresolved region: request timestamps increase monotonically, so
        // every future region lies strictly above this version.
        need = false;
      }
    }
    if (need) needed |= ConnMask{1} << c.cfg.conn_id;
  }

  // Phase 2: snapshot (the memcpy the paper measures) or skip.
  if (needed != 0) {
    pool_.store(t, local_block, static_cast<std::size_t>(local_box_.count()), needed, ctx);
    trace_.emit(TraceKind::ExportCopy, ctx.now(), t);
  } else {
    pool_.note_skip();
    trace_.emit(TraceKind::ExportSkip, ctx.now(), t);
  }
  CCF_LOG_TRACE("export", "proc " << ctx.id() << " export " << t
                                  << (needed ? " copy" : " skip"));

  // Phase 3: free superseded candidates (Fig. 8 lines 9-18) and attribute
  // their buffering cost to the request they belonged to (Eq. 1). When
  // acceptable regions overlap (request stride below the tolerance), a
  // version superseded for one request can still be another outstanding
  // request's candidate — or its eventual match — so it must be kept.
  for (const auto& s : superseded) {
    // The covering span of the old candidate is exactly the set of
    // outstanding requests whose region contains it (FIFO-aligned with
    // the index); it is needed elsewhere when any of them is not the
    // request that just superseded it.
    const IntervalIndex::Span span = s.conn->history.pending_covering(s.old_candidate);
    bool needed_elsewhere = false;
    for (std::size_t i = 0; i < span.count; ++i) {
      if (&s.conn->outstanding[span.first + i] != s.request) {
        needed_elsewhere = true;
        break;
      }
    }
    if (needed_elsewhere) continue;
    if (auto freed = pool_.drop(s.old_candidate, s.conn->cfg.conn_id)) {
      if (!freed->was_sent) s.request->unnecessary_seconds += freed->cost_seconds;
      trace_.emit(TraceKind::Remove, ctx.now(), freed->t, freed->t);
    }
  }

  // Phase 4: ship a transfer whose match we just produced.
  for (auto& c : conns_) {
    if (!c.pending_sends.empty() && c.pending_sends.front().match == t) {
      const PendingSend ps = c.pending_sends.front();
      c.pending_sends.pop_front();
      send_data(c, ps.seq, ps.match, ctx);
      pool_.mark_sent(ps.match, c.cfg.conn_id);
      pool_.drop(ps.match, c.cfg.conn_id);
    }
  }

  // Phase 5: the new export may make outstanding requests decidable.
  for (auto& c : conns_) check_local_decisions(c, ctx);
  pool_.reclaim();
}

void ExportRegionState::send_response(Conn& conn, std::uint32_t seq, const MatchAnswer& answer,
                                      ProcessContext& ctx) {
  CCF_LOG_DEBUG("export", "proc " << ctx.id() << " region " << name_ << " conn "
                                  << conn.cfg.conn_id << " seq " << seq << " -> "
                                  << to_string(answer.result) << " matched=" << answer.matched
                                  << " latest=" << answer.latest_exported);
  ResponseMsg resp;
  resp.conn = static_cast<std::uint32_t>(conn.cfg.conn_id);
  resp.seq = seq;
  resp.result = answer.result;
  resp.matched = answer.matched;
  resp.latest_exported = answer.latest_exported;
  ctx.send(route_.up_conn(static_cast<int>(resp.conn)), kTagProcResponse, resp.encode());
}

void ExportRegionState::send_data(Conn& conn, std::uint32_t seq, Timestamp match,
                                  ProcessContext& ctx) {
  // A snapshot demoted to the spill tier comes back byte-identically
  // before shipping — spilling is invisible on the wire. Shedding other
  // snapshots first keeps the restore within the governor's budget.
  if (const std::size_t need = pool_.restore_shortfall(match); need > 0) shed(need);
  pool_.ensure_resident(match);
  // Sends source the pooled snapshot directly; a piece covering the whole
  // local box aliases the pooled wire frame (zero-copy fan-out).
  const BufferPool::SnapshotView snapshot = pool_.snapshot(match);
  dist::execute_sends_packed(ctx, conn.cfg.schedule, conn.cfg.importer_procs,
                             data_tag(conn.cfg.conn_id, seq), local_box_, snapshot.data(),
                             &stats_, pool_.wire_payload(match));
  ++stats_.transfers;
  trace_.emit(TraceKind::SendData, ctx.now(), match);
}

void ExportRegionState::resolve_front(Conn& conn, MatchResult result, Timestamp matched,
                                      ProcessContext& ctx) {
  CCF_CHECK(!conn.outstanding.empty(), "resolve with no outstanding request");
  CCF_CHECK(result != MatchResult::Pending, "resolving with a PENDING result");
  Outstanding o = conn.outstanding.front();
  // Unindex before the prunes below so the resolved request's cached best
  // is not pointlessly re-derived; later entries whose best the prunes
  // invalidate are re-derived by the index's prune hook.
  if (o.index_id != 0) conn.history.unindex_pending(o.index_id);

  if (result == MatchResult::Match) {
    // Everything below the match can never be requested again: matched
    // timestamps increase strictly across requests.
    auto freed = pool_.drop_below(matched, conn.cfg.conn_id);
    for (const auto& f : freed) {
      if (!f.was_sent && o.region.contains(f.t)) o.unnecessary_seconds += f.cost_seconds;
    }
    trace_removed(freed, ctx);
    conn.low_water = std::max(conn.low_water, matched);
    conn.history.prune_through(matched);

    if (!conn.cfg.contributes) {
      // Nothing of this process's block travels on this connection.
    } else if (pool_.has(matched)) {
      send_data(conn, o.seq, matched, ctx);
      pool_.mark_sent(matched, conn.cfg.conn_id);
      pool_.drop(matched, conn.cfg.conn_id);
    } else {
      CCF_LOG_DEBUG("export", "proc " << ctx.id() << " pending-send seq " << o.seq << " match "
                                      << matched << " latest " << conn.history.latest());
      conn.pending_sends.push_back(PendingSend{o.seq, matched});
    }
  } else {
    // NO MATCH: nothing in the region exists (collectively), so only the
    // below-region threshold moves — which on_forwarded_request already
    // raised. Defensive max() keeps the invariant explicit.
    conn.low_water = std::max(conn.low_water, o.region.lo);
    conn.history.prune_below(conn.low_water);
  }

  stats_.t_i.push_back(o.unnecessary_seconds);

  AnswerMsg resolved;
  resolved.conn = static_cast<std::uint32_t>(conn.cfg.conn_id);
  resolved.seq = o.seq;
  resolved.requested = o.query.requested;
  resolved.result = result;
  resolved.matched = matched;
  conn.resolved.emplace(o.seq, resolved);
  while (conn.resolved.size() > 64) conn.resolved.erase(conn.resolved.begin());

  conn.outstanding.pop_front();

  // A later request's region floor was deferred while this request was
  // unresolved (its candidates had to stay buffered); apply it now.
  if (!conn.outstanding.empty()) {
    raise_low_water(conn, conn.outstanding.front().region.lo, nullptr, ctx);
  }
}

void ExportRegionState::check_local_decisions(Conn& conn, ProcessContext& ctx) {
  // Batch sweep: the index's per-entry decidability thresholds let the
  // history drain every newly-decidable front request without evaluating
  // the ones that stay PENDING — the per-export cost drops from
  // O(outstanding) evaluations to O(resolved).
  conn.history.evaluate_all([&](std::uint64_t id, const MatchAnswer& answer) {
    CCF_CHECK(!conn.outstanding.empty() && conn.outstanding.front().index_id == id,
              "pending index out of step with the outstanding queue");
    Outstanding& o = conn.outstanding.front();
    if (!o.responded_decisive) {
      send_response(conn, o.seq, answer, ctx);
      o.responded_decisive = true;
      ++stats_.local_decisions;
      trace_.emit(TraceKind::LocalDecision, ctx.now(), o.query.requested, answer.matched,
                  answer.result);
    }
    resolve_front(conn, answer.result, answer.matched, ctx);
  });
}

void ExportRegionState::raise_low_water(Conn& conn, Timestamp threshold,
                                        Outstanding* attribute_to, ProcessContext& ctx) {
  if (threshold <= conn.low_water) return;
  auto freed = pool_.drop_below(threshold, conn.cfg.conn_id);
  if (attribute_to != nullptr) {
    for (const auto& f : freed) {
      if (!f.was_sent && attribute_to->region.contains(f.t)) {
        attribute_to->unnecessary_seconds += f.cost_seconds;
      }
    }
  }
  trace_removed(freed, ctx);
  conn.low_water = threshold;
  conn.history.prune_below(threshold);
}

void ExportRegionState::replay_response(Conn& conn, std::uint32_t seq, ProcessContext& ctx) {
  ++stats_.duplicate_requests;
  // Resolved within the retained window: replay the decisive answer.
  auto it = conn.resolved.find(seq);
  if (it != conn.resolved.end()) {
    ResponseMsg resp;
    resp.conn = static_cast<std::uint32_t>(conn.cfg.conn_id);
    resp.seq = seq;
    resp.result = it->second.result;
    resp.matched = it->second.matched;
    resp.latest_exported = conn.history.latest();
    ctx.send(route_.up_conn(static_cast<int>(resp.conn)), kTagProcResponse, resp.encode());
    return;
  }
  // Still unresolved here: PENDING is always a legal (re)answer, and the
  // eventual decisive response follows through the normal path.
  for (const auto& o : conn.outstanding) {
    if (o.seq != seq) continue;
    ResponseMsg resp;
    resp.conn = static_cast<std::uint32_t>(conn.cfg.conn_id);
    resp.seq = seq;
    resp.result = MatchResult::Pending;
    resp.matched = kNeverExported;
    resp.latest_exported = conn.history.latest();
    ctx.send(route_.up_conn(static_cast<int>(resp.conn)), kTagProcResponse, resp.encode());
    return;
  }
  // Ancient (evicted from the resolved window): the collective answer was
  // consumed long ago; nothing useful to replay.
}

void ExportRegionState::on_forwarded_request(const RequestMsg& msg, ProcessContext& ctx) {
  Conn& conn = conn_of(msg.conn);
  if (msg.seq < conn.next_request_seq) {
    // Duplicate of an already-accepted request (a retry, or a fabric
    // duplicate): never process twice, only replay what we answered.
    replay_response(conn, msg.seq, ctx);
    return;
  }
  if (msg.seq > conn.next_request_seq) {
    // Arrived ahead of an undelivered predecessor: park until the gap
    // fills. emplace dedups repeated copies of the same parked seq.
    ++stats_.reordered_requests;
    conn.parked_requests.emplace(msg.seq, msg);
    return;
  }
  process_request(conn, msg, ctx);
  ++conn.next_request_seq;
  while (!conn.parked_requests.empty() &&
         conn.parked_requests.begin()->first == conn.next_request_seq) {
    const RequestMsg next = conn.parked_requests.begin()->second;
    conn.parked_requests.erase(conn.parked_requests.begin());
    process_request(conn, next, ctx);
    ++conn.next_request_seq;
  }
  // The frees above (Fig. 5 line 7, the match's drop_below) returned
  // their entries at once; their frames and spill files go only now,
  // after the answer and the data were sent.
  pool_.reclaim();
}

void ExportRegionState::process_request(Conn& conn, const RequestMsg& msg,
                                        ProcessContext& ctx) {
  CCF_REQUIRE(msg.requested > conn.last_request,
              "import request timestamps must increase: " << msg.requested << " after "
                                                          << conn.last_request);
  conn.last_request = msg.requested;

  MatchQuery query{msg.requested, conn.cfg.policy, conn.cfg.tolerance};
  const Interval region = query.region();
  trace_.emit(TraceKind::Request, ctx.now(), msg.requested);
  CCF_LOG_TRACE("export", "proc " << ctx.id() << " request seq " << msg.seq << " x "
                                  << msg.requested << " latest " << conn.history.latest()
                                  << " outstanding " << conn.outstanding.size());
  conn.last_region_lo = std::max(conn.last_region_lo, region.lo);

  // The request's region lower bound frees everything below it (Fig. 5
  // line 7): no current or future request can name those versions. When
  // earlier requests are still unresolved, the raise is deferred until
  // they resolve (their candidates must survive, see resolve_front).
  if (conn.outstanding.empty()) raise_low_water(conn, region.lo, nullptr, ctx);

  const MatchAnswer answer = conn.history.evaluate(query);
  send_response(conn, msg.seq, answer, ctx);
  trace_.emit(TraceKind::Reply, ctx.now(), msg.requested, answer.latest_exported, answer.result);

  Outstanding o;
  o.seq = msg.seq;
  o.query = query;
  o.region = region;
  o.candidate = conn.history.best_candidate(query);
  o.responded_decisive = answer.decisive();

  if (answer.decisive()) {
    // An immediately decidable request implies every earlier request was
    // already decidable (requests increase), so the queue must be empty.
    // Never indexed: it resolves before any export could sweep it.
    CCF_CHECK(conn.outstanding.empty(),
              "decisive request arrived while earlier requests are unresolved");
    ++stats_.local_decisions;
    conn.outstanding.push_back(std::move(o));
    resolve_front(conn, answer.result, answer.matched, ctx);
  } else {
    o.index_id = conn.history.index_pending(query);
    conn.outstanding.push_back(std::move(o));
  }
}

void ExportRegionState::on_buddy_help(const AnswerMsg& msg, ProcessContext& ctx) {
  Conn& conn = conn_of(msg.conn);
  ++stats_.buddy_helps_received;
  trace_.emit(TraceKind::BuddyHelp, ctx.now(), msg.requested, msg.matched, msg.result);

  if (conn.outstanding.empty() || conn.outstanding.front().seq != msg.seq) {
    // We already resolved this request locally (our decisive response and
    // the rep's help crossed on the wire). Validate consistency.
    auto it = conn.resolved.find(msg.seq);
    if (it == conn.resolved.end() && options_.failure_tolerance()) {
      // Help is a best-effort hint. On a faulty fabric it can arrive
      // duplicated past the resolved window or reordered ahead of the
      // request it answers; dropping it degrades to the paper's baseline
      // (this process keeps buffering until it decides locally) without
      // affecting which timestamp matches.
      return;
    }
    CCF_CHECK(it != conn.resolved.end(), "buddy-help for unknown request seq " << msg.seq);
    CCF_CHECK(it->second.result == msg.result &&
                  (msg.result != MatchResult::Match || it->second.matched == msg.matched),
              "buddy-help answer disagrees with local decision for seq " << msg.seq);
    return;
  }
  conn.outstanding.front().responded_decisive = true;  // rep already has the answer
  resolve_front(conn, msg.result, msg.matched, ctx);
  // Help may unblock later queued requests too, if the new low-water mark
  // made them decidable — it cannot (decidability depends on exports), but
  // a finalized history can; keep the invariant uniform.
  check_local_decisions(conn, ctx);
  pool_.reclaim();
}

void ExportRegionState::on_conn_closed(std::uint32_t conn_id, ProcessContext& ctx) {
  Conn& conn = conn_of(conn_id);
  if (conn.closed) return;
  conn.closed = true;
  // "Closed" only promises that no *future* request arrives: the
  // importer's rank 0 may finish while other importer ranks still await
  // data from this (slower) process, so outstanding requests and
  // announced-but-unproduced matches remain obligations. Everything else
  // — snapshots kept only for hypothetical future requests — is released.
  std::vector<BufferPool::Freed> freed;
  for (Timestamp ts :
       pool_.buffered_below(std::numeric_limits<Timestamp>::infinity(), conn.cfg.conn_id)) {
    bool needed = conn.history.pending_covering(ts).count > 0;
    for (const auto& ps : conn.pending_sends) {
      if (ps.match == ts) needed = true;
    }
    if (needed) continue;
    if (auto f = pool_.drop(ts, conn.cfg.conn_id)) freed.push_back(*f);
  }
  trace_removed(freed, ctx);
  pool_.reclaim();
}

std::size_t ExportRegionState::degrade_open_conns(ProcessContext& ctx) {
  std::size_t n = 0;
  for (const auto& c : conns_) {
    if (c.closed) continue;
    on_conn_closed(static_cast<std::uint32_t>(c.cfg.conn_id), ctx);
    ++n;
  }
  stats_.degraded_conns += n;
  return n;
}

bool ExportRegionState::all_conns_closed() const {
  for (const auto& c : conns_) {
    if (!c.closed) return false;
  }
  return true;
}

std::size_t ExportRegionState::shed(std::size_t bytes_needed) {
  if (bytes_needed == 0 || !pool_.can_spill()) return 0;
  // Classify every spillable resident snapshot by what the matcher state
  // can prove about it (mem/eviction.hpp). The eager free paths already
  // reclaimed everything provably non-matchable, so the classes seen here
  // are FutureOnly / Candidate / Pinned.
  std::vector<mem::EvictionCandidate> candidates;
  for (Timestamp t : pool_.resident_timestamps()) {
    if (!pool_.spillable(t)) continue;
    mem::EvictClass cls = mem::EvictClass::FutureOnly;
    for (const auto& c : conns_) {
      bool awaiting_shipment = false;
      for (const auto& ps : c.pending_sends) {
        if (ps.match == t) awaiting_shipment = true;
      }
      // Candidate status comes from the matcher's pending-request index
      // (an O(log k) probe of its cached bests) instead of a queue scan.
      cls = std::max(cls,
                     mem::classify_resident(c.history.pending(), t, awaiting_shipment));
      if (cls == mem::EvictClass::Pinned) break;
    }
    candidates.push_back(mem::EvictionCandidate{t, pool_.data_bytes(t), cls});
  }
  const mem::EvictionPlan plan = mem::plan_evictions(std::move(candidates), bytes_needed);
  std::size_t reclaimed = 0;
  for (const auto& v : plan.victims) reclaimed += pool_.spill_out(v.t);
  return reclaimed;
}

bool ExportRegionState::safe_to_stall() const {
  if (all_conns_closed()) return false;  // nothing will ever be freed by waiting
  for (const auto& c : conns_) {
    if (!c.outstanding.empty() || !c.pending_sends.empty()) return false;
  }
  return true;
}

void ExportRegionState::finalize(ProcessContext& ctx) {
  for (auto& conn : conns_) {
    if (!conn.history.finalized()) conn.history.finalize();
    // A finalized history makes every front decidable, so the batch sweep
    // drains the whole queue.
    check_local_decisions(conn, ctx);
    CCF_CHECK(conn.outstanding.empty(), "finalized history must decide every request");
    // Property 1: the matched timestamp is part of the collective export
    // sequence, so a process may only finish after producing it.
    CCF_CHECK(conn.pending_sends.empty(),
              "process finished before exporting an announced match (collective "
              "contract violation) on region "
                  << name_);
  }
  pool_.reclaim();
}

}  // namespace ccf::core
