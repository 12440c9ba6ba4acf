#include "simtime/virtual_cluster.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/log.hpp"

namespace ccf::simtime {

namespace {
/// Internal unwind signal used to tear down process fibers when the
/// cluster aborts (deadlock or another process threw). Never escapes run().
struct ClusterAborted {};
}  // namespace

// ---------------------------------------------------------------------------
// SimContext thin forwarding layer
// ---------------------------------------------------------------------------

SimTime SimContext::now() const { return cluster_->ctx_now(id_); }
void SimContext::advance(SimTime dt) { cluster_->ctx_advance(id_, dt); }
void SimContext::send(ProcId dst, Tag tag, Payload payload) {
  cluster_->ctx_send(id_, dst, tag, std::move(payload));
}
Message SimContext::recv(const MatchSpec& spec) { return cluster_->ctx_recv(id_, spec); }
std::optional<Message> SimContext::try_recv(const MatchSpec& spec) {
  return cluster_->ctx_try_recv(id_, spec);
}
bool SimContext::probe(const MatchSpec& spec) { return cluster_->ctx_probe(id_, spec); }
std::optional<Message> SimContext::recv_until(const MatchSpec& spec, SimTime deadline) {
  return cluster_->ctx_recv_until(id_, spec, deadline);
}

// ---------------------------------------------------------------------------
// VirtualCluster
// ---------------------------------------------------------------------------

VirtualCluster::VirtualCluster(Options options) : options_(std::move(options)) {
  CCF_REQUIRE(options_.latency != nullptr, "cluster needs a latency model");
}

void VirtualCluster::add_process(ProcId id, std::function<void(SimContext&)> body) {
  CCF_REQUIRE(!started_, "cannot add processes after run()");
  CCF_REQUIRE(id >= 0, "process id must be non-negative, got " << id);
  CCF_REQUIRE(!procs_.count(id), "duplicate process id " << id);
  CCF_REQUIRE(body != nullptr, "process body must be callable");
  procs_.emplace(id, std::make_unique<Proc>(id, std::move(body), *this));
  proc_order_.push_back(id);
}

VirtualCluster::Proc& VirtualCluster::proc_of(ProcId id) {
  auto it = procs_.find(id);
  CCF_CHECK(it != procs_.end(), "unknown proc id " << id);
  return *it->second;
}

void VirtualCluster::push_event(Event e) {
  e.seq = next_seq_++;
  events_.push(std::move(e));
}

std::optional<Message> VirtualCluster::take_from_inbox(Proc& proc, const MatchSpec& spec) {
  for (auto it = proc.inbox.begin(); it != proc.inbox.end(); ++it) {
    if (spec.matches(*it)) {
      Message m = std::move(*it);
      proc.inbox.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

void VirtualCluster::run_body(Proc& proc) {
  SimContext ctx(this, proc.id);
  try {
    proc.body(ctx);
  } catch (const ClusterAborted&) {
    // normal teardown path
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
    aborting_ = true;
  }
  proc.state = ProcState::Finished;
  ++finished_count_;
}

void VirtualCluster::yield(Proc& proc) {
  if (!aborting_) proc.fiber.suspend();
  if (aborting_) throw ClusterAborted{};
}

// --- SimContext backends (called on process fibers) ------------------------

SimTime VirtualCluster::ctx_now(ProcId id) { return proc_of(id).now; }

void VirtualCluster::ctx_advance(ProcId id, SimTime dt) {
  CCF_REQUIRE(dt >= 0.0, "advance by negative time " << dt);
  Proc& proc = proc_of(id);
  proc.state = ProcState::Yielded;
  push_event(Event{proc.now + dt, 0, Event::Kind::Resume, id, {}});
  yield(proc);
}

void VirtualCluster::ctx_send(ProcId src, ProcId dst, Tag tag, Payload payload) {
  CCF_REQUIRE(procs_.count(dst), "send to unknown process id " << dst);
  Proc& sender = proc_of(src);
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = payload ? std::move(payload) : transport::empty_payload();
  double delay = options_.latency->delay_seconds(m.size_bytes());
  if (options_.faults) {
    const transport::FaultDecision d = options_.faults->decide(src, dst, tag);
    if (d.drop) return;  // vanishes in flight
    delay += d.extra_delay_seconds;  // may reorder past later sends
    if (d.duplicate) {
      Message copy = m;
      push_event(Event{sender.now + delay, 0, Event::Kind::Delivery, dst, std::move(copy)});
    }
  }
  push_event(Event{sender.now + delay, 0, Event::Kind::Delivery, dst, std::move(m)});
}

Message VirtualCluster::ctx_recv(ProcId id, const MatchSpec& spec) {
  Proc& proc = proc_of(id);
  for (;;) {
    if (auto m = take_from_inbox(proc, spec)) return std::move(*m);
    proc.state = ProcState::WaitingRecv;
    proc.wait_spec = spec;
    proc.has_deadline = false;
    yield(proc);
  }
}

std::optional<Message> VirtualCluster::ctx_try_recv(ProcId id, const MatchSpec& spec) {
  return take_from_inbox(proc_of(id), spec);
}

bool VirtualCluster::ctx_probe(ProcId id, const MatchSpec& spec) {
  Proc& proc = proc_of(id);
  return std::any_of(proc.inbox.begin(), proc.inbox.end(),
                     [&](const Message& m) { return spec.matches(m); });
}

std::optional<Message> VirtualCluster::ctx_recv_until(ProcId id, const MatchSpec& spec,
                                                      SimTime deadline) {
  Proc& proc = proc_of(id);
  for (;;) {
    if (auto m = take_from_inbox(proc, spec)) return std::move(*m);
    if (proc.now >= deadline) return std::nullopt;
    proc.state = ProcState::WaitingRecv;
    proc.wait_spec = spec;
    proc.has_deadline = true;
    proc.deadline = deadline;
    proc.woke_by_deadline = false;
    Event e{deadline, 0, Event::Kind::Deadline, id, {}};
    e.gen = ++proc.deadline_gen;
    push_event(std::move(e));
    yield(proc);
    if (proc.woke_by_deadline) {
      // One more scan: a message may have been delivered exactly at the
      // deadline tick before our resume.
      if (auto m = take_from_inbox(proc, spec)) return std::move(*m);
      return std::nullopt;
    }
  }
}

// --- scheduler --------------------------------------------------------------

void VirtualCluster::resume(Proc& proc, SimTime at_time) {
  // Runs the process's fiber until it yields, blocks or finishes.
  proc.now = std::max(proc.now, at_time);
  end_time_ = std::max(end_time_, proc.now);
  proc.state = ProcState::Running;
  proc.fiber.resume();
}

void VirtualCluster::unwind_started_procs() {
  // Each suspended process resumes once, throws ClusterAborted from its
  // yield point and runs its destructors; a body that never started stays
  // unrun.
  aborting_ = true;
  for (ProcId id : proc_order_) {
    Proc& p = *procs_.at(id);
    if (p.state != ProcState::NotStarted && p.state != ProcState::Finished) p.fiber.resume();
  }
}

std::string VirtualCluster::deadlock_report() const {
  std::ostringstream os;
  os << "virtual cluster deadlock: no events pending, blocked processes:";
  for (ProcId id : proc_order_) {
    const Proc& p = *procs_.at(id);
    if (p.state == ProcState::WaitingRecv) {
      os << " [proc " << id << " waiting at t=" << p.now << " for src="
         << p.wait_spec.src << " tag=" << p.wait_spec.tag << "]";
    }
  }
  return os.str();
}

void VirtualCluster::run() {
  CCF_REQUIRE(!started_, "run() called twice");
  CCF_REQUIRE(!procs_.empty(), "no processes registered");
  started_ = true;
  // Seed: every process becomes runnable at t=0 in registration order.
  for (ProcId id : proc_order_) push_event(Event{0.0, 0, Event::Kind::Resume, id, {}});

  try {
    scheduler_loop();
  } catch (...) {
    unwind_started_procs();
    throw;
  }
  // After a body threw its peers are still suspended; after a clean run
  // there is none left.
  unwind_started_procs();
  if (first_error_) std::rethrow_exception(first_error_);
}

void VirtualCluster::scheduler_loop() {
  while (!aborting_ && finished_count_ < procs_.size()) {
    // Only a yielded or waiting process can be unfinished here, and every
    // yielded one has its resume queued: an empty queue is a deadlock.
    if (events_.empty()) throw DeadlockError(deadlock_report());

    if (++events_processed_ > options_.max_events) {
      throw util::InternalError("virtual cluster exceeded max_events (" +
                                std::to_string(options_.max_events) + ")");
    }

    Event ev = events_.top();
    events_.pop();

    if (options_.journal && journal_.size() < options_.journal_max) {
      JournalEntry entry;
      entry.time = ev.time;
      entry.proc = ev.proc;
      switch (ev.kind) {
        case Event::Kind::Resume: entry.kind = JournalEntry::Kind::Resume; break;
        case Event::Kind::Deadline: entry.kind = JournalEntry::Kind::Deadline; break;
        case Event::Kind::Delivery:
          entry.kind = JournalEntry::Kind::Delivery;
          entry.src = ev.message.src;
          entry.tag = ev.message.tag;
          entry.bytes = ev.message.size_bytes();
          break;
      }
      journal_.push_back(entry);
    }

    switch (ev.kind) {
      case Event::Kind::Delivery: {
        Proc& dst = proc_of(ev.proc);
        if (dst.state == ProcState::Finished) break;  // late message, drop
        ++messages_delivered_;
        const bool was_waiting_match =
            dst.state == ProcState::WaitingRecv && dst.wait_spec.matches(ev.message);
        dst.inbox.push_back(std::move(ev.message));
        if (was_waiting_match) {
          dst.state = ProcState::Yielded;
          push_event(Event{std::max(dst.now, ev.time), 0, Event::Kind::Resume, dst.id, {}});
        }
        break;
      }
      case Event::Kind::Deadline: {
        Proc& p = proc_of(ev.proc);
        if (p.state == ProcState::WaitingRecv && p.has_deadline && p.deadline_gen == ev.gen) {
          p.woke_by_deadline = true;
          p.state = ProcState::Yielded;
          push_event(Event{std::max(p.now, ev.time), 0, Event::Kind::Resume, p.id, {}});
        }
        break;
      }
      case Event::Kind::Resume: {
        Proc& p = proc_of(ev.proc);
        if (p.state == ProcState::Finished) break;
        CCF_CHECK(p.state == ProcState::Yielded || p.state == ProcState::NotStarted,
                  "resume of proc " << p.id << " in unexpected state");
        resume(p, ev.time);
        break;
      }
    }
  }
}

std::string VirtualCluster::journal_listing() const {
  std::ostringstream os;
  for (const auto& e : journal_) {
    os << e.time << " ";
    switch (e.kind) {
      case JournalEntry::Kind::Resume:
        os << "resume proc " << e.proc;
        break;
      case JournalEntry::Kind::Delivery:
        os << "deliver " << e.src << " -> " << e.proc << " tag " << e.tag << " (" << e.bytes
           << " B)";
        break;
      case JournalEntry::Kind::Deadline:
        os << "deadline proc " << e.proc;
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ccf::simtime
