#include "runtime/virtual_time_cluster.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/check.hpp"

namespace ccf::runtime {

namespace {
/// Internal unwind signal used to tear down process fibers when the
/// cluster aborts (deadlock or another process threw). Never escapes run().
struct ClusterAborted {};
}  // namespace

/// What a body runs against: its own process's scheduler state, reached
/// directly. Every call runs on that process's fiber.
class VirtualTimeCluster::Context final : public ProcessContext {
 public:
  Context(VirtualTimeCluster& cluster, Proc& proc) : cluster_(cluster), proc_(proc) {}

  ProcId id() const override { return proc_.id; }
  void send(ProcId dst, Tag tag, Payload payload) override;
  Message recv(const MatchSpec& spec) override;
  std::optional<Message> try_recv(const MatchSpec& spec) override {
    return transport::take_match(proc_.inbox, spec);
  }
  std::optional<Message> recv_until(const MatchSpec& spec, double deadline) override;
  double now() const override { return proc_.now; }
  void compute(double seconds) override;
  void copy(void* dst, const void* src, std::size_t bytes) override {
    std::memcpy(dst, src, bytes);
    compute(cluster_.options_.copy_cost.cost_seconds(bytes));
  }

 private:
  VirtualTimeCluster& cluster_;
  Proc& proc_;
};

void VirtualTimeCluster::Context::compute(double seconds) {
  CCF_REQUIRE(seconds >= 0.0, "compute for negative time " << seconds);
  proc_.state = ProcState::Yielded;
  cluster_.push_event(Event{proc_.now + seconds, 0, EventKind::Resume, proc_.id, {}});
  cluster_.yield(proc_);
}

void VirtualTimeCluster::Context::send(ProcId dst, Tag tag, Payload payload) {
  CCF_REQUIRE(cluster_.procs_.count(dst), "send to unknown process id " << dst);
  Message m;
  m.src = proc_.id;
  m.dst = dst;
  m.tag = tag;
  m.payload = payload ? std::move(payload) : transport::empty_payload();
  double delay = cluster_.options_.latency->delay_seconds(m.size_bytes());
  if (cluster_.options_.faults) {
    const transport::FaultDecision d = cluster_.options_.faults->decide(proc_.id, dst, tag);
    if (d.drop) return;  // vanishes in flight
    delay += d.extra_delay_seconds;  // may reorder past later sends
    if (d.duplicate) {
      Message copy = m;
      cluster_.push_event(Event{proc_.now + delay, 0, EventKind::Delivery, dst, std::move(copy)});
    }
  }
  cluster_.push_event(Event{proc_.now + delay, 0, EventKind::Delivery, dst, std::move(m)});
}

Message VirtualTimeCluster::Context::recv(const MatchSpec& spec) {
  for (;;) {
    if (auto m = transport::take_match(proc_.inbox, spec)) return std::move(*m);
    proc_.state = ProcState::WaitingRecv;
    proc_.wait_spec = spec;
    proc_.has_deadline = false;
    cluster_.yield(proc_);
  }
}

std::optional<Message> VirtualTimeCluster::Context::recv_until(const MatchSpec& spec,
                                                               double deadline) {
  for (;;) {
    if (auto m = transport::take_match(proc_.inbox, spec)) return std::move(*m);
    if (proc_.now >= deadline) return std::nullopt;
    proc_.state = ProcState::WaitingRecv;
    proc_.wait_spec = spec;
    proc_.has_deadline = true;
    proc_.deadline = deadline;
    proc_.woke_by_deadline = false;
    Event e{deadline, 0, EventKind::Deadline, proc_.id, {}};
    e.gen = ++proc_.deadline_gen;
    cluster_.push_event(std::move(e));
    cluster_.yield(proc_);
    if (proc_.woke_by_deadline) {
      // One more scan: a message may have been delivered exactly at the
      // deadline tick before our resume.
      if (auto m = transport::take_match(proc_.inbox, spec)) return std::move(*m);
      return std::nullopt;
    }
  }
}

// ---------------------------------------------------------------------------
// VirtualTimeCluster
// ---------------------------------------------------------------------------

VirtualTimeCluster::VirtualTimeCluster(ClusterOptions options) : options_(std::move(options)) {
  CCF_REQUIRE(options_.latency != nullptr, "cluster needs a latency model");
}

void VirtualTimeCluster::add_process(ProcId id, ProcessBody body) {
  CCF_REQUIRE(!started_, "cannot add processes after run()");
  CCF_REQUIRE(id >= 0, "process id must be non-negative, got " << id);
  CCF_REQUIRE(!procs_.count(id), "duplicate process id " << id);
  CCF_REQUIRE(body != nullptr, "process body must be callable");
  procs_.emplace(id, std::make_unique<Proc>(id, std::move(body), *this));
  proc_order_.push_back(id);
}

void VirtualTimeCluster::record_journal(std::size_t max_entries) {
  CCF_REQUIRE(!started_, "record_journal() after run()");
  journal_max_ = max_entries;
}

VirtualTimeCluster::Proc& VirtualTimeCluster::proc_of(ProcId id) {
  auto it = procs_.find(id);
  CCF_CHECK(it != procs_.end(), "unknown proc id " << id);
  return *it->second;
}

void VirtualTimeCluster::push_event(Event e) {
  e.seq = next_seq_++;
  events_.push(std::move(e));
}

void VirtualTimeCluster::run_body(Proc& proc) {
  Context ctx(*this, proc);
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

void VirtualTimeCluster::yield(Proc& proc) {
  if (!aborting_) proc.fiber.suspend();
  if (aborting_) throw ClusterAborted{};
}

// --- scheduler --------------------------------------------------------------

void VirtualTimeCluster::resume(Proc& proc, double at_time) {
  // Runs the process's fiber until it yields, blocks or finishes.
  proc.now = std::max(proc.now, at_time);
  end_time_ = std::max(end_time_, proc.now);
  const bool first = proc.state == ProcState::NotStarted;
  proc.state = ProcState::Running;
  if (first) {
    proc.fiber.start(stack_protection_);
  } else {
    proc.fiber.resume();
  }
}

void VirtualTimeCluster::unwind_started_procs() {
  // Each suspended process resumes once, throws ClusterAborted from its
  // yield point and runs its destructors; a body that never started — or
  // whose start found no stack — stays unrun.
  aborting_ = true;
  for (ProcId id : proc_order_) {
    Proc& p = *procs_.at(id);
    if (p.fiber.started()) p.fiber.resume();
  }
}

std::string VirtualTimeCluster::deadlock_report() const {
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

void VirtualTimeCluster::run() {
  CCF_REQUIRE(!started_, "run() called twice");
  CCF_REQUIRE(!procs_.empty(), "no processes registered");
  started_ = true;
  stack_protection_ = simtime::Fiber::plan_stacks(procs_.size());
  // Seed: every process becomes runnable at t=0 in registration order.
  for (ProcId id : proc_order_) push_event(Event{0.0, 0, EventKind::Resume, id, {}});

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

void VirtualTimeCluster::scheduler_loop() {
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

    if (journal_.size() < journal_max_) {
      JournalEntry entry{ev.time, ev.kind, ev.proc};
      if (ev.kind == EventKind::Delivery) {
        entry.src = ev.message.src;
        entry.tag = ev.message.tag;
        entry.bytes = ev.message.size_bytes();
      }
      journal_.push_back(entry);
    }

    switch (ev.kind) {
      case EventKind::Delivery: {
        Proc& dst = proc_of(ev.proc);
        if (dst.state == ProcState::Finished) break;  // late message, drop
        ++messages_delivered_;
        const bool was_waiting_match =
            dst.state == ProcState::WaitingRecv && dst.wait_spec.matches(ev.message);
        dst.inbox.push_back(std::move(ev.message));
        if (was_waiting_match) {
          dst.state = ProcState::Yielded;
          push_event(Event{std::max(dst.now, ev.time), 0, EventKind::Resume, dst.id, {}});
        }
        break;
      }
      case EventKind::Deadline: {
        Proc& p = proc_of(ev.proc);
        if (p.state == ProcState::WaitingRecv && p.has_deadline && p.deadline_gen == ev.gen) {
          p.woke_by_deadline = true;
          p.state = ProcState::Yielded;
          push_event(Event{std::max(p.now, ev.time), 0, EventKind::Resume, p.id, {}});
        }
        break;
      }
      case EventKind::Resume: {
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

std::string VirtualTimeCluster::journal_listing() const {
  std::ostringstream os;
  for (const auto& e : journal_) {
    os << e.time << " ";
    switch (e.kind) {
      case EventKind::Resume:
        os << "resume proc " << e.proc;
        break;
      case EventKind::Delivery:
        os << "deliver " << e.src << " -> " << e.proc << " tag " << e.tag << " (" << e.bytes
           << " B)";
        break;
      case EventKind::Deadline:
        os << "deadline proc " << e.proc;
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ccf::runtime
