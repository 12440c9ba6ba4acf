// Deterministic virtual-time execution of a simulated cluster.
//
// Every simulated process runs as a stackful fiber (simtime/fiber.hpp) on
// the thread that calls run(). The scheduler enforces *sequential,
// time-ordered* execution: exactly one process runs at any instant, always
// the one with the smallest virtual timestamp (ties broken by insertion
// order), until it advances time or waits for a message. Virtual time
// only advances when a process calls compute() or copy(); copy() performs
// the real memcpy (data correctness is still verified end to end) and
// charges ClusterOptions::copy_cost. Messages are delivered after a delay
// charged by ClusterOptions::latency. The result is a conservative
// discrete-event simulation whose event order — and therefore every
// experiment built on it — is bit-for-bit reproducible, independent of the
// host's core count or load.
//
// This is the substitution for the paper's physical cluster (see DESIGN.md):
// buddy-help's benefit depends only on relative process progress rates,
// buffering costs, and message latencies, all of which are modeled here.
#pragma once

#include <deque>
#include <exception>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/cluster.hpp"
#include "simtime/fiber.hpp"
#include "util/check.hpp"

namespace ccf::runtime {

/// Thrown by run() when all remaining processes are blocked in recv() and
/// no deliveries are in flight.
class DeadlockError : public util::Error {
 public:
  explicit DeadlockError(const std::string& what) : Error(what) {}
};

class VirtualTimeCluster final : public Cluster {
 public:
  enum class EventKind : std::uint8_t { Resume, Delivery, Deadline };

  /// One processed scheduler event (recorded once record_journal() is on).
  struct JournalEntry {
    double time = 0;
    EventKind kind = EventKind::Resume;
    ProcId proc = -1;  ///< resumed/receiving process
    ProcId src = -1;   ///< sender (Delivery only)
    Tag tag = 0;       ///< message tag (Delivery only)
    std::size_t bytes = 0;

    friend bool operator==(const JournalEntry&, const JournalEntry&) = default;
  };

  /// Uses `options`' latency, faults, max_events and copy_cost; the
  /// wall-clock transport settings do not apply.
  explicit VirtualTimeCluster(ClusterOptions options = {});

  VirtualTimeCluster(const VirtualTimeCluster&) = delete;
  VirtualTimeCluster& operator=(const VirtualTimeCluster&) = delete;

  /// Registers a process; bodies start executing when run() is called.
  void add_process(ProcId id, ProcessBody body) override;

  /// Runs every process to completion in deterministic virtual-time order.
  /// Rethrows the first exception a process body threw; throws
  /// DeadlockError if processes are mutually blocked.
  void run() override;

  /// Largest virtual time any process reached (valid after run()).
  double end_time() const override { return end_time_; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }

  /// Test hook: record up to `max_entries` processed events. Two runs of
  /// the same deterministic workload produce identical journals — diffing
  /// them localizes divergence. Call before run().
  void record_journal(std::size_t max_entries = std::size_t{1} << 20);

  /// Recorded events (empty unless record_journal()). Valid after run().
  const std::vector<JournalEntry>& journal() const { return journal_; }

  /// Human-readable journal rendering (one line per event).
  std::string journal_listing() const;

 private:
  class Context;

  enum class ProcState { NotStarted, Running, Yielded, WaitingRecv, Finished };

  struct Proc {
    Proc(ProcId proc_id, ProcessBody proc_body, VirtualTimeCluster& cluster)
        : id(proc_id),
          body(std::move(proc_body)),
          fiber([&cluster, this] { cluster.run_body(*this); }, proc_id) {}

    ProcId id;
    ProcessBody body;
    simtime::Fiber fiber;
    double now = 0.0;
    ProcState state = ProcState::NotStarted;
    MatchSpec wait_spec;  ///< valid while WaitingRecv
    bool has_deadline = false;
    double deadline = 0.0;
    bool woke_by_deadline = false;
    std::uint64_t deadline_gen = 0;  ///< invalidates stale Deadline events
    std::deque<Message> inbox;  ///< messages already delivered (<= proc time)
  };

  struct Event {
    double time;
    std::uint64_t seq;  ///< tie-breaker: insertion order
    EventKind kind;
    ProcId proc;      ///< Resume/Deadline target
    Message message;  ///< Delivery payload
    std::uint64_t gen = 0;  ///< Deadline generation (see Proc::deadline_gen)

    struct Later {
      bool operator()(const Event& a, const Event& b) const {
        if (a.time != b.time) return a.time > b.time;
        return a.seq > b.seq;
      }
    };
  };

  // --- called on process fibers ---
  void run_body(Proc& proc);
  void yield(Proc& proc);
  void push_event(Event e);
  Proc& proc_of(ProcId id);

  // --- scheduler side ---
  void scheduler_loop();
  void resume(Proc& proc, double at_time);
  void unwind_started_procs();
  std::string deadlock_report() const;

  ClusterOptions options_;
  std::size_t journal_max_ = 0;  ///< 0: no journal
  std::unordered_map<ProcId, std::unique_ptr<Proc>> procs_;
  std::vector<ProcId> proc_order_;
  std::priority_queue<Event, std::vector<Event>, Event::Later> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::vector<JournalEntry> journal_;
  double end_time_ = 0.0;
  simtime::StackProtection stack_protection_ = simtime::StackProtection::GuardPage;
  bool started_ = false;
  bool aborting_ = false;
  std::exception_ptr first_error_;
  std::size_t finished_count_ = 0;
};

}  // namespace ccf::runtime
