// Deterministic virtual-time execution of a simulated cluster.
//
// Every simulated process runs as a stackful fiber (simtime/fiber.hpp) on
// the thread that calls run(). The scheduler enforces *sequential,
// time-ordered* execution: exactly one process runs at any instant, always
// the one with the smallest virtual timestamp (ties broken by insertion
// order), until it advances time or waits for a message. Virtual time
// only advances when a process calls advance(); messages are delivered
// after a delay charged by the cluster's LatencyModel. The result is a
// conservative discrete-event simulation whose event order — and therefore
// every experiment built on it — is bit-for-bit reproducible, independent
// of the host's core count or load.
//
// This is the substitution for the paper's physical cluster (see DESIGN.md):
// buddy-help's benefit depends only on relative process progress rates,
// buffering costs, and message latencies, all of which are modeled here.
#pragma once

#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "simtime/fiber.hpp"
#include "transport/fault.hpp"
#include "transport/latency.hpp"
#include "transport/message.hpp"
#include "util/check.hpp"

namespace ccf::simtime {

using SimTime = double;  ///< virtual seconds
using transport::MatchSpec;
using transport::Message;
using transport::Payload;
using transport::ProcId;
using transport::Tag;

class VirtualCluster;

/// Handle a simulated process body uses to interact with virtual time and
/// the network. Only valid inside that process body.
class SimContext {
 public:
  ProcId id() const { return id_; }
  SimTime now() const;

  /// Consumes `dt` virtual seconds of computation and yields to any process
  /// whose next event is earlier.
  void advance(SimTime dt);

  /// Non-blocking send. The message is delivered to `dst` after the
  /// cluster latency model's delay (payload-size dependent).
  void send(ProcId dst, Tag tag, Payload payload);

  /// Blocks (in virtual time) until a matching message has been delivered;
  /// the process resumes no earlier than the message's delivery time.
  Message recv(const MatchSpec& spec);

  /// Takes a matching message already delivered by now(), else nullopt.
  std::optional<Message> try_recv(const MatchSpec& spec);

  /// True if a matching message has been delivered by now().
  bool probe(const MatchSpec& spec);

  /// Blocks until either a matching message is available (returned) or the
  /// virtual deadline passes (nullopt). Used for rep polling loops.
  std::optional<Message> recv_until(const MatchSpec& spec, SimTime deadline);

 private:
  friend class VirtualCluster;
  SimContext(VirtualCluster* cluster, ProcId id) : cluster_(cluster), id_(id) {}

  VirtualCluster* cluster_;
  ProcId id_;
};

/// Thrown by run() when all remaining processes are blocked in recv() and
/// no deliveries are in flight.
class DeadlockError : public util::Error {
 public:
  explicit DeadlockError(const std::string& what) : Error(what) {}
};

class VirtualCluster {
 public:
  struct Options {
    std::shared_ptr<const transport::LatencyModel> latency = transport::zero_model();
    /// Optional seeded fault injector: sends may be dropped, duplicated,
    /// or delayed (a delay in virtual time realises reordering).
    std::shared_ptr<transport::FaultInjector> faults;
    /// Hard cap on total events processed; guards against runaway loops.
    std::uint64_t max_events = 500'000'000;
    /// Record every processed event into an inspectable journal (bounded
    /// by journal_max). Two runs of the same deterministic workload
    /// produce identical journals — diffing them localizes divergence.
    bool journal = false;
    std::size_t journal_max = 1 << 20;
  };

  /// One processed scheduler event (journaling enabled via Options).
  struct JournalEntry {
    SimTime time = 0;
    enum class Kind : std::uint8_t { Resume, Delivery, Deadline } kind = Kind::Resume;
    ProcId proc = -1;  ///< resumed/receiving process
    ProcId src = -1;   ///< sender (Delivery only)
    Tag tag = 0;       ///< message tag (Delivery only)
    std::size_t bytes = 0;

    friend bool operator==(const JournalEntry& a, const JournalEntry& b) {
      return a.time == b.time && a.kind == b.kind && a.proc == b.proc && a.src == b.src &&
             a.tag == b.tag && a.bytes == b.bytes;
    }
  };

  VirtualCluster() : VirtualCluster(Options{}) {}
  explicit VirtualCluster(Options options);

  VirtualCluster(const VirtualCluster&) = delete;
  VirtualCluster& operator=(const VirtualCluster&) = delete;

  /// Registers a process; bodies start executing when run() is called.
  void add_process(ProcId id, std::function<void(SimContext&)> body);

  /// Runs every process to completion in deterministic virtual-time order.
  /// Rethrows the first exception a process body threw; throws
  /// DeadlockError if processes are mutually blocked.
  void run();

  /// Largest virtual time any process reached (valid after run()).
  SimTime end_time() const { return end_time_; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }

  /// Recorded events (empty unless Options::journal). Valid after run().
  const std::vector<JournalEntry>& journal() const { return journal_; }

  /// Human-readable journal rendering (one line per event).
  std::string journal_listing() const;

 private:
  friend class SimContext;

  enum class ProcState { NotStarted, Running, Yielded, WaitingRecv, Finished };

  struct Proc {
    Proc(ProcId proc_id, std::function<void(SimContext&)> proc_body, VirtualCluster& cluster)
        : id(proc_id),
          body(std::move(proc_body)),
          fiber([&cluster, this] { cluster.run_body(*this); }, proc_id) {}

    ProcId id;
    std::function<void(SimContext&)> body;
    Fiber fiber;
    SimTime now = 0.0;
    ProcState state = ProcState::NotStarted;
    MatchSpec wait_spec;  ///< valid while WaitingRecv
    bool has_deadline = false;
    SimTime deadline = 0.0;
    bool woke_by_deadline = false;
    std::uint64_t deadline_gen = 0;  ///< invalidates stale Deadline events
    std::deque<Message> inbox;  ///< messages already delivered (<= proc time)
  };

  struct Event {
    SimTime time;
    std::uint64_t seq;  ///< tie-breaker: insertion order
    enum class Kind { Resume, Delivery, Deadline } kind;
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
  std::optional<Message> take_from_inbox(Proc& proc, const MatchSpec& spec);

  // SimContext backends
  SimTime ctx_now(ProcId id);
  void ctx_advance(ProcId id, SimTime dt);
  void ctx_send(ProcId src, ProcId dst, Tag tag, Payload payload);
  Message ctx_recv(ProcId id, const MatchSpec& spec);
  std::optional<Message> ctx_try_recv(ProcId id, const MatchSpec& spec);
  bool ctx_probe(ProcId id, const MatchSpec& spec);
  std::optional<Message> ctx_recv_until(ProcId id, const MatchSpec& spec, SimTime deadline);

  // --- scheduler side ---
  void scheduler_loop();
  void resume(Proc& proc, SimTime at_time);
  void unwind_started_procs();
  std::string deadlock_report() const;

  Options options_;
  std::unordered_map<ProcId, std::unique_ptr<Proc>> procs_;
  std::vector<ProcId> proc_order_;
  std::priority_queue<Event, std::vector<Event>, Event::Later> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::vector<JournalEntry> journal_;
  SimTime end_time_ = 0.0;
  StackProtection stack_protection_ = StackProtection::GuardPage;  ///< set by run()
  bool started_ = false;
  bool aborting_ = false;
  std::exception_ptr first_error_;
  std::size_t finished_count_ = 0;
};

}  // namespace ccf::simtime
