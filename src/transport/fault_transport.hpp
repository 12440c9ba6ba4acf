// FaultTransport: seeded fault injection as a decorator over ANY backend.
//
// Fault injection lives at the Transport seam, so every wall-clock
// backend (the in-memory fabric or a live SHM+TCP cluster) runs chaos
// schedules through this one path:
//
//   * drop       — the message never reaches the inner transport
//   * duplicate  — delivered twice (both aliasing one payload buffer)
//   * delay      — held back until the next message to the same
//                  destination (the decorator has no clock, so a delay
//                  manifests as a reordering), or until its sender's
//                  endpoint is released or the transport shuts down
//
// Decisions come from the same seeded FaultInjector, keyed by the
// per-link message index, so a chaos schedule replays identically whether
// the inner transport is the lossless fabric or a live SHM+TCP cluster.
// In multi-process deployments each process wraps its own endpoint; the
// per-link decision streams are disjoint across senders, so a shared seed
// still yields one deterministic schedule.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "transport/fault.hpp"
#include "transport/transport.hpp"

namespace ccf::transport {

class FaultEndpoint;

class FaultTransport final : public Transport {
 public:
  FaultTransport(std::shared_ptr<Transport> inner, std::shared_ptr<FaultInjector> injector);

  std::shared_ptr<Endpoint> attach(ProcId id) override;

  /// Flushes held-back (delayed) messages, then shuts down the inner
  /// transport — nothing is lost silently.
  void shutdown() override;

  TransportCounters counters() const override { return inner_->counters(); }

  const FaultInjector& injector() const { return *injector_; }

 private:
  friend class FaultEndpoint;

  /// A sender's inner endpoint. A held message goes out on whichever
  /// thread releases it, so the mutex keeps each inner endpoint used by
  /// one thread at a time, as the Endpoint contract requires.
  struct Link {
    std::shared_ptr<Endpoint> inner;
    std::mutex mutex;

    void forward(Message m) {
      std::lock_guard<std::mutex> lock(mutex);
      inner->send(std::move(m));
    }
  };

  /// One held-back message per destination, released after the next send
  /// to that destination, when its sender's endpoint is released, or at
  /// shutdown. It goes out through the sender's own inner endpoint, in
  /// turn with that sender's own sends.
  struct Held {
    std::shared_ptr<Link> via;
    Message message;
  };

  std::shared_ptr<Transport> inner_;
  std::shared_ptr<FaultInjector> injector_;
  std::mutex mutex_;
  std::unordered_map<ProcId, Held> held_;
  bool shut_down_ = false;
};

}  // namespace ccf::transport
