#include "transport/fault_transport.hpp"

#include <optional>

#include "util/check.hpp"

namespace ccf::transport {

class FaultEndpoint final : public Endpoint,
                            public std::enable_shared_from_this<FaultEndpoint> {
 public:
  FaultEndpoint(FaultTransport& owner, std::shared_ptr<Endpoint> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  ProcId id() const override { return inner_->id(); }
  Mailbox& inbox() override { return inner_->inbox(); }
  bool under_pressure() const override { return inner_->under_pressure(); }

  void send(Message m) override {
    FaultDecision decision;
    std::optional<FaultTransport::Held> release;
    std::optional<Message> dup_now;
    bool held_now = false;
    {
      std::lock_guard<std::mutex> lock(owner_.mutex_);
      decision = owner_.injector_->decide(m.src, m.dst, m.tag);
      auto held_it = owner_.held_.find(m.dst);
      if (held_it != owner_.held_.end()) {
        release = std::move(held_it->second);
        owner_.held_.erase(held_it);
      }
      if (decision.extra_delay_seconds > 0 && !decision.drop && !release) {
        // Hold this message back; the next send to the same destination
        // (or shutdown) releases it — a delay realised as a reordering.
        // If the draw also duplicated it, one copy (aliasing the same
        // payload) still goes out on time so no delivery is lost.
        if (decision.duplicate) dup_now = m;
        owner_.held_.emplace(m.dst, FaultTransport::Held{shared_from_this(), std::move(m)});
        held_now = true;
      }
    }
    if (held_now) {
      if (dup_now) forward(std::move(*dup_now));
      return;
    }
    if (!decision.drop) {
      if (decision.duplicate) forward(m);
      forward(std::move(m));
    }
    if (release) release->via->forward(std::move(release->message));
  }

  /// Sends through the inner endpoint. A held message is released by
  /// whichever thread sends next to its destination, so this lock keeps
  /// each inner endpoint used by one thread at a time, as the Endpoint
  /// contract requires.
  void forward(Message m) {
    std::lock_guard<std::mutex> lock(forward_mutex_);
    inner_->send(std::move(m));
  }

 private:
  FaultTransport& owner_;
  std::shared_ptr<Endpoint> inner_;
  std::mutex forward_mutex_;
};

FaultTransport::FaultTransport(std::shared_ptr<Transport> inner,
                               std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector)) {
  CCF_REQUIRE(inner_ != nullptr, "FaultTransport over a null transport");
  CCF_REQUIRE(injector_ != nullptr, "FaultTransport without an injector");
}

std::shared_ptr<Endpoint> FaultTransport::attach(ProcId id) {
  return std::make_shared<FaultEndpoint>(*this, inner_->attach(id));
}

void FaultTransport::shutdown() {
  std::unordered_map<ProcId, Held> flush;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    flush.swap(held_);
  }
  for (auto& [dst, held] : flush) held.via->forward(std::move(held.message));
  inner_->shutdown();
}

}  // namespace ccf::transport
