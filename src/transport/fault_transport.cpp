#include "transport/fault_transport.hpp"

#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/log.hpp"

namespace ccf::transport {

class FaultEndpoint final : public Endpoint {
 public:
  FaultEndpoint(FaultTransport& owner, std::shared_ptr<Endpoint> inner)
      : owner_(owner), link_(std::make_shared<FaultTransport::Link>()) {
    link_->inner = std::move(inner);
  }

  /// The body that sent through this endpoint has returned, so no later
  /// send of its own will release what it held back: release it now.
  ~FaultEndpoint() override {
    std::vector<Message> held;
    {
      std::lock_guard<std::mutex> lock(owner_.mutex_);
      for (auto it = owner_.held_.begin(); it != owner_.held_.end();) {
        if (it->second.via != link_) {
          ++it;
          continue;
        }
        held.push_back(std::move(it->second.message));
        it = owner_.held_.erase(it);
      }
    }
    for (Message& m : held) {
      const ProcId dst = m.dst;
      try {
        link_->forward(std::move(m));
      } catch (const MailboxClosed&) {
        // Torn down: lost like every other message still in flight.
      } catch (const std::exception& e) {
        CCF_LOG_ERROR("fault", "held message " << id() << " -> " << dst
                                               << " lost on release: " << e.what());
      }
    }
  }

  FaultEndpoint(const FaultEndpoint&) = delete;
  FaultEndpoint& operator=(const FaultEndpoint&) = delete;

  ProcId id() const override { return link_->inner->id(); }
  Mailbox& inbox() override { return link_->inner->inbox(); }
  bool under_pressure() const override { return link_->inner->under_pressure(); }

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
        // (or the sender's departure, or shutdown) releases it — a delay
        // realised as a reordering. If the draw also duplicated it, one
        // copy (aliasing the same payload) still goes out on time so no
        // delivery is lost.
        if (decision.duplicate) dup_now = m;
        owner_.held_.emplace(m.dst, FaultTransport::Held{link_, std::move(m)});
        held_now = true;
      }
    }
    if (held_now) {
      if (dup_now) link_->forward(std::move(*dup_now));
      return;
    }
    if (!decision.drop) {
      if (decision.duplicate) link_->forward(m);
      link_->forward(std::move(m));
    }
    if (release) release->via->forward(std::move(release->message));
  }

 private:
  FaultTransport& owner_;
  std::shared_ptr<FaultTransport::Link> link_;
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
