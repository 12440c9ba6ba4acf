#include "transport/fabric.hpp"

#include "util/check.hpp"

namespace ccf::transport {

class FabricEndpoint final : public Endpoint {
 public:
  FabricEndpoint(ProcId id, FabricTransport& fabric, Mailbox& box)
      : id_(id), fabric_(fabric), box_(box) {}

  ProcId id() const override { return id_; }
  void send(Message m) override { fabric_.send(std::move(m)); }
  Mailbox& inbox() override { return box_; }

 private:
  ProcId id_;
  FabricTransport& fabric_;
  Mailbox& box_;
};

FabricTransport::FabricTransport(const std::vector<ProcId>& members) {
  for (ProcId id : members) {
    CCF_REQUIRE(id >= 0, "process id must be non-negative, got " << id);
    CCF_REQUIRE(members_.try_emplace(id).second, "process id " << id << " already registered");
  }
}

std::shared_ptr<Endpoint> FabricTransport::attach(ProcId id) {
  auto it = members_.find(id);
  CCF_REQUIRE(it != members_.end(), "unknown process id " << id);
  return std::make_shared<FabricEndpoint>(id, *this, it->second.box);
}

void FabricTransport::send(Message m) {
  auto dst = members_.find(m.dst);
  CCF_REQUIRE(dst != members_.end(), "send to unknown process id " << m.dst);
  if (auto src = members_.find(m.src); src != members_.end()) m.seq = src->second.next_seq++;
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(m.size_bytes(), std::memory_order_relaxed);
  if (!dst->second.box.deliver(std::move(m)))
    closed_box_drops_.fetch_add(1, std::memory_order_relaxed);
}

void FabricTransport::shutdown() {
  for (auto& [id, member] : members_) member.box.close();
}

TransportCounters FabricTransport::counters() const {
  TransportCounters c;
  c.frames_sent = messages_sent_.load(std::memory_order_relaxed);
  c.frames_received = c.frames_sent - closed_box_drops_.load(std::memory_order_relaxed);
  c.bytes_framed = bytes_sent_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace ccf::transport
