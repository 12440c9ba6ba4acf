// In-memory Transport backend: the lossless fabric.
//
// One Mailbox per member, routed by destination. Delivery is immediate
// and ordered per (sender, receiver) pair, and every message is stamped
// with its sender's next sequence number. The real-thread runtime uses it
// by default; the virtual-time runtime schedules its own deliveries and
// never builds one. Faults compose on top as a FaultTransport decorator.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "transport/transport.hpp"

namespace ccf::transport {

class FabricTransport final : public Transport {
 public:
  /// One mailbox per member; ids must be unique and non-negative.
  explicit FabricTransport(const std::vector<ProcId>& members);

  /// Throws InvalidArgument for an id that is not a member.
  std::shared_ptr<Endpoint> attach(ProcId id) override;

  /// Closes every mailbox (wakes all blocked receivers).
  void shutdown() override;

  /// frames_sent/bytes_framed count deliveries; frames_received leaves
  /// out messages that reached an already closed mailbox.
  TransportCounters counters() const override;

 private:
  friend class FabricEndpoint;

  struct Member {
    Mailbox box;
    /// Advanced only by this member's own sends, which the Endpoint
    /// contract keeps on one thread at a time.
    std::uint64_t next_seq = 0;
  };

  /// Stamps the sender's sequence number and delivers into dst's mailbox.
  /// Throws InvalidArgument for an unknown destination.
  void send(Message m);

  /// Fixed at construction, so lookups need no lock.
  std::unordered_map<ProcId, Member> members_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> closed_box_drops_{0};
};

}  // namespace ccf::transport
