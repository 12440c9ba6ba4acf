// FaultTransport decorator tests: seeded chaos over ANY Transport
// backend. The same plan over the same traffic must produce the same
// fault schedule whether the inner transport is the in-memory fabric or
// the real SHM+TCP backend — that replay equivalence is what lets the
// chaos harness run unchanged against a live deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "transport/fault.hpp"
#include "transport/fault_transport.hpp"
#include "transport/transport.hpp"

namespace ccf::transport {
namespace {

Message make_message(ProcId src, ProcId dst, Tag tag) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  std::vector<std::byte> p(32);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::byte>((static_cast<std::size_t>(tag) + i) & 0xFF);
  m.payload = make_payload(std::move(p));
  return m;
}

/// Sends `count` tagged messages 0 -> 1 through a faulted transport and
/// returns the delivered tag sequence.
std::vector<Tag> run_schedule(std::shared_ptr<Transport> inner,
                              std::shared_ptr<FaultInjector> injector, int count) {
  FaultTransport faulted(std::move(inner), std::move(injector));
  std::vector<Tag> tags;
  std::thread receiver([&] {
    auto ep = faulted.attach(1);
    for (;;) {
      Message m;
      try {
        m = ep->inbox().receive({});
      } catch (const MailboxClosed&) {
        break;
      }
      tags.push_back(m.tag);
    }
  });
  {
    auto ep = faulted.attach(0);
    for (int i = 0; i < count; ++i) ep->send(make_message(0, 1, i));
  }
  // Flush held (delayed) messages, then close mailboxes so the receiver
  // sees a clean end-of-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  faulted.shutdown();
  receiver.join();
  return tags;
}

FaultPlan chaos_plan(std::uint64_t seed, int count) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.2;
  plan.duplicate_prob = 0.2;
  plan.delay_prob = 0.2;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.002;
  // Keep the final message fault-free so it releases any held (delayed)
  // message while the transport is still fully up — the flush must not
  // race the backend's teardown.
  plan.eligible = [count](ProcId, ProcId, Tag tag) { return tag < count - 1; };
  return plan;
}

TEST(FaultTransport, PassesThroughUntouchedWithoutFaults) {
  auto injector = std::make_shared<FaultInjector>(FaultPlan{});  // all probs 0
  const auto tags = run_schedule(make_transport({}, {0, 1}), injector, 50);
  ASSERT_EQ(tags.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(tags[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(injector->stats().dropped, 0u);
}

TEST(FaultTransport, DropsDuplicatesAndReordersPerThePlan) {
  auto injector = std::make_shared<FaultInjector>(chaos_plan(7, 200));
  const std::shared_ptr<Transport> inner = make_transport({}, {0, 1});
  const auto tags = run_schedule(inner, injector, 200);
  const FaultStats stats = injector->stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.delayed, 0u);
  EXPECT_EQ(tags.size(), 200u - stats.dropped + stats.duplicated);
  // Dropped messages never reach the inner transport: it delivered
  // exactly what arrived.
  EXPECT_EQ(inner->counters().frames_sent, tags.size());
  // A dropped message arrives not at all, a duplicated one exactly twice.
  std::map<Tag, std::uint64_t> arrivals;
  for (Tag t : tags) ++arrivals[t];
  std::uint64_t twice = 0;
  for (const auto& [tag, n] : arrivals) twice += n == 2 ? 1 : 0;
  EXPECT_EQ(arrivals.size(), 200u - stats.dropped);
  EXPECT_EQ(twice, stats.duplicated);
  // Delayed messages are held past a later send: a reordering.
  EXPECT_FALSE(std::is_sorted(tags.begin(), tags.end()));
}

TEST(FaultTransport, SameSeedReplaysTheSameScheduleOnTheSameBackend) {
  const auto a =
      run_schedule(make_transport({}, {0, 1}), std::make_shared<FaultInjector>(chaos_plan(11, 150)), 150);
  const auto b =
      run_schedule(make_transport({}, {0, 1}), std::make_shared<FaultInjector>(chaos_plan(11, 150)), 150);
  EXPECT_EQ(a, b);
}

TEST(FaultTransport, InjectsTheSameFaultsOverFabricAndRealShm) {
  // The decision stream is a pure function of (seed, link, message
  // index) — the inner backend must not shift it. Delivery order may
  // differ across backends; drop/dup/delay counts may not.
  auto fabric_injector = std::make_shared<FaultInjector>(chaos_plan(23, 120));
  const auto fabric_tags = run_schedule(make_transport({}, {0, 1}), fabric_injector, 120);

  TransportOptions real_opt;
  real_opt.kind = TransportKind::Real;  // same node: SHM rings
  auto real_injector = std::make_shared<FaultInjector>(chaos_plan(23, 120));
  const auto real_tags = run_schedule(make_transport(real_opt, {0, 1}), real_injector, 120);

  const FaultStats fs = fabric_injector->stats();
  const FaultStats rs = real_injector->stats();
  EXPECT_EQ(fs.dropped, rs.dropped);
  EXPECT_EQ(fs.duplicated, rs.duplicated);
  EXPECT_EQ(fs.delayed, rs.delayed);
  EXPECT_EQ(fabric_tags.size(), real_tags.size());

  // SHM delivery is FIFO per link, so the sequences match exactly.
  EXPECT_EQ(fabric_tags, real_tags);
}

TEST(FaultTransport, DuplicateDeliveriesAliasOnePayloadBuffer) {
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate_prob = 1.0;
  plan.max_faults = 1;
  FaultTransport faulted(make_transport({}, {0, 1}),
                         std::make_shared<FaultInjector>(plan));
  auto receiver = faulted.attach(1);
  {
    auto ep = faulted.attach(0);
    ep->send(make_message(0, 1, 5));
  }
  Message first = receiver->inbox().receive({});
  Message second = receiver->inbox().receive({});
  EXPECT_EQ(first.tag, 5);
  EXPECT_EQ(second.tag, 5);
  EXPECT_EQ(first.payload.data(), second.payload.data())
      << "duplicate should alias, not copy";
  faulted.shutdown();
}

TEST(FaultTransport, ShutdownFlushesHeldMessages) {
  FaultPlan plan;
  plan.seed = 1;
  plan.delay_prob = 1.0;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.001;
  plan.max_faults = 3;
  FaultTransport faulted(make_transport({}, {0, 1}),
                         std::make_shared<FaultInjector>(plan));
  auto receiver = faulted.attach(1);
  auto ep = faulted.attach(0);
  ep->send(make_message(0, 1, 9));  // held until the next send to 1
  EXPECT_EQ(receiver->inbox().pending(), 0u);
  // Also delayed, but a held message is pending: this one goes out and
  // releases the held one behind it.
  ep->send(make_message(0, 1, 10));
  EXPECT_EQ(receiver->inbox().receive({}).tag, 10);
  EXPECT_EQ(receiver->inbox().receive({}).tag, 9);
  ep->send(make_message(0, 1, 11));  // held: nothing follows to release it
  EXPECT_EQ(receiver->inbox().pending(), 0u);
  faulted.shutdown();  // must flush, not drop
  auto m = receiver->inbox().try_receive({});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 11);
}

/// Passes traffic to a backend and counts send() calls that overlap on
/// one endpoint, which the Endpoint contract rules out. Each send pauses
/// briefly so that an overlap, if the caller allows one, is seen.
class OverlapCountingTransport final : public Transport {
 public:
  explicit OverlapCountingTransport(std::shared_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  std::shared_ptr<Endpoint> attach(ProcId id) override {
    return std::make_shared<CountingEndpoint>(inner_->attach(id), overlaps_);
  }
  void shutdown() override { inner_->shutdown(); }
  TransportCounters counters() const override { return inner_->counters(); }
  std::uint64_t overlaps() const { return overlaps_.load(); }

 private:
  class CountingEndpoint final : public Endpoint {
   public:
    CountingEndpoint(std::shared_ptr<Endpoint> inner, std::atomic<std::uint64_t>& overlaps)
        : inner_(std::move(inner)), overlaps_(overlaps) {}
    ProcId id() const override { return inner_->id(); }
    Mailbox& inbox() override { return inner_->inbox(); }
    void send(Message m) override {
      if (in_send_.fetch_add(1) != 0) overlaps_.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      inner_->send(std::move(m));
      in_send_.fetch_sub(1);
    }

   private:
    std::shared_ptr<Endpoint> inner_;
    std::atomic<std::uint64_t>& overlaps_;
    std::atomic<int> in_send_{0};
  };

  std::shared_ptr<Transport> inner_;
  std::atomic<std::uint64_t> overlaps_{0};
};

TEST(FaultTransport, AHeldMessageReleasedOnAnotherThreadKeepsOneSenderPerEndpoint) {
  // A held message goes out on the thread that next sends to its
  // destination, through the endpoint of the process that sent it. Here
  // sender 1 keeps releasing sender 0's held messages while sender 0 is
  // sending too, so two threads feed 0's endpoint. The decorator must
  // still use each inner endpoint from one thread at a time: over the
  // real backend, two producers on 0's single-producer SHM ring to 2
  // would tear or lose records.
  constexpr int kPerSender = 2000;
  FaultPlan plan;
  plan.seed = 5;
  plan.delay_prob = 1.0;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.001;
  // Only sender 0's even messages are held, so each odd one goes straight
  // out, possibly while sender 1 is releasing the even one before it. The
  // last message is odd and releases anything still held while the
  // transport is up.
  static_assert(kPerSender % 2 == 0);
  plan.eligible = [](ProcId src, ProcId, Tag tag) { return src == 0 && tag % 2 == 0; };
  TransportOptions opt;
  opt.kind = TransportKind::Real;  // one node: SHM rings only
  opt.shm_ring_bytes = 16u << 10;  // small, so the producers wrap and stall often
  const auto counting = std::make_shared<OverlapCountingTransport>(make_transport(opt, {0, 1, 2}));
  FaultTransport faulted(counting, std::make_shared<FaultInjector>(plan));
  auto receiver = faulted.attach(2);
  auto blast = [&](ProcId src) {
    auto ep = faulted.attach(src);
    try {
      for (int i = 0; i < kPerSender; ++i) {
        ep->send(make_message(src, 2, i));
        // Sender 0 pauses while its message is held, so that sender 1
        // usually releases it.
        if (src == 0 && i % 2 == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } catch (const MailboxClosed&) {
      // Torn down after a failure below.
    }
  };
  std::thread a(blast, 0);
  std::thread b(blast, 1);
  std::vector<std::vector<int>> arrivals(2, std::vector<int>(kPerSender, 0));
  int next_from_1 = 0;
  int delivered = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  try {
    while (delivered < 2 * kPerSender) {
      auto m = receiver->inbox().receive_until(MatchSpec{}, deadline);
      if (!m || (m->src != 0 && m->src != 1) || m->tag < 0 || m->tag >= kPerSender) break;
      const Message want = make_message(m->src, 2, m->tag);
      EXPECT_TRUE(m->payload.size() == want.payload.size() &&
                  std::memcmp(m->payload.data(), want.payload.data(), want.payload.size()) == 0);
      ++arrivals[static_cast<std::size_t>(m->src)][static_cast<std::size_t>(m->tag)];
      if (m->src == 1) {
        EXPECT_EQ(m->tag, next_from_1++);  // never held: in order
      }
      ++delivered;
    }
  } catch (const MailboxClosed&) {
    // The consumer saw a torn record and closed the mailbox.
  }
  faulted.shutdown();
  a.join();
  b.join();
  EXPECT_EQ(counting->overlaps(), 0u);
  EXPECT_EQ(delivered, 2 * kPerSender);
  for (const auto& per_src : arrivals) {
    EXPECT_TRUE(std::all_of(per_src.begin(), per_src.end(), [](int n) { return n == 1; }));
  }
  EXPECT_EQ(counting->counters().decode_errors, 0u);
}

}  // namespace
}  // namespace ccf::transport
