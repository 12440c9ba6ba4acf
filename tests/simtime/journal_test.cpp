// Event-journal tests: recording, bit-identical journals across runs of
// the same workload, bounds, the listing renderer, and a golden event order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "simtime/virtual_cluster.hpp"
#include "transport/fault.hpp"
#include "transport/serialize.hpp"

namespace ccf::simtime {
namespace {

transport::Payload payload_of(int v) {
  transport::Writer w;
  w.put<std::int32_t>(v);
  return w.take();
}

VirtualCluster::Options journaling() {
  VirtualCluster::Options opts;
  opts.journal = true;
  return opts;
}

void workload(VirtualCluster& cluster) {
  for (int p = 0; p < 3; ++p) {
    cluster.add_process(p, [p](SimContext& ctx) {
      for (int i = 0; i < 4; ++i) {
        ctx.advance(0.1 * (p + 1));
        ctx.send((p + 1) % 3, 5, payload_of(p * 10 + i));
        (void)ctx.recv(MatchSpec{(p + 2) % 3, 5});
      }
    });
  }
}

TEST(Journal, DisabledByDefault) {
  VirtualCluster cluster;
  workload(cluster);
  cluster.run();
  EXPECT_TRUE(cluster.journal().empty());
}

TEST(Journal, RecordsEveryProcessedEvent) {
  VirtualCluster cluster(journaling());
  workload(cluster);
  cluster.run();
  EXPECT_EQ(cluster.journal().size(), cluster.events_processed());
  // Delivery entries carry sender, tag, and size.
  std::size_t deliveries = 0;
  for (const auto& e : cluster.journal()) {
    if (e.kind == VirtualCluster::JournalEntry::Kind::Delivery) {
      ++deliveries;
      EXPECT_GE(e.src, 0);
      EXPECT_EQ(e.tag, 5);
      EXPECT_EQ(e.bytes, sizeof(std::int32_t));
    }
  }
  EXPECT_EQ(deliveries, cluster.messages_delivered());
  // Times are non-decreasing (events processed in time order).
  for (std::size_t i = 1; i < cluster.journal().size(); ++i) {
    EXPECT_LE(cluster.journal()[i - 1].time, cluster.journal()[i].time);
  }
}

TEST(Journal, IdenticalAcrossRuns) {
  VirtualCluster a(journaling());
  workload(a);
  a.run();
  VirtualCluster b(journaling());
  workload(b);
  b.run();
  ASSERT_EQ(a.journal().size(), b.journal().size());
  for (std::size_t i = 0; i < a.journal().size(); ++i) {
    EXPECT_EQ(a.journal()[i], b.journal()[i]) << "entry " << i;
  }
  EXPECT_EQ(a.journal_listing(), b.journal_listing());
}

TEST(Journal, BoundedByMax) {
  VirtualCluster::Options opts = journaling();
  opts.journal_max = 5;
  VirtualCluster cluster(opts);
  workload(cluster);
  cluster.run();
  EXPECT_EQ(cluster.journal().size(), 5u);
}

TEST(Journal, ListingMentionsKindsAndTags) {
  VirtualCluster cluster(journaling());
  cluster.add_process(0, [](SimContext& ctx) {
    ctx.send(1, 42, payload_of(1));
    ctx.advance(1.0);
  });
  cluster.add_process(1, [](SimContext& ctx) { (void)ctx.recv(MatchSpec{0, 42}); });
  cluster.run();
  const std::string listing = cluster.journal_listing();
  EXPECT_NE(listing.find("resume proc 0"), std::string::npos);
  EXPECT_NE(listing.find("deliver 0 -> 1 tag 42"), std::string::npos);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Journal, GoldenRingScenarioKeepsItsEventOrder) {
  // Pins the executor's event order, tie-breaking included, on a 64-proc
  // ring that makes every SimContext call and meets every fault kind. The
  // digest was recorded from the thread-per-process executor; an executor
  // change that reorders any event, however slightly, changes it.
  constexpr int kProcs = 64;
  constexpr transport::Tag kRing = 1;   // faulted: dropped, duplicated, delayed
  constexpr transport::Tag kToken = 2;  // lossless blocking exchange
  constexpr transport::Tag kSelf = 3;
  constexpr transport::Tag kLate = 4;   // reaches a finished proc
  VirtualCluster::Options opts = journaling();
  opts.latency = std::make_shared<const transport::BandwidthLatency>(1e-4, 1e6);
  transport::FaultPlan plan;
  plan.seed = 2024;
  plan.drop_prob = 0.1;
  plan.duplicate_prob = 0.1;
  plan.delay_prob = 0.2;
  plan.delay_min_seconds = 1e-4;
  plan.delay_max_seconds = 3e-3;
  plan.eligible = [](ProcId, ProcId, Tag tag) { return tag == kRing; };
  opts.faults = std::make_shared<transport::FaultInjector>(plan);
  VirtualCluster cluster(opts);
  for (int p = 0; p < kProcs; ++p) {
    cluster.add_process(p, [p](SimContext& ctx) {
      const ProcId right = (p + 1) % kProcs;
      const ProcId left = (p + kProcs - 1) % kProcs;
      for (int round = 0; round < 6; ++round) {
        ctx.advance(1e-4 * ((p * 7 + round) % 5 + 1));
        ctx.send(right, kRing, payload_of(round));
        ctx.send(right, kToken, payload_of(round));
        ctx.send(p, kSelf, payload_of(round));
        (void)ctx.recv(MatchSpec{left, kToken});
        // A deadline already passed returns at once; a live one either
        // times out or leaves its deadline event stale in the queue.
        (void)ctx.recv_until(MatchSpec{left, kLate}, ctx.now());
        (void)ctx.recv_until(MatchSpec{left, kRing}, ctx.now() + 1e-3 * (p % 3 + 1));
        if (ctx.probe(MatchSpec{p, kSelf})) (void)ctx.try_recv(MatchSpec{p, kSelf});
      }
      if (p % 2 == 1) {
        ctx.advance(0.1);
        ctx.send(left, kLate, payload_of(p));  // left neighbour has returned
      }
    });
  }
  cluster.run();
  const transport::FaultStats faults = opts.faults->stats();
  EXPECT_GT(faults.dropped, 0u);
  EXPECT_GT(faults.duplicated, 0u);
  EXPECT_GT(faults.delayed, 0u);
  std::uint64_t deliveries = 0;
  std::uint64_t deadlines = 0;
  for (const auto& e : cluster.journal()) {
    deliveries += e.kind == VirtualCluster::JournalEntry::Kind::Delivery ? 1 : 0;
    deadlines += e.kind == VirtualCluster::JournalEntry::Kind::Deadline ? 1 : 0;
  }
  EXPECT_GT(deadlines, 0u);
  EXPECT_GT(deliveries, cluster.messages_delivered());  // some reached finished procs
  ASSERT_EQ(cluster.journal().size(), cluster.events_processed());
  EXPECT_EQ(cluster.journal().size(), 2124u);
  EXPECT_EQ(fnv1a(cluster.journal_listing()), 3634997905995609823ull);
}

}  // namespace
}  // namespace ccf::simtime
