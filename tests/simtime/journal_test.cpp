// Event-journal tests: recording, bit-identical journals across runs of
// the same workload, bounds, the listing renderer, and a golden event order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/virtual_time_cluster.hpp"
#include "transport/fault.hpp"
#include "transport/serialize.hpp"

namespace ccf::runtime {
namespace {

transport::Payload payload_of(int v) {
  transport::Writer w;
  w.put<std::int32_t>(v);
  return w.take();
}

void workload(VirtualTimeCluster& cluster) {
  for (int p = 0; p < 3; ++p) {
    cluster.add_process(p, [p](ProcessContext& ctx) {
      for (int i = 0; i < 4; ++i) {
        ctx.compute(0.1 * (p + 1));
        ctx.send((p + 1) % 3, 5, payload_of(p * 10 + i));
        (void)ctx.recv(MatchSpec{(p + 2) % 3, 5});
      }
    });
  }
}

TEST(Journal, DisabledByDefault) {
  VirtualTimeCluster cluster;
  workload(cluster);
  cluster.run();
  EXPECT_TRUE(cluster.journal().empty());
}

TEST(Journal, RecordsEveryProcessedEvent) {
  VirtualTimeCluster cluster;
  cluster.record_journal();
  workload(cluster);
  cluster.run();
  EXPECT_EQ(cluster.journal().size(), cluster.events_processed());
  // Delivery entries carry sender, tag, and size.
  std::size_t deliveries = 0;
  for (const auto& e : cluster.journal()) {
    if (e.kind == VirtualTimeCluster::EventKind::Delivery) {
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
  VirtualTimeCluster a;
  a.record_journal();
  workload(a);
  a.run();
  VirtualTimeCluster b;
  b.record_journal();
  workload(b);
  b.run();
  ASSERT_EQ(a.journal().size(), b.journal().size());
  for (std::size_t i = 0; i < a.journal().size(); ++i) {
    EXPECT_EQ(a.journal()[i], b.journal()[i]) << "entry " << i;
  }
  EXPECT_EQ(a.journal_listing(), b.journal_listing());
}

TEST(Journal, BoundedByMax) {
  VirtualTimeCluster cluster;
  cluster.record_journal(5);
  workload(cluster);
  cluster.run();
  EXPECT_EQ(cluster.journal().size(), 5u);
}

TEST(Journal, ListingMentionsKindsAndTags) {
  VirtualTimeCluster cluster;
  cluster.record_journal();
  cluster.add_process(0, [](ProcessContext& ctx) {
    ctx.send(1, 42, payload_of(1));
    ctx.compute(1.0);
  });
  cluster.add_process(1, [](ProcessContext& ctx) { (void)ctx.recv(MatchSpec{0, 42}); });
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
  // ring that makes every ProcessContext call but copy() (a memcpy and a
  // compute()) and meets every fault kind. The digest was recorded from
  // the thread-per-process executor; an executor change that reorders any
  // event, however slightly, changes it. The second run takes the stacks
  // the first one gave back to the pool, at other addresses than fresh
  // ones, and must not reorder anything either.
  constexpr int kProcs = 64;
  constexpr transport::Tag kRing = 1;   // faulted: dropped, duplicated, delayed
  constexpr transport::Tag kToken = 2;  // lossless blocking exchange
  constexpr transport::Tag kSelf = 3;
  constexpr transport::Tag kLate = 4;   // reaches a finished proc
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run == 0 ? "first run" : "run on recycled stacks");
    ClusterOptions opts;
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
    VirtualTimeCluster cluster(opts);
    cluster.record_journal();
    for (int p = 0; p < kProcs; ++p) {
      cluster.add_process(p, [p](ProcessContext& ctx) {
        const ProcId right = (p + 1) % kProcs;
        const ProcId left = (p + kProcs - 1) % kProcs;
        for (int round = 0; round < 6; ++round) {
          ctx.compute(1e-4 * ((p * 7 + round) % 5 + 1));
          ctx.send(right, kRing, payload_of(round));
          ctx.send(right, kToken, payload_of(round));
          ctx.send(p, kSelf, payload_of(round));
          (void)ctx.recv(MatchSpec{left, kToken});
          // A deadline already passed returns at once; a live one either
          // times out or leaves its deadline event stale in the queue.
          (void)ctx.recv_until(MatchSpec{left, kLate}, ctx.now());
          (void)ctx.recv_until(MatchSpec{left, kRing}, ctx.now() + 1e-3 * (p % 3 + 1));
          (void)ctx.try_recv(MatchSpec{p, kSelf});
        }
        if (p % 2 == 1) {
          ctx.compute(0.1);
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
      deliveries += e.kind == VirtualTimeCluster::EventKind::Delivery ? 1 : 0;
      deadlines += e.kind == VirtualTimeCluster::EventKind::Deadline ? 1 : 0;
    }
    EXPECT_GT(deadlines, 0u);
    EXPECT_GT(deliveries, cluster.messages_delivered());  // some reached finished procs
    ASSERT_EQ(cluster.journal().size(), cluster.events_processed());
    EXPECT_EQ(cluster.journal().size(), 2124u);
    EXPECT_EQ(fnv1a(cluster.journal_listing()), 3634997905995609823ull);
  }
}

}  // namespace
}  // namespace ccf::runtime
