// Virtual-cluster edge cases: stale deadline events, event-cap guard,
// latency-induced message overtaking (a documented non-FIFO case),
// simultaneous-event tie-breaking, nested waits.
#include <gtest/gtest.h>

#include "runtime/virtual_time_cluster.hpp"
#include "transport/serialize.hpp"

namespace ccf::runtime {
namespace {

transport::Payload payload_of(int v) {
  transport::Writer w;
  w.put<std::int32_t>(v);
  return w.take();
}

transport::Payload payload_bytes(std::size_t n) {
  transport::Writer w;
  w.put_vector(std::vector<std::uint8_t>(n, 1));
  return w.take();
}

int value_of(const Message& m) {
  transport::Reader r(m.payload);
  return r.get<std::int32_t>();
}

TEST(VirtualClusterEdge, StaleDeadlineEventIsIgnored) {
  // A recv_until satisfied by a message leaves its deadline event queued;
  // a second recv_until with the SAME deadline must not be woken by the
  // stale event (generation counter check).
  ClusterOptions opts;
  opts.latency = std::make_shared<const transport::FixedLatency>(1.0);
  VirtualTimeCluster cluster(opts);
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.send(1, 1, payload_of(7));   // arrives at t=1
    ctx.compute(2.0);
    ctx.send(1, 1, payload_of(8));   // arrives at t=3
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    auto m1 = ctx.recv_until(MatchSpec{0, 1}, 5.0);  // satisfied at t=1
    ASSERT_TRUE(m1.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 1.0);
    auto m2 = ctx.recv_until(MatchSpec{0, 1}, 5.0);  // must get the t=3 message
    ASSERT_TRUE(m2.has_value());
    EXPECT_EQ(value_of(*m2), 8);
    EXPECT_DOUBLE_EQ(ctx.now(), 3.0);
    // And a third wait with the same deadline times out at exactly 5.
    auto m3 = ctx.recv_until(MatchSpec{0, 1}, 5.0);
    EXPECT_FALSE(m3.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 5.0);
  });
  cluster.run();
}

TEST(VirtualClusterEdge, MaxEventsCapAborts) {
  ClusterOptions opts;
  opts.max_events = 100;
  VirtualTimeCluster cluster(opts);
  cluster.add_process(0, [&](ProcessContext& ctx) {
    for (int i = 0; i < 1000; ++i) ctx.compute(0.001);
  });
  EXPECT_THROW(cluster.run(), util::InternalError);
}

TEST(VirtualClusterEdge, BandwidthLatencyLetsSmallMessagesOvertake) {
  // With a size-dependent latency model, a small message sent after a big
  // one can arrive first — the documented reason higher layers tag
  // messages instead of relying on per-pair FIFO.
  ClusterOptions opts;
  opts.latency = std::make_shared<const transport::BandwidthLatency>(0.0, 1000.0);  // 1 KB/s
  VirtualTimeCluster cluster(opts);
  std::vector<int> order;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.send(1, 1, payload_bytes(2000));  // ~2s in flight
    ctx.send(1, 2, payload_of(1));        // tiny, ~12 bytes -> arrives first
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    Message first = ctx.recv(MatchSpec{0, transport::kAnyTag});
    order.push_back(first.tag);
    Message second = ctx.recv(MatchSpec{0, transport::kAnyTag});
    order.push_back(second.tag);
  });
  cluster.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(VirtualClusterEdge, SimultaneousEventsKeepInsertionOrder) {
  // Two zero-latency messages sent at the same virtual instant arrive in
  // send order (tie-break by event sequence number).
  VirtualTimeCluster cluster;
  std::vector<int> seen;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.send(1, 1, payload_of(1));
    ctx.send(1, 1, payload_of(2));
    ctx.send(1, 1, payload_of(3));
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    for (int i = 0; i < 3; ++i) seen.push_back(value_of(ctx.recv(MatchSpec{0, 1})));
  });
  cluster.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(VirtualClusterEdge, ZeroAdvanceYieldsButKeepsTime) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.compute(0.0);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    ctx.compute(0.0);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
  });
  cluster.run();
  EXPECT_DOUBLE_EQ(cluster.end_time(), 0.0);
}

TEST(VirtualClusterEdge, RecvUntilZeroDeadlineDoesNotBlock) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    auto m = ctx.recv_until(MatchSpec{kAnyProc, 1}, 0.0);  // deadline == now
    EXPECT_FALSE(m.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
  });
  cluster.run();
}

TEST(VirtualClusterEdge, ManySmallAdvancesAccumulateExactly) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    for (int i = 0; i < 1000; ++i) ctx.compute(0.5);
    EXPECT_DOUBLE_EQ(ctx.now(), 500.0);
  });
  cluster.run();
  EXPECT_DOUBLE_EQ(cluster.end_time(), 500.0);
}

}  // namespace
}  // namespace ccf::runtime
