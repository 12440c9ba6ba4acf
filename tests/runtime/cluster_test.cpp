// Runtime abstraction tests: both execution backends run the same bodies;
// copy() charges modeled time only in virtual mode; failures propagate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "runtime/cluster.hpp"
#include "transport/fault.hpp"
#include "transport/serialize.hpp"

namespace ccf::runtime {
namespace {

class ClusterModeTest : public ::testing::TestWithParam<ExecutionMode> {
 protected:
  ClusterOptions options() const {
    ClusterOptions o;
    o.mode = GetParam();
    return o;
  }
};

TEST_P(ClusterModeTest, PingPong) {
  auto cluster = make_cluster(options());
  std::atomic<int> got{0};
  cluster->add_process(0, [&](ProcessContext& ctx) {
    transport::Writer w;
    w.put<int>(41);
    ctx.send(1, 5, w.take());
    Message m = ctx.recv(MatchSpec{1, 6});
    transport::Reader r(m.payload);
    got = r.get<int>();
  });
  cluster->add_process(1, [&](ProcessContext& ctx) {
    Message m = ctx.recv(MatchSpec{0, 5});
    transport::Reader r(m.payload);
    transport::Writer w;
    w.put<int>(r.get<int>() + 1);
    ctx.send(0, 6, w.take());
  });
  cluster->run();
  EXPECT_EQ(got.load(), 42);
}

TEST_P(ClusterModeTest, CopyMovesBytes) {
  auto cluster = make_cluster(options());
  std::vector<double> dst(64, 0.0);
  cluster->add_process(0, [&](ProcessContext& ctx) {
    std::vector<double> src(64);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<double>(i) * 1.5;
    ctx.copy(dst.data(), src.data(), src.size() * sizeof(double));
  });
  cluster->run();
  EXPECT_DOUBLE_EQ(dst[10], 15.0);
  EXPECT_DOUBLE_EQ(dst[63], 94.5);
}

TEST_P(ClusterModeTest, ExceptionPropagatesAndUnblocksPeers) {
  auto cluster = make_cluster(options());
  cluster->add_process(0, [&](ProcessContext&) { throw util::InvalidArgument("bad"); });
  cluster->add_process(1, [&](ProcessContext& ctx) {
    (void)ctx.recv(MatchSpec{0, 1});  // never satisfied; teardown must free it
  });
  EXPECT_THROW(cluster->run(), util::Error);
}

TEST_P(ClusterModeTest, RecvUntilTimesOut) {
  auto cluster = make_cluster(options());
  bool timed_out = false;
  cluster->add_process(0, [&](ProcessContext& ctx) {
    auto m = ctx.recv_until(MatchSpec{kAnyProc, 1}, ctx.now() + 0.05);
    timed_out = !m.has_value();
  });
  cluster->run();
  EXPECT_TRUE(timed_out);
}

TEST_P(ClusterModeTest, ValidatesUsage) {
  auto cluster = make_cluster(options());
  EXPECT_THROW(cluster->add_process(0, nullptr), util::InvalidArgument);
  EXPECT_THROW(cluster->run(), util::InvalidArgument);  // no processes
}

INSTANTIATE_TEST_SUITE_P(BothModes, ClusterModeTest,
                         ::testing::Values(ExecutionMode::RealThreads,
                                           ExecutionMode::VirtualTime),
                         [](const ::testing::TestParamInfo<ExecutionMode>& info) {
                           return info.param == ExecutionMode::RealThreads ? "RealThreads"
                                                                           : "VirtualTime";
                         });

TEST(VirtualMode, ComputeAdvancesVirtualClockPrecisely) {
  ClusterOptions o;
  o.mode = ExecutionMode::VirtualTime;
  auto cluster = make_cluster(o);
  cluster->add_process(0, [&](ProcessContext& ctx) {
    ctx.compute(2.5);
    EXPECT_DOUBLE_EQ(ctx.now(), 2.5);
  });
  cluster->run();
  EXPECT_DOUBLE_EQ(cluster->end_time(), 2.5);
}

TEST(VirtualMode, CopyChargesModeledCost) {
  ClusterOptions o;
  o.mode = ExecutionMode::VirtualTime;
  o.copy_cost = transport::CopyCostModel(1e-3, 1e9);  // 1 ms + 1 ns/byte
  auto cluster = make_cluster(o);
  cluster->add_process(0, [&](ProcessContext& ctx) {
    std::vector<double> a(1000), b(1000);
    ctx.copy(a.data(), b.data(), 8000);
    EXPECT_NEAR(ctx.now(), 1e-3 + 8e-6, 1e-12);
    ctx.charge_copy_cost(8000);
    EXPECT_NEAR(ctx.now(), 2 * (1e-3 + 8e-6), 1e-12);
  });
  cluster->run();
}

TEST(RealMode, NowIsWallClock) {
  ClusterOptions o;
  o.mode = ExecutionMode::RealThreads;
  auto cluster = make_cluster(o);
  cluster->add_process(0, [&](ProcessContext& ctx) {
    const double t0 = ctx.now();
    ctx.compute(5e-3);  // spin ~5 ms
    EXPECT_GT(ctx.now() - t0, 1e-3);
  });
  cluster->run();
  EXPECT_GT(cluster->end_time(), 0.0);
}

TEST(RealMode, ChargeCopyCostIsFree) {
  ClusterOptions o;
  o.mode = ExecutionMode::RealThreads;
  auto cluster = make_cluster(o);
  cluster->add_process(0, [&](ProcessContext& ctx) {
    const double t0 = ctx.now();
    ctx.charge_copy_cost(1 << 30);
    EXPECT_LT(ctx.now() - t0, 0.5);  // no gigabyte spin happened
  });
  cluster->run();
}

TEST(RealMode, DelayedFinalMessageArrivesAfterItsSenderReturns) {
  // A delay is held inside FaultTransport until something releases it.
  // When the sender's body returns right after its last send, its
  // departure must release the message; nothing else will.
  transport::FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay_min_seconds = 0.01;
  plan.delay_max_seconds = 0.01;
  plan.max_faults = 1;
  ClusterOptions o;
  o.mode = ExecutionMode::RealThreads;
  o.faults = std::make_shared<transport::FaultInjector>(plan);
  auto cluster = make_cluster(o);
  bool received = false;
  cluster->add_process(0, [&](ProcessContext& ctx) {
    transport::Writer w;
    w.put<int>(7);
    ctx.send(1, 3, w.take());
  });
  cluster->add_process(1, [&](ProcessContext& ctx) {
    received = ctx.recv_until(MatchSpec{0, 3}, ctx.now() + 2.0).has_value();
  });
  cluster->run();
  EXPECT_TRUE(received);
  EXPECT_EQ(o.faults->stats().delayed, 1u);
}

}  // namespace
}  // namespace ccf::runtime
