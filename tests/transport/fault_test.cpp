// Fault-injection tests: deterministic replay, eligibility scoping, fault
// caps, and the mailbox drop accounting the liveness machinery depends on.
// The drop/duplicate/reorder delivery semantics are exercised through the
// FaultTransport decorator (fault_transport_test.cpp).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "transport/fabric.hpp"
#include "transport/fault.hpp"
#include "transport/mailbox.hpp"

namespace ccf::transport {
namespace {

Message make_msg(ProcId src, ProcId dst, Tag tag) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = empty_payload();
  return m;
}

FaultPlan lossy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.2;
  plan.duplicate_prob = 0.2;
  plan.delay_prob = 0.2;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.01;
  return plan;
}

TEST(FaultInjector, SameSeedSameLinkTrafficReplaysIdentically) {
  FaultInjector a(lossy_plan(1234));
  FaultInjector b(lossy_plan(1234));
  for (int i = 0; i < 500; ++i) {
    const ProcId src = i % 3;
    const ProcId dst = 3 + i % 2;
    const FaultDecision da = a.decide(src, dst, 7);
    const FaultDecision db = b.decide(src, dst, 7);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_DOUBLE_EQ(da.extra_delay_seconds, db.extra_delay_seconds);
  }
}

TEST(FaultInjector, DecisionsDependOnlyOnPerLinkIndexNotInterleaving) {
  // Feed the same per-link traffic in two different global interleavings;
  // the decision sequence per link must be identical.
  FaultInjector a(lossy_plan(99));
  FaultInjector b(lossy_plan(99));
  std::vector<FaultDecision> a01, a23, b01, b23;
  for (std::size_t i = 0; i < 100; ++i) {
    a01.push_back(a.decide(0, 1, 0));
    a23.push_back(a.decide(2, 3, 0));
  }
  for (std::size_t i = 0; i < 100; ++i) b23.push_back(b.decide(2, 3, 0));
  for (std::size_t i = 0; i < 100; ++i) b01.push_back(b.decide(0, 1, 0));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a01[i].drop, b01[i].drop);
    EXPECT_EQ(a01[i].duplicate, b01[i].duplicate);
    EXPECT_DOUBLE_EQ(a01[i].extra_delay_seconds, b01[i].extra_delay_seconds);
    EXPECT_EQ(a23[i].drop, b23[i].drop);
    EXPECT_DOUBLE_EQ(a23[i].extra_delay_seconds, b23[i].extra_delay_seconds);
  }
}

TEST(FaultInjector, DifferentSeedsDisagree) {
  FaultInjector a(lossy_plan(1));
  FaultInjector b(lossy_plan(2));
  int disagreements = 0;
  for (int i = 0; i < 300; ++i) {
    const FaultDecision da = a.decide(0, 1, 0);
    const FaultDecision db = b.decide(0, 1, 0);
    if (da.drop != db.drop || da.duplicate != db.duplicate ||
        da.extra_delay_seconds != db.extra_delay_seconds) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjector, RatesRoughlyMatchProbabilities) {
  FaultInjector inj(lossy_plan(42));
  for (int i = 0; i < 10'000; ++i) (void)inj.decide(0, 1, 0);
  const FaultStats s = inj.stats();
  EXPECT_EQ(s.eligible, 10'000u);
  // 20% each with generous slack.
  EXPECT_GT(s.dropped, 1500u);
  EXPECT_LT(s.dropped, 2500u);
  EXPECT_GT(s.duplicated, 1000u);
  EXPECT_GT(s.delayed, 1000u);
}

TEST(FaultInjector, DelayIsWithinConfiguredBounds) {
  FaultInjector inj(lossy_plan(7));
  for (int i = 0; i < 2000; ++i) {
    const FaultDecision d = inj.decide(0, 1, 0);
    if (d.extra_delay_seconds > 0) {
      EXPECT_GE(d.extra_delay_seconds, 0.001);
      EXPECT_LE(d.extra_delay_seconds, 0.01);
    }
  }
  EXPECT_GT(inj.stats().delayed, 0u);
}

TEST(FaultInjector, EligibilityPredicateScopesFaults) {
  FaultPlan plan = lossy_plan(5);
  plan.drop_prob = 1.0;
  plan.duplicate_prob = 0;
  plan.delay_prob = 0;
  plan.eligible = [](ProcId, ProcId, Tag tag) { return tag == 1; };
  FaultInjector inj(std::move(plan));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.decide(0, 1, 1).drop);
    EXPECT_FALSE(inj.decide(0, 1, 2).faulted());
  }
  EXPECT_EQ(inj.stats().eligible, 10u);
  EXPECT_EQ(inj.stats().dropped, 10u);
}

TEST(FaultInjector, MaxFaultsCapsInjectedDamage) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 1.0;
  plan.max_faults = 3;
  FaultInjector inj(std::move(plan));
  int drops = 0;
  for (int i = 0; i < 20; ++i) drops += inj.decide(0, 1, 0).drop ? 1 : 0;
  EXPECT_EQ(drops, 3);
  EXPECT_EQ(inj.stats().dropped, 3u);
  EXPECT_EQ(inj.stats().eligible, 20u);
}

TEST(FaultInjector, RejectsInvalidPlans) {
  FaultPlan bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad}, util::InvalidArgument);
  FaultPlan bounds;
  bounds.delay_prob = 0.5;
  bounds.delay_min_seconds = 2;
  bounds.delay_max_seconds = 1;
  EXPECT_THROW(FaultInjector{bounds}, util::InvalidArgument);
}

TEST(NetworkFaults, ClosedMailboxDropsAreCounted) {
  FabricTransport net({1, 2});
  auto sender = net.attach(1);
  auto receiver = net.attach(2);
  receiver->inbox().close();
  sender->send(make_msg(1, 2, 0));
  sender->send(make_msg(1, 2, 0));
  EXPECT_EQ(net.counters().frames_sent, 2u);
  EXPECT_EQ(net.counters().frames_received, 0u);
  EXPECT_EQ(receiver->inbox().dropped(), 2u);
}

TEST(MailboxDrops, DeliverToClosedBoxCountsEachDrop) {
  Mailbox box;
  EXPECT_EQ(box.dropped(), 0u);
  EXPECT_TRUE(box.deliver(make_msg(1, 0, 1)));
  box.close();
  EXPECT_FALSE(box.deliver(make_msg(1, 0, 2)));
  EXPECT_FALSE(box.deliver(make_msg(1, 0, 3)));
  EXPECT_EQ(box.dropped(), 2u);
  EXPECT_EQ(box.pending(), 1u);  // pre-close mail stays readable
}

TEST(MailboxDrops, ReceiveUntilExpiresWithOnlyNonMatchingMail) {
  Mailbox box;
  box.deliver(make_msg(1, 0, 5));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  // A queued message with the wrong tag must not satisfy the wait.
  EXPECT_FALSE(box.receive_until(MatchSpec{kAnyProc, 6}, deadline).has_value());
  EXPECT_EQ(box.pending(), 1u);
}

TEST(MailboxDrops, CloseDuringBlockedReceiveUntilThrows) {
  Mailbox box;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_THROW(box.receive_until(MatchSpec{}, deadline), MailboxClosed);
  closer.join();
}

}  // namespace
}  // namespace ccf::transport
