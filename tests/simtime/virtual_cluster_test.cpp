// Virtual-time executor tests: deterministic ordering, time semantics,
// message latency, deadlock detection, error propagation, teardown, and
// fiber stacks recycled across runs.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/virtual_time_cluster.hpp"
#include "transport/serialize.hpp"

namespace ccf::runtime {
namespace {

transport::Payload payload_of(int v) {
  transport::Writer w;
  w.put<std::int32_t>(v);
  return w.take();
}

int value_of(const Message& m) {
  transport::Reader r(m.payload);
  return r.get<std::int32_t>();
}

TEST(VirtualCluster, AdvanceAccumulatesTime) {
  VirtualTimeCluster cluster;
  double end = -1;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.now(), 0.0);
    ctx.compute(1.5);
    EXPECT_DOUBLE_EQ(ctx.now(), 1.5);
    ctx.compute(0.25);
    end = ctx.now();
  });
  cluster.run();
  EXPECT_DOUBLE_EQ(end, 1.75);
  EXPECT_DOUBLE_EQ(cluster.end_time(), 1.75);
}

TEST(VirtualCluster, ProcessesInterleaveInTimeOrder) {
  VirtualTimeCluster cluster;
  std::vector<int> order;
  // Proc 0 acts at t=1,3 ; proc 1 acts at t=2,4. The scheduler must
  // interleave them by virtual time, not by registration.
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.compute(1);
    order.push_back(10);
    ctx.compute(2);
    order.push_back(11);
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    ctx.compute(2);
    order.push_back(20);
    ctx.compute(2);
    order.push_back(21);
  });
  cluster.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21}));
}

TEST(VirtualCluster, MessageDeliveryRespectsLatency) {
  ClusterOptions opts;
  opts.latency = std::make_shared<const transport::FixedLatency>(5.0);
  VirtualTimeCluster cluster(opts);
  double recv_time = -1;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.compute(1.0);
    ctx.send(1, 7, payload_of(99));
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    Message m = ctx.recv(MatchSpec{0, 7});
    recv_time = ctx.now();
    EXPECT_EQ(value_of(m), 99);
  });
  cluster.run();
  EXPECT_DOUBLE_EQ(recv_time, 6.0);  // sent at 1, latency 5
}

TEST(VirtualCluster, ReceiverAheadGetsMessageAtOwnTime) {
  VirtualTimeCluster cluster;  // zero latency
  double recv_time = -1;
  cluster.add_process(0, [&](ProcessContext& ctx) { ctx.send(1, 1, payload_of(1)); });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    ctx.compute(10.0);  // receiver is far ahead when the message arrives
    (void)ctx.recv(MatchSpec{0, 1});
    recv_time = ctx.now();
  });
  cluster.run();
  EXPECT_DOUBLE_EQ(recv_time, 10.0);
}

TEST(VirtualCluster, DeterministicAcrossRuns) {
  auto run_once = [] {
    VirtualTimeCluster cluster;
    std::vector<int> log;
    for (int p = 0; p < 4; ++p) {
      cluster.add_process(p, [&, p](ProcessContext& ctx) {
        for (int i = 0; i < 3; ++i) {
          ctx.compute(0.1 * (p + 1));
          ctx.send((p + 1) % 4, 5, payload_of(p * 10 + i));
        }
        for (int i = 0; i < 3; ++i) log.push_back(value_of(ctx.recv(MatchSpec{kAnyProc, 5})));
      });
    }
    cluster.run();
    return log;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 12u);
}

TEST(VirtualCluster, TryRecvTakesOnlyDeliveredMessages) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.send(1, 3, payload_of(5));
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    EXPECT_FALSE(ctx.try_recv(MatchSpec{0, 3}).has_value());  // not delivered yet at t=0
    ctx.compute(1.0);  // after sender ran
    auto m = ctx.try_recv(MatchSpec{0, 3});
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(value_of(*m), 5);
  });
  cluster.run();
}

TEST(VirtualCluster, RecvUntilTimesOutAtDeadline) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    auto m = ctx.recv_until(MatchSpec{kAnyProc, 9}, 3.0);
    EXPECT_FALSE(m.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 3.0);  // woke exactly at the deadline
  });
  cluster.run();
}

TEST(VirtualCluster, RecvUntilReturnsEarlyMessage) {
  ClusterOptions opts;
  opts.latency = std::make_shared<const transport::FixedLatency>(1.0);
  VirtualTimeCluster cluster(opts);
  cluster.add_process(0, [&](ProcessContext& ctx) { ctx.send(1, 9, payload_of(4)); });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    auto m = ctx.recv_until(MatchSpec{0, 9}, 100.0);
    ASSERT_TRUE(m.has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 1.0);
  });
  cluster.run();
}

TEST(VirtualCluster, DeadlockDetected) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) { (void)ctx.recv(MatchSpec{1, 1}); });
  cluster.add_process(1, [&](ProcessContext& ctx) { (void)ctx.recv(MatchSpec{0, 1}); });
  EXPECT_THROW(cluster.run(), DeadlockError);
}

TEST(VirtualCluster, DeadlockReportNamesBlockedProcs) {
  VirtualTimeCluster cluster;
  cluster.add_process(7, [&](ProcessContext& ctx) { (void)ctx.recv(MatchSpec{7, 123}); });
  try {
    cluster.run();
    FAIL() << "expected deadlock";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("proc 7"), std::string::npos);
    EXPECT_NE(what.find("tag=123"), std::string::npos);
  }
}

TEST(VirtualCluster, BodyExceptionPropagates) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext&) { throw std::runtime_error("boom"); });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    (void)ctx.recv(MatchSpec{kAnyProc, 1});  // would deadlock; abort must free it
  });
  EXPECT_THROW(cluster.run(), std::runtime_error);
}

TEST(VirtualCluster, YieldInsideCatchHandlerKeepsEachProcsException) {
  // The exception a handler is working on belongs to its process: proc 1
  // throws while proc 0 is suspended inside its handler, and each must
  // still rethrow its own exception afterwards.
  VirtualTimeCluster cluster;
  std::vector<std::string> rethrown(2);
  std::vector<int> uncaught(2, -1);
  for (int p = 0; p < 2; ++p) {
    cluster.add_process(p, [&, p](ProcessContext& ctx) {
      const auto slot = static_cast<std::size_t>(p);
      try {
        throw std::runtime_error("proc " + std::to_string(p));
      } catch (const std::exception&) {
        ctx.compute(1.0);
        try {
          throw;
        } catch (const std::exception& e) {
          rethrown[slot] = e.what();
          uncaught[slot] = std::uncaught_exceptions();
        }
      }
    });
  }
  cluster.run();
  EXPECT_EQ(rethrown[0], "proc 0");
  EXPECT_EQ(rethrown[1], "proc 1");
  EXPECT_EQ(uncaught, (std::vector<int>{0, 0}));
}

/// Counts live body locals: run() must destroy every started body's
/// locals on each abort path, and never start the bodies it skipped.
struct BodyLocals {
  int constructed = 0;
  int destroyed = 0;
  struct Guard {
    explicit Guard(BodyLocals& c) : counts(c) { ++counts.constructed; }
    ~Guard() { ++counts.destroyed; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    BodyLocals& counts;
  };
};

TEST(VirtualCluster, DeadlockUnwindsEveryStartedBody) {
  VirtualTimeCluster cluster;
  BodyLocals locals;
  for (int p = 0; p < 4; ++p) {
    cluster.add_process(p, [&](ProcessContext& ctx) {
      BodyLocals::Guard guard(locals);
      ctx.compute(0.5);
      (void)ctx.recv(MatchSpec{kAnyProc, 99});  // never sent
    });
  }
  EXPECT_THROW(cluster.run(), DeadlockError);
  EXPECT_EQ(locals.constructed, 4);
  EXPECT_EQ(locals.destroyed, 4);
}

TEST(VirtualCluster, BodyExceptionUnwindsStartedBodiesAndSkipsTheRest) {
  VirtualTimeCluster cluster;
  BodyLocals locals;
  bool late_body_ran = false;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    BodyLocals::Guard guard(locals);
    (void)ctx.recv(MatchSpec{kAnyProc, 1});
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    BodyLocals::Guard guard(locals);
    ctx.compute(1.0);  // proc 0 stays suspended in recv meanwhile
  });
  cluster.add_process(2, [&](ProcessContext&) {
    BodyLocals::Guard guard(locals);
    throw std::runtime_error("boom");
  });
  cluster.add_process(3, [&](ProcessContext&) { late_body_ran = true; });  // queued after 2
  EXPECT_THROW(cluster.run(), std::runtime_error);
  EXPECT_EQ(locals.constructed, 3);
  EXPECT_EQ(locals.destroyed, 3);
  EXPECT_FALSE(late_body_ran);
}

TEST(VirtualCluster, MaxEventsUnwindsEveryStartedBody) {
  ClusterOptions opts;
  opts.max_events = 50;
  VirtualTimeCluster cluster(opts);
  BodyLocals locals;
  for (int p = 0; p < 3; ++p) {
    cluster.add_process(p, [&](ProcessContext& ctx) {
      BodyLocals::Guard guard(locals);
      for (;;) ctx.compute(0.001);
    });
  }
  EXPECT_THROW(cluster.run(), util::InternalError);
  EXPECT_EQ(locals.constructed, 3);
  EXPECT_EQ(locals.destroyed, 3);
}

TEST(VirtualCluster, EachProcKeepsItsOwnRoundingMode) {
  // The floating-point control state belongs to the process: proc 0
  // rounds downward across a yield while proc 1 runs with the default.
  VirtualTimeCluster cluster;
  std::vector<int> seen(3, -1);
  cluster.add_process(0, [&](ProcessContext& ctx) {
    std::fesetround(FE_DOWNWARD);
    ctx.compute(1.0);
    seen[0] = std::fegetround();
    std::fesetround(FE_TONEAREST);
  });
  cluster.add_process(1, [&](ProcessContext& ctx) {
    seen[1] = std::fegetround();
    ctx.compute(2.0);
    seen[2] = std::fegetround();
  });
  cluster.run();
  EXPECT_EQ(seen, (std::vector<int>{FE_DOWNWARD, FE_TONEAREST, FE_TONEAREST}));
}

/// Recurses `depth` frames of 4 KiB each, yields at the bottom, and
/// returns the number of frames whose contents survived.
int deep_frames(ProcessContext& ctx, int depth) {
  volatile char frame[4096];
  frame[4095] = 1;
  if (depth == 0) {
    ctx.compute(1.0);
    return frame[4095];
  }
  return deep_frames(ctx, depth - 1) + frame[4095];
}

TEST(VirtualCluster, BodiesGetThreadSizedStacks) {
  // 2 MiB of frames, suspended at the bottom while the other proc runs;
  // the second run does it on the stacks the first gave back.
  for (int run = 0; run < 2; ++run) {
    VirtualTimeCluster cluster;
    std::vector<int> sums(2, -1);
    for (int p = 0; p < 2; ++p) {
      cluster.add_process(p, [&, p](ProcessContext& ctx) {
        sums[static_cast<std::size_t>(p)] = deep_frames(ctx, 512);
      });
    }
    cluster.run();
    EXPECT_EQ(sums, (std::vector<int>{513, 513})) << "run " << run;
  }
}

TEST(VirtualCluster, SecondRunOfTheSameSizeMapsNoNewStack) {
  // Stacks go back to a pool when their bodies return, and the next run
  // takes them from there. The bodies are identical, so each one's frame
  // sits at the same depth below its stack's top: on the first run's
  // stacks the second run's frames fall at exactly the first run's
  // addresses. Between the runs, every page holding a first-run frame
  // must still be mapped; one that is not is taken, so that no stack
  // mapped afresh can land there and pass for a recycled one.
  constexpr int kProcs = 16;
  auto frames_of_a_run = [] {
    std::vector<std::uintptr_t> frames;
    VirtualTimeCluster cluster;
    for (int p = 0; p < kProcs; ++p) {
      cluster.add_process(p, [&frames](ProcessContext& ctx) {
        frames.push_back(reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)));
        ctx.compute(1.0);
      });
    }
    cluster.run();
    std::sort(frames.begin(), frames.end());
    return frames;
  };
  const std::vector<std::uintptr_t> first = frames_of_a_run();
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  std::vector<void*> unmapped;
  for (const std::uintptr_t frame : first) {
    auto* want = reinterpret_cast<void*>(frame & ~(page - 1));
    void* got =
        ::mmap(want, page, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
    if (got == want) unmapped.push_back(got);
    if (got != MAP_FAILED && got != want) ::munmap(got, page);
  }
  const std::vector<std::uintptr_t> second = frames_of_a_run();
  for (void* taken : unmapped) ::munmap(taken, page);
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kProcs));
  EXPECT_EQ(std::set<std::uintptr_t>(first.begin(), first.end()).size(), first.size());
  EXPECT_TRUE(unmapped.empty()) << unmapped.size() << " first-run stacks were unmapped";
  EXPECT_EQ(second, first);
}

TEST(VirtualCluster, MessageToFinishedProcessIsDropped) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext&) {});
  cluster.add_process(1, [&](ProcessContext& ctx) {
    ctx.compute(1.0);
    ctx.send(0, 1, payload_of(1));  // proc 0 already finished
  });
  cluster.run();
  SUCCEED();
}

TEST(VirtualCluster, SendToUnknownProcessThrows) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) { ctx.send(99, 1, payload_of(1)); });
  EXPECT_THROW(cluster.run(), util::InvalidArgument);
}

TEST(VirtualCluster, ValidatesRegistration) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [](ProcessContext&) {});
  EXPECT_THROW(cluster.add_process(0, [](ProcessContext&) {}), util::InvalidArgument);
  EXPECT_THROW(cluster.add_process(-2, [](ProcessContext&) {}), util::InvalidArgument);
  EXPECT_THROW(cluster.add_process(1, nullptr), util::InvalidArgument);
}

TEST(VirtualCluster, EmptyClusterRejected) {
  VirtualTimeCluster cluster;
  EXPECT_THROW(cluster.run(), util::InvalidArgument);
}

TEST(VirtualCluster, NegativeAdvanceRejected) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [](ProcessContext& ctx) { ctx.compute(-1.0); });
  EXPECT_THROW(cluster.run(), util::InvalidArgument);
}

TEST(VirtualCluster, CountsEventsAndDeliveries) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.send(1, 1, payload_of(1));
    ctx.compute(1.0);
  });
  cluster.add_process(1, [&](ProcessContext& ctx) { (void)ctx.recv(MatchSpec{0, 1}); });
  cluster.run();
  EXPECT_EQ(cluster.messages_delivered(), 1u);
  EXPECT_GT(cluster.events_processed(), 2u);
}

TEST(VirtualCluster, SelfSendWorks) {
  VirtualTimeCluster cluster;
  cluster.add_process(0, [&](ProcessContext& ctx) {
    ctx.send(0, 1, payload_of(77));
    ctx.compute(0.1);
    EXPECT_EQ(value_of(ctx.recv(MatchSpec{0, 1})), 77);
  });
  cluster.run();
}

TEST(VirtualCluster, ManyProcessesStress) {
  VirtualTimeCluster cluster;
  constexpr int kProcs = 40;
  std::vector<int> received(kProcs, 0);
  for (int p = 0; p < kProcs; ++p) {
    cluster.add_process(p, [&, p](ProcessContext& ctx) {
      // Ring: send to the next process, receive from the previous.
      for (int i = 0; i < 10; ++i) {
        ctx.send((p + 1) % kProcs, 2, payload_of(i));
        ctx.compute(0.01);
        (void)ctx.recv(MatchSpec{(p + kProcs - 1) % kProcs, 2});
        received[static_cast<std::size_t>(p)]++;
      }
    });
  }
  cluster.run();
  for (int p = 0; p < kProcs; ++p) EXPECT_EQ(received[static_cast<std::size_t>(p)], 10);
}

}  // namespace
}  // namespace ccf::runtime
