// ProcessCluster tests: genuinely forked OS processes over the real
// SHM+TCP transport. Bodies run in children, results ship back over the
// per-child ResultChannel pipe, and failures propagate to the launcher
// exactly as on the thread backend.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"
#include "transport/serialize.hpp"

namespace ccf::runtime {
namespace {

ClusterOptions process_options() {
  ClusterOptions o;
  o.mode = ExecutionMode::RealProcesses;
  o.transport.kind = transport::TransportKind::Real;
  return o;
}

TEST(ProcessCluster, PingPongAcrossForkedProcesses) {
  auto cluster = make_cluster(process_options());
  int got = 0;
  cluster->add_process(
      0,
      [&](ProcessContext& ctx) {
        transport::Writer w;
        w.put<int>(41);
        ctx.send(1, 5, w.take());
        Message m = ctx.recv(MatchSpec{1, 6});
        transport::Reader r(m.payload);
        got = r.get<int>();
      },
      ResultChannel{[&] {
                      transport::Writer w;
                      w.put<int>(got);
                      return w.take_bytes();
                    },
                    [&](const std::vector<std::byte>& bytes) {
                      transport::Reader r(
                          transport::make_payload(std::vector<std::byte>(bytes)));
                      got = r.get<int>();
                    }});
  cluster->add_process(1, [&](ProcessContext& ctx) {
    Message m = ctx.recv(MatchSpec{0, 5});
    transport::Reader r(m.payload);
    transport::Writer w;
    w.put<int>(r.get<int>() + 1);
    ctx.send(0, 6, w.take());
  });
  cluster->run();
  // The body ran in a forked child: without the channel the launcher-side
  // slot would still be 0.
  EXPECT_EQ(got, 42);
}

TEST(ProcessCluster, ResultsAreCopiedBackOnlyThroughTheChannel) {
  auto cluster = make_cluster(process_options());
  int with_channel = 0;
  int without_channel = 0;
  cluster->add_process(
      0, [&](ProcessContext&) { with_channel = 7; },
      ResultChannel{[&] {
                      transport::Writer w;
                      w.put<int>(with_channel);
                      return w.take_bytes();
                    },
                    [&](const std::vector<std::byte>& bytes) {
                      transport::Reader r(
                          transport::make_payload(std::vector<std::byte>(bytes)));
                      with_channel = r.get<int>();
                    }});
  cluster->add_process(1, [&](ProcessContext&) { without_channel = 7; });
  cluster->run();
  EXPECT_EQ(with_channel, 7);
  EXPECT_EQ(without_channel, 0) << "a child's write must not leak into the launcher";
}

TEST(ProcessCluster, ChildFailurePropagatesAndUnblocksSiblings) {
  auto cluster = make_cluster(process_options());
  cluster->add_process(0, [](ProcessContext&) {
    throw util::InvalidArgument("child says no");
  });
  cluster->add_process(1, [](ProcessContext& ctx) {
    (void)ctx.recv(MatchSpec{0, 1});  // never satisfied; teardown must free it
  });
  try {
    cluster->run();
    FAIL() << "expected the child error to rethrow in the launcher";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("child says no"), std::string::npos);
  }
}

TEST(ProcessCluster, ManyProcessesExchangeOverShmRings) {
  auto cluster = make_cluster(process_options());
  const int n = 4;
  std::vector<int> sums(static_cast<std::size_t>(n), 0);
  for (ProcId id = 0; id < n; ++id) {
    cluster->add_process(
        id,
        [&, id](ProcessContext& ctx) {
          for (ProcId peer = 0; peer < n; ++peer) {
            if (peer == id) continue;
            transport::Writer w;
            w.put<int>(static_cast<int>(id) + 1);
            ctx.send(peer, 3, w.take());
          }
          int sum = 0;
          for (int k = 0; k < n - 1; ++k) {
            Message m = ctx.recv(MatchSpec{transport::kAnyProc, 3});
            transport::Reader r(m.payload);
            sum += r.get<int>();
          }
          sums[static_cast<std::size_t>(id)] = sum;
        },
        ResultChannel{[&, id] {
                        transport::Writer w;
                        w.put<int>(sums[static_cast<std::size_t>(id)]);
                        return w.take_bytes();
                      },
                      [&, id](const std::vector<std::byte>& bytes) {
                        transport::Reader r(
                            transport::make_payload(std::vector<std::byte>(bytes)));
                        sums[static_cast<std::size_t>(id)] = r.get<int>();
                      }});
  }
  cluster->run();
  // Everyone receives (sum of all ids+1) minus its own contribution.
  const int total = n * (n + 1) / 2;
  for (int id = 0; id < n; ++id)
    EXPECT_EQ(sums[static_cast<std::size_t>(id)], total - (id + 1)) << "proc " << id;

  const auto c = cluster->transport_counters();
  EXPECT_EQ(c.decode_errors, 0u);
  EXPECT_EQ(c.shm_frames, static_cast<std::uint64_t>(n * (n - 1)));
  EXPECT_EQ(c.tcp_frames, 0u) << "single-node cluster must be socket-free";
}

TEST(ProcessCluster, CrossNodeProcessesExchangeOverTcp) {
  ClusterOptions o = process_options();
  o.transport.node_of = {{0, 0}, {1, 1}};
  auto cluster = make_cluster(o);
  int got = 0;
  cluster->add_process(
      0,
      [&](ProcessContext& ctx) {
        // A payload larger than the kernel socket buffers, first thing on
        // the fresh connection.
        std::vector<std::byte> big(524288);
        for (std::size_t i = 0; i < big.size(); ++i)
          big[i] = static_cast<std::byte>(i & 0xFF);
        ctx.send(1, 5, transport::make_payload(std::move(big)));
        Message m = ctx.recv(MatchSpec{1, 6});
        transport::Reader r(m.payload);
        got = r.get<int>();
      },
      ResultChannel{[&] {
                      transport::Writer w;
                      w.put<int>(got);
                      return w.take_bytes();
                    },
                    [&](const std::vector<std::byte>& bytes) {
                      transport::Reader r(
                          transport::make_payload(std::vector<std::byte>(bytes)));
                      got = r.get<int>();
                    }});
  cluster->add_process(1, [](ProcessContext& ctx) {
    Message m = ctx.recv(MatchSpec{0, 5});
    bool ok = m.payload.size() == 524288;
    for (std::size_t i = 0; ok && i < m.payload.size(); i += 4097)
      ok = m.payload.data()[i] == static_cast<std::byte>(i & 0xFF);
    transport::Writer w;
    w.put<int>(ok ? 1 : 0);
    ctx.send(0, 6, w.take());
  });
  cluster->run();
  EXPECT_EQ(got, 1);
  const auto c = cluster->transport_counters();
  EXPECT_GE(c.tcp_frames, 2u);
  EXPECT_EQ(c.decode_errors, 0u);
}

TEST(ProcessCluster, ForkedStdoutReachesARedirectedFileExactlyOnce) {
  // Redirected to a file, stdout is fully buffered: a child that _exits
  // with its own lines still buffered loses them, and one that inherited
  // the launcher's unflushed line would write that line again.
  const std::string path = ::testing::TempDir() + "ccf_process_cluster_stdout.txt";
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  ASSERT_GE(saved, 0);
  ASSERT_NE(std::freopen(path.c_str(), "w", stdout), nullptr);
  auto cluster = make_cluster(process_options());
  const int n = 3;
  for (int id = 0; id < n; ++id) {
    cluster->add_process(id, [id](ProcessContext&) { std::printf("child %d\n", id); });
  }
  std::printf("launcher\n");  // still buffered when run() forks
  cluster->run();
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);

  std::multiset<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.insert(line);
  std::remove(path.c_str());
  EXPECT_EQ(lines.count("launcher"), 1u);
  for (int id = 0; id < n; ++id) EXPECT_EQ(lines.count("child " + std::to_string(id)), 1u);
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(n + 1));
}

TEST(ProcessCluster, ValidatesUsage) {
  auto cluster = make_cluster(process_options());
  EXPECT_THROW(cluster->add_process(0, nullptr), util::InvalidArgument);
  EXPECT_THROW(cluster->run(), util::InvalidArgument);  // no processes
}

}  // namespace
}  // namespace ccf::runtime
