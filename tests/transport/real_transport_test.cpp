// Real transport (SHM rings + epoll TCP) behavioral tests, run with
// thread-attached endpoints so every path executes inside one test
// process. Covers: byte-identical delivery vs the in-memory fabric on
// the same golden frames, zero-copy SHM accounting, large-frame TCP
// exchanges (regression for a handshake/first-frame coalescing bug that
// killed fresh connections), hostile bytes on the listener, and
// write-queue backpressure.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "transport/transport.hpp"

namespace ccf::transport {
namespace {

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((seed * 2654435761u + i * 131u) & 0xFF);
  return v;
}

Message make_message(ProcId src, ProcId dst, Tag tag, std::vector<std::byte> payload) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = make_payload(std::move(payload));
  return m;
}

/// Runs the same golden frame set through a transport and returns the
/// delivered payloads in tag order.
std::vector<std::vector<std::byte>> pingpong_golden(Transport& fabric,
                                                    const std::vector<std::size_t>& sizes) {
  std::vector<std::vector<std::byte>> delivered(sizes.size());
  std::thread peer([&] {
    auto ep = fabric.attach(1);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      Message m = ep->inbox().receive(MatchSpec{0, static_cast<Tag>(i)});
      delivered[i].assign(m.payload.data(), m.payload.data() + m.payload.size());
      ep->send(make_message(1, 0, m.tag, {std::byte{0x1}}));  // ack
    }
  });
  {
    auto ep = fabric.attach(0);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ep->send(make_message(0, 1, static_cast<Tag>(i), pattern(sizes[i], unsigned(i))));
      (void)ep->inbox().receive(MatchSpec{1, static_cast<Tag>(i)});
    }
  }
  peer.join();
  return delivered;
}

const std::vector<std::size_t> kGoldenSizes = {0, 1, 64, 512, 513, 4096, 65536, 524288};

TEST(RealTransport, ShmDeliveryIsByteIdenticalToFabric) {
  TransportOptions fabric_opt;  // defaults: in-memory
  auto fabric = make_transport(fabric_opt, {0, 1});
  const auto want = pingpong_golden(*fabric, kGoldenSizes);

  TransportOptions real_opt;
  real_opt.kind = TransportKind::Real;  // both on node 0: pure SHM
  auto real = make_transport(real_opt, {0, 1});
  const auto got = pingpong_golden(*real, kGoldenSizes);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "payload " << i << " (" << kGoldenSizes[i] << " B)";
  }

  const TransportCounters c = real->counters();
  EXPECT_EQ(c.decode_errors, 0u);
  EXPECT_EQ(c.frames_received, c.frames_sent);
  EXPECT_EQ(c.tcp_frames, 0u) << "same-node pair must never touch a socket";
  EXPECT_EQ(c.shm_frames, c.frames_sent);
  // Payloads above kShmInlineBytes (512) alias the ring zero-copy; the
  // rest (and the acks) are inline copies. Golden sizes: 4 above, 4 at or
  // below, plus 8 one-byte acks.
  EXPECT_EQ(c.shm_zero_copy_deliveries, 4u);
  EXPECT_EQ(c.shm_inline_copies, c.frames_sent - 4u);
}

TEST(RealTransport, TcpDeliveryIsByteIdenticalToFabric) {
  TransportOptions fabric_opt;
  auto fabric = make_transport(fabric_opt, {0, 1});
  const auto want = pingpong_golden(*fabric, kGoldenSizes);

  TransportOptions real_opt;
  real_opt.kind = TransportKind::Real;
  real_opt.node_of[1] = 1;  // cross-node on localhost: pure TCP
  auto real = make_transport(real_opt, {0, 1});
  const auto got = pingpong_golden(*real, kGoldenSizes);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "payload " << i << " (" << kGoldenSizes[i] << " B)";
  }

  const TransportCounters c = real->counters();
  EXPECT_EQ(c.decode_errors, 0u);
  EXPECT_EQ(c.frames_received, c.frames_sent);
  EXPECT_EQ(c.shm_frames, 0u) << "cross-node pair must never touch a ring";
  EXPECT_EQ(c.tcp_frames, c.frames_sent);
  EXPECT_GE(c.tcp_connections, 2u);  // both roles of the one link
}

TEST(RealTransport, FirstFrameMayBeLargerThanTheSocketBuffer) {
  // Regression: a 512 KiB first frame coalesces with the HELLO into the
  // acceptor's first recv chunk; the handshake decode must consume only
  // its own bytes instead of rejecting the connection as oversized.
  // (The bug was timing-dependent, so exercise several fresh clusters.)
  for (int round = 0; round < 5; ++round) {
    TransportOptions opt;
    opt.kind = TransportKind::Real;
    opt.node_of[1] = 1;
    auto fabric = make_transport(opt, {0, 1});
    const auto got = pingpong_golden(*fabric, {524288});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], pattern(524288, 0)) << "round " << round;
    EXPECT_EQ(fabric->counters().decode_errors, 0u);
  }
}

TEST(RealTransport, CoalescedFirstBurstSurvivesTinyReceiveBlocks) {
  // Batched-path variant of the regression above: the sender's first
  // FIVE frames pile up behind the HELLO (a fresh connection flushes its
  // whole queue in one writev), and the receiver is configured with a
  // receive block far smaller than the burst so handshake leftovers,
  // block rotation, and frames straddling block edges all happen on the
  // very first bytes of the connection. Timing-dependent, so run several
  // fresh clusters.
  for (int round = 0; round < 5; ++round) {
    TransportOptions opt;
    opt.kind = TransportKind::Real;
    opt.node_of[1] = 1;
    opt.tcp_recv_block_bytes = 256;  // burst is ~90 KiB: hundreds of rotations
    auto fabric = make_transport(opt, {0, 1});

    const std::vector<std::size_t> sizes = {64, 512, 4096, 16384, 65536};
    std::vector<std::vector<std::byte>> delivered(sizes.size());
    std::thread peer([&] {
      auto ep = fabric->attach(1);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        Message m = ep->inbox().receive(MatchSpec{0, static_cast<Tag>(i)});
        delivered[i].assign(m.payload.data(), m.payload.data() + m.payload.size());
      }
      ep->send(make_message(1, 0, 99, {std::byte{0x1}}));
    });
    {
      // All five sends queue before the connect handshake completes, so
      // they leave in one coalesced burst right behind the HELLO.
      auto ep = fabric->attach(0);
      for (std::size_t i = 0; i < sizes.size(); ++i)
        ep->send(make_message(0, 1, static_cast<Tag>(i), pattern(sizes[i], unsigned(i))));
      (void)ep->inbox().receive(MatchSpec{1, 99});
    }
    peer.join();

    for (std::size_t i = 0; i < sizes.size(); ++i)
      EXPECT_EQ(delivered[i], pattern(sizes[i], unsigned(i)))
          << "round " << round << " frame " << i;
    EXPECT_EQ(fabric->counters().decode_errors, 0u) << "round " << round;
  }
}

TEST(RealTransport, MixedNodesRouteShmWithinAndTcpAcross) {
  TransportOptions opt;
  opt.kind = TransportKind::Real;
  opt.node_of = {{0, 0}, {1, 0}, {2, 1}, {3, 1}};
  auto fabric = make_transport(opt, {0, 1, 2, 3});

  // Every ordered pair exchanges one distinctive frame.
  std::vector<std::thread> threads;
  std::vector<int> ok(4, 0);
  for (ProcId id = 0; id < 4; ++id) {
    threads.emplace_back([&, id] {
      auto ep = fabric->attach(id);
      for (ProcId peer = 0; peer < 4; ++peer) {
        if (peer == id) continue;
        ep->send(make_message(id, peer, 100 + id, pattern(1000, unsigned(id))));
      }
      int good = 0;
      for (ProcId peer = 0; peer < 4; ++peer) {
        if (peer == id) continue;
        Message m = ep->inbox().receive(MatchSpec{peer, 100 + peer});
        const auto want = pattern(1000, unsigned(peer));
        if (m.payload.size() == want.size() &&
            std::memcmp(m.payload.data(), want.data(), want.size()) == 0)
          ++good;
      }
      ok[static_cast<std::size_t>(id)] = good;
    });
  }
  for (auto& t : threads) t.join();
  for (ProcId id = 0; id < 4; ++id) EXPECT_EQ(ok[static_cast<std::size_t>(id)], 3);

  const TransportCounters c = fabric->counters();
  EXPECT_EQ(c.frames_sent, 12u);
  EXPECT_EQ(c.frames_received, 12u);
  EXPECT_EQ(c.shm_frames, 4u);  // 0<->1 and 2<->3, both directions
  EXPECT_EQ(c.tcp_frames, 8u);  // the four cross-node pairs, both directions
  EXPECT_EQ(c.decode_errors, 0u);
}

TEST(RealTransport, HostileBytesOnTheListenerAreRejectedWithoutDamage) {
  const std::string rendezvous =
      ::testing::TempDir() + "/ccf_hostile_rendezvous_" +
      std::to_string(::getpid()) + ".txt";
  // The transport unlinks only rendezvous files it named itself: remove
  // this one on every exit, a failed ASSERT included.
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() { ::unlink(path.c_str()); }
  } remove_rendezvous{rendezvous};
  TransportOptions opt;
  opt.kind = TransportKind::Real;
  opt.node_of[1] = 1;
  opt.rendezvous_path = rendezvous;
  auto fabric = make_transport(opt, {0, 1});

  std::thread peer([&] {
    auto ep = fabric->attach(1);
    Message m = ep->inbox().receive(MatchSpec{0, 7});
    ep->send(make_message(1, 0, 8, {m.payload.data(), m.payload.data() + m.payload.size()}));
  });
  auto ep = fabric->attach(0);

  // Read proc 1's port from the rendezvous file and fling garbage at it.
  int port = -1;
  {
    std::ifstream in(rendezvous);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      int proc = -1, p = -1;
      std::string host;
      fields >> proc >> host >> p;
      if (proc == 1) port = p;
    }
  }
  ASSERT_GT(port, 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char garbage[] = "GET / HTTP/1.1\r\nHost: not-a-coupling-frame\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof garbage, MSG_NOSIGNAL), 0);

  // The endpoint must reject the stream (decode_errors) and keep serving
  // the legitimate connection unharmed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fabric->counters().decode_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(fabric->counters().decode_errors, 1u);
  ::close(fd);

  ep->send(make_message(0, 1, 7, pattern(2000, 9)));
  Message echo = ep->inbox().receive(MatchSpec{1, 8});
  EXPECT_EQ(echo.payload.size(), 2000u);
  peer.join();
}

TEST(RealTransport, WriteQueueBackpressureRaisesAndClears) {
  TransportOptions opt;
  opt.kind = TransportKind::Real;
  opt.node_of[1] = 1;
  opt.tcp_writeq_high_bytes = 64u << 10;
  opt.tcp_writeq_low_bytes = 16u << 10;
  auto fabric = make_transport(opt, {0, 1});

  // Attach only the sender: the peer's listener holds the connection in
  // the kernel backlog unaccepted, so the socket absorbs a bounded amount
  // and the rest piles into the write queue past the high watermark.
  auto ep = fabric->attach(0);
  const int frames = 32;
  for (int i = 0; i < frames; ++i)
    ep->send(make_message(0, 1, i, pattern(512u << 10, unsigned(i))));  // 16 MiB total
  EXPECT_TRUE(ep->under_pressure());
  EXPECT_GE(fabric->counters().backpressure_raises, 1u);

  // The late peer drains everything; pressure must clear and every frame
  // must arrive intact.
  std::thread peer([&] {
    auto ep1 = fabric->attach(1);
    for (int i = 0; i < frames; ++i) {
      Message m = ep1->inbox().receive(MatchSpec{0, i});
      ASSERT_EQ(m.payload.size(), 512u << 10);
    }
  });
  peer.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ep->under_pressure() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(ep->under_pressure());
  EXPECT_GE(fabric->counters().backpressure_clears, 1u);
}

}  // namespace
}  // namespace ccf::transport
