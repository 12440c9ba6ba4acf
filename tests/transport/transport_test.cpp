// Transport substrate tests: serialization, mailbox matching semantics,
// in-memory fabric routing, latency models.
#include <gtest/gtest.h>

#include <thread>

#include "transport/fabric.hpp"
#include "transport/latency.hpp"
#include "transport/mailbox.hpp"
#include "transport/serialize.hpp"

namespace ccf::transport {
namespace {

TEST(Serialize, RoundTripsScalarsStringsVectors) {
  Writer w;
  w.put<std::int32_t>(-7);
  w.put<double>(3.25);
  w.put_string("hello world");
  w.put_vector<std::uint16_t>({1, 2, 3});
  Reader r(w.take());
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_EQ(r.get_vector<std::uint16_t>(), (std::vector<std::uint16_t>{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, EmptyContainers) {
  Writer w;
  w.put_string("");
  w.put_vector<double>({});
  Reader r(w.take());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.get_vector<double>().empty());
}

TEST(Serialize, UnderflowThrows) {
  Writer w;
  w.put<std::uint8_t>(1);
  Reader r(w.take());
  EXPECT_THROW(r.get<std::uint64_t>(), util::InvalidArgument);
}

TEST(Serialize, MalformedVectorLengthThrowsBeforeAllocating) {
  // A corrupt length prefix like 2^61 makes n * sizeof(double) wrap to a
  // small number; the count must be validated against the remaining bytes
  // before any allocation, so this throws instead of attempting a huge
  // vector (or worse, passing a wrapped bounds check and reading OOB).
  Writer w;
  w.put<std::uint64_t>(std::uint64_t{1} << 61);
  w.put<double>(1.0);  // far fewer bytes than the prefix claims
  Reader r(w.take());
  EXPECT_THROW(r.get_vector<double>(), util::InvalidArgument);
}

TEST(Serialize, MalformedStringLengthThrows) {
  Writer w;
  w.put<std::uint64_t>(std::uint64_t{1} << 61);
  Reader r(w.take());
  EXPECT_THROW(r.get_string(), util::InvalidArgument);
}

TEST(Serialize, WriterReservesUpFront) {
  // put_vector must reserve prefix + data in one step, not grow twice.
  const std::vector<double> v(1000, 1.5);
  Writer w;
  w.put_vector(v);
  EXPECT_EQ(w.size(), kLengthPrefixBytes + v.size() * sizeof(double));

  // The exact-reserve constructor makes the allocation count exactly one.
  Writer sized(kLengthPrefixBytes + v.size() * sizeof(double));
  const std::size_t cap = sized.capacity();
  sized.put_vector(v);
  EXPECT_EQ(sized.capacity(), cap) << "put_vector reallocated a pre-sized writer";
}

TEST(PayloadView, NullVersusValidEmpty) {
  const Payload null_payload;
  EXPECT_FALSE(null_payload);
  const Payload empty = empty_payload();
  EXPECT_TRUE(empty);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
}

TEST(PayloadView, SliceSharesBufferWithoutCopy) {
  std::vector<std::byte> bytes(16);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::byte>(i);
  const Payload whole = make_payload(std::move(bytes));
  const Payload mid = whole.slice(4, 8);
  EXPECT_EQ(mid.size(), 8u);
  EXPECT_EQ(mid.data(), whole.data() + 4) << "slice must alias, not copy";
  EXPECT_EQ(static_cast<unsigned>(mid.data()[0]), 4u);
  // A slice of a slice still aliases the original buffer.
  const Payload inner = mid.slice(2, 2);
  EXPECT_EQ(inner.data(), whole.data() + 6);
}

TEST(PayloadView, SliceBoundsChecked) {
  const Payload p = make_payload(std::vector<std::byte>(8));
  EXPECT_THROW(p.slice(9, 0), util::InvalidArgument);
  EXPECT_THROW(p.slice(4, 5), util::InvalidArgument);
  EXPECT_THROW(Payload{}.slice(0, 0), util::InvalidArgument);
  EXPECT_NO_THROW(p.slice(8, 0));
}

TEST(PayloadView, SliceKeepsBufferAliveAfterParentDies) {
  Payload tail;
  {
    std::vector<std::byte> bytes(32, std::byte{7});
    Payload whole = make_payload(std::move(bytes));
    tail = whole.slice(16, 16);
  }
  ASSERT_TRUE(tail);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(static_cast<unsigned>(tail.data()[i]), 7u);
  }
}

TEST(PayloadView, ReaderViewIsZeroCopy) {
  Writer w;
  w.put_vector<double>({1.0, 2.0, 3.0});
  const Payload frame = w.take();
  Reader r(frame);
  EXPECT_EQ(r.get<std::uint64_t>(), 3u);
  const Payload body = r.view(3 * sizeof(double));
  EXPECT_EQ(body.data(), frame.data() + kLengthPrefixBytes) << "view must alias the frame";
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.view(1), util::InvalidArgument);
}

TEST(Serialize, RawBytes) {
  Writer w;
  const char data[] = "abcd";
  w.put_raw(data, 4);
  Reader r(w.take());
  char out[4];
  r.get_raw(out, 4);
  EXPECT_EQ(std::string(out, 4), "abcd");
}

Message make_msg(ProcId src, ProcId dst, Tag tag) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = empty_payload();
  return m;
}

TEST(MailboxTest, TagMatchingSkipsNonMatching) {
  Mailbox box;
  box.deliver(make_msg(1, 0, 10));
  box.deliver(make_msg(2, 0, 20));
  // Matching tag 20 takes the second message, leaving the first queued.
  Message m = box.receive(MatchSpec{kAnyProc, 20});
  EXPECT_EQ(m.src, 2);
  EXPECT_EQ(box.pending(), 1u);
  m = box.receive(MatchSpec{kAnyProc, kAnyTag});
  EXPECT_EQ(m.src, 1);
}

TEST(MailboxTest, SourceMatching) {
  Mailbox box;
  box.deliver(make_msg(5, 0, 1));
  box.deliver(make_msg(6, 0, 1));
  Message m = box.receive(MatchSpec{6, 1});
  EXPECT_EQ(m.src, 6);
}

TEST(MailboxTest, FifoAmongMatching) {
  Mailbox box;
  for (int i = 0; i < 5; ++i) {
    Message m = make_msg(1, 0, 7);
    m.seq = static_cast<std::uint64_t>(i);
    box.deliver(std::move(m));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(box.receive(MatchSpec{1, 7}).seq, static_cast<std::uint64_t>(i));
  }
}

TEST(MailboxTest, TryReceiveTakesOnlyMatches) {
  Mailbox box;
  EXPECT_FALSE(box.try_receive(MatchSpec{}).has_value());
  box.deliver(make_msg(1, 0, 3));
  EXPECT_FALSE(box.try_receive(MatchSpec{1, 4}).has_value());
  EXPECT_EQ(box.pending(), 1u);
  const auto m = box.try_receive(MatchSpec{1, 3});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 3);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxTest, BlockingReceiveWakesOnDeliver) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.deliver(make_msg(9, 0, 42));
  });
  Message m = box.receive(MatchSpec{9, 42});
  EXPECT_EQ(m.tag, 42);
  producer.join();
}

TEST(MailboxTest, CloseWakesBlockedReceiver) {
  Mailbox box;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  });
  EXPECT_THROW(box.receive(MatchSpec{}), MailboxClosed);
  closer.join();
  EXPECT_TRUE(box.closed());
}

TEST(MailboxTest, DeliverAfterCloseIsDropped) {
  Mailbox box;
  box.close();
  box.deliver(make_msg(1, 0, 1));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxTest, ReceiveUntilTimesOut) {
  Mailbox box;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  EXPECT_FALSE(box.receive_until(MatchSpec{}, deadline).has_value());
}

TEST(MailboxTest, ReceiveUntilGetsMessage) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    box.deliver(make_msg(1, 0, 5));
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto m = box.receive_until(MatchSpec{1, 5}, deadline);
  ASSERT_TRUE(m.has_value());
  producer.join();
}

TEST(NetworkTest, RoutesByDestination) {
  FabricTransport net({1, 2});
  auto ep1 = net.attach(1);
  auto ep2 = net.attach(2);
  ep1->send(make_msg(1, 2, 0));
  EXPECT_EQ(ep2->inbox().pending(), 1u);
  EXPECT_EQ(ep1->inbox().pending(), 0u);
}

TEST(NetworkTest, SequencesPerSender) {
  FabricTransport net({1, 2});
  auto sender = net.attach(1);
  auto receiver = net.attach(2);
  sender->send(make_msg(1, 2, 0));
  sender->send(make_msg(1, 2, 0));
  EXPECT_EQ(receiver->inbox().receive(MatchSpec{}).seq, 0u);
  EXPECT_EQ(receiver->inbox().receive(MatchSpec{}).seq, 1u);
}

TEST(NetworkTest, RejectsDuplicateAndUnknownIds) {
  EXPECT_THROW(FabricTransport({3, 3}), util::InvalidArgument);
  EXPECT_THROW(FabricTransport({-1}), util::InvalidArgument);
  FabricTransport net({3});
  auto ep = net.attach(3);
  EXPECT_THROW(ep->send(make_msg(3, 99, 0)), util::InvalidArgument);
  EXPECT_THROW(net.attach(99), util::InvalidArgument);
}

TEST(NetworkTest, StatsCountMessagesAndBytes) {
  FabricTransport net({1, 2});
  Message m = make_msg(1, 2, 0);
  std::vector<std::byte> bytes(100);
  m.payload = make_payload(std::move(bytes));
  net.attach(1)->send(std::move(m));
  EXPECT_EQ(net.counters().frames_sent, 1u);
  EXPECT_EQ(net.counters().frames_received, 1u);
  EXPECT_EQ(net.counters().bytes_framed, 100u);
}

TEST(NetworkTest, ShutdownClosesAllMailboxes) {
  FabricTransport net({1});
  auto ep = net.attach(1);
  net.shutdown();
  EXPECT_TRUE(ep->inbox().closed());
}

TEST(LatencyModels, ZeroAndFixed) {
  ZeroLatency zero;
  EXPECT_EQ(zero.delay_seconds(1 << 20), 0.0);
  FixedLatency fixed(1e-3);
  EXPECT_DOUBLE_EQ(fixed.delay_seconds(0), 1e-3);
  EXPECT_DOUBLE_EQ(fixed.delay_seconds(1 << 20), 1e-3);
  EXPECT_THROW(FixedLatency(-1), util::InvalidArgument);
}

TEST(LatencyModels, BandwidthScalesWithSize) {
  BandwidthLatency model(50e-6, 100e6);
  EXPECT_DOUBLE_EQ(model.delay_seconds(0), 50e-6);
  EXPECT_NEAR(model.delay_seconds(100'000'000), 1.0 + 50e-6, 1e-9);
  EXPECT_GT(model.delay_seconds(2000), model.delay_seconds(1000));
}

TEST(LatencyModels, GigePresetIsSane) {
  auto gige = gige_model();
  // 1 MB at ~110 MB/s: around 9-10 ms.
  const double d = gige->delay_seconds(1 << 20);
  EXPECT_GT(d, 5e-3);
  EXPECT_LT(d, 20e-3);
}

TEST(CopyCost, ScalesWithBytes) {
  const CopyCostModel& model = CopyCostModel::pentium4_preset();
  EXPECT_GT(model.cost_seconds(1), 0.0);
  EXPECT_GT(model.cost_seconds(1 << 21), model.cost_seconds(1 << 10));
  // 2 MB at 1.5 GB/s ~ 1.4 ms.
  EXPECT_NEAR(model.cost_seconds(2 * 1024 * 1024), 1.4e-3, 0.5e-3);
}

}  // namespace
}  // namespace ccf::transport
