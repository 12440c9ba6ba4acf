// Wire-framing hostile-input tests: the TCP decode path must reject
// malformed, truncated, and oversized frames with FramingError — never
// UB — and must keep working when handshakes and frames coalesce into
// one receive chunk (the stream gives no alignment guarantees). These
// run under the ASan/UBSan CI matrix.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/frame_decoder.hpp"
#include "transport/real/wire.hpp"

namespace ccf::transport::real {
namespace {

std::vector<std::byte> encode_frame(const Message& m) {
  const FrameHeader h = make_frame_header(m);
  std::vector<std::byte> out(frame_bytes(m.payload.size()));
  std::memcpy(out.data(), &h, sizeof h);
  if (m.payload.size() != 0)
    std::memcpy(out.data() + sizeof h, m.payload.data(), m.payload.size());
  return out;
}

Message make_message(int tag, std::size_t payload_bytes) {
  Message m;
  m.src = 3;
  m.dst = 7;
  m.tag = tag;
  m.seq = 42;
  std::vector<std::byte> p(payload_bytes);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::byte>((i * 13 + static_cast<std::size_t>(tag)) & 0xFF);
  m.payload = make_payload(std::move(p));
  return m;
}

TEST(FrameDecoder, RoundTripsFramesAcrossArbitrarySplits) {
  const Message a = make_message(1, 100);
  const Message b = make_message(2, 0);
  const Message c = make_message(3, 4096);
  std::vector<std::byte> stream;
  for (const Message* m : {&a, &b, &c}) {
    const auto f = encode_frame(*m);
    stream.insert(stream.end(), f.begin(), f.end());
  }

  // Feed in 7-byte slivers: every header and payload boundary is crossed.
  FrameDecoder dec(1u << 20);
  std::vector<Message> got;
  Message out;
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - off);
    dec.feed(stream.data() + off, n);
    while (dec.next(out)) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Message& want = *std::vector<const Message*>{&a, &b, &c}[i];
    EXPECT_EQ(got[i].src, want.src);
    EXPECT_EQ(got[i].dst, want.dst);
    EXPECT_EQ(got[i].tag, want.tag);
    EXPECT_EQ(got[i].seq, want.seq);
    ASSERT_EQ(got[i].payload.size(), want.payload.size());
    if (want.payload.size() != 0) {
      EXPECT_EQ(std::memcmp(got[i].payload.data(), want.payload.data(),
                            want.payload.size()),
                0);
    }
  }
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(FrameDecoder, TruncatedFrameIsPendingNotAnError) {
  const auto f = encode_frame(make_message(1, 256));
  FrameDecoder dec(1u << 20);
  dec.feed(f.data(), f.size() - 1);  // one byte short
  Message out;
  EXPECT_FALSE(dec.next(out));
  EXPECT_EQ(dec.pending(), f.size() - 1);  // caller turns EOF-here into an error
  dec.feed(f.data() + f.size() - 1, 1);
  EXPECT_TRUE(dec.next(out));
  EXPECT_EQ(out.payload.size(), 256u);
}

TEST(FrameDecoder, BadMagicThrows) {
  auto f = encode_frame(make_message(1, 8));
  f[0] = std::byte{0x00};
  FrameDecoder dec(1u << 20);
  dec.feed(f.data(), f.size());
  Message out;
  EXPECT_THROW(dec.next(out), FramingError);
}

TEST(FrameDecoder, UnsupportedVersionThrows) {
  Message m = make_message(1, 8);
  FrameHeader h = make_frame_header(m);
  h.version = 9;
  std::vector<std::byte> f(frame_bytes(8));
  std::memcpy(f.data(), &h, sizeof h);
  FrameDecoder dec(1u << 20);
  dec.feed(f.data(), f.size());
  Message out;
  EXPECT_THROW(dec.next(out), FramingError);
}

TEST(FrameDecoder, OversizedLengthPrefixRejectedBeforeAllocation) {
  // Length prefixes just above the cap, near SIZE_MAX, and at 2^63 must
  // all throw on header validation — none may reach an allocation or
  // wrap the "bytes available" arithmetic.
  for (const std::uint64_t evil :
       {std::uint64_t{4097}, ~std::uint64_t{0}, std::uint64_t{1} << 63,
        std::uint64_t{0} - 40 /* wraps: header + payload == 2^64 == 0 */}) {
    FrameHeader h;
    h.payload_bytes = evil;
    std::vector<std::byte> f(kFrameHeaderBytes);
    std::memcpy(f.data(), &h, sizeof h);
    FrameDecoder dec(4096);
    dec.feed(f.data(), f.size());
    Message out;
    EXPECT_THROW(dec.next(out), FramingError) << "prefix " << evil;
  }
}

TEST(Handshake, RoundTrips) {
  Handshake hs;
  hs.magic = kHelloMagic;
  hs.src = 4;
  hs.dst = 9;
  hs.identity = "flow/3";
  const auto wire = encode_handshake(hs);

  Handshake got;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_handshake(wire.data(), wire.size(), kHelloMagic, got, consumed));
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(got.src, 4);
  EXPECT_EQ(got.dst, 9);
  EXPECT_EQ(got.identity, "flow/3");
}

TEST(Handshake, IncompleteReturnsFalse) {
  Handshake hs;
  hs.identity = "a-longer-identity-string";
  const auto wire = encode_handshake(hs);
  Handshake got;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < wire.size(); ++n)
    EXPECT_FALSE(decode_handshake(wire.data(), n, kHelloMagic, got, consumed)) << n;
}

TEST(Handshake, CoalescedTrailingFrameBytesAreReportedNotConsumed) {
  // TCP gives no message boundaries: the peer's first frames routinely
  // arrive in the same recv chunk as its HELLO. The decode must succeed
  // and report exactly the handshake bytes as consumed, leaving the
  // frame bytes for the frame decoder. (Regression: an over-eager size
  // guard used to reject the whole connection as "oversized".)
  Handshake hs;
  hs.src = 0;
  hs.dst = 1;
  hs.identity = "proc/0";
  auto wire = encode_handshake(hs);
  const std::size_t handshake_bytes = wire.size();
  const auto frame = encode_frame(make_message(5, 65536));
  wire.insert(wire.end(), frame.begin(), frame.end());

  Handshake got;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_handshake(wire.data(), wire.size(), kHelloMagic, got, consumed));
  EXPECT_EQ(consumed, handshake_bytes);
  EXPECT_EQ(got.identity, "proc/0");

  FrameDecoder dec(1u << 20);
  dec.feed(wire.data() + consumed, wire.size() - consumed);
  Message out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out.payload.size(), 65536u);
}

TEST(Handshake, CoalescedBurstOfFramesAfterHandshake) {
  // Harsher variant of the regression above for the batched receive path:
  // the peer's HELLO plus its first FIVE frames — a whole flush burst —
  // land in one recv chunk. The handshake consumes exactly its own bytes
  // and both decoders (reference and block-based) recover every frame.
  Handshake hs;
  hs.src = 0;
  hs.dst = 1;
  hs.identity = "proc/0";
  auto wire = encode_handshake(hs);
  const std::size_t handshake_bytes = wire.size();
  std::vector<Message> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(make_message(10 + i, static_cast<std::size_t>(64 << i)));
    const auto f = encode_frame(sent.back());
    wire.insert(wire.end(), f.begin(), f.end());
  }

  Handshake got;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_handshake(wire.data(), wire.size(), kHelloMagic, got, consumed));
  EXPECT_EQ(consumed, handshake_bytes);

  FrameDecoder ref(1u << 20);
  ref.feed(wire.data() + consumed, wire.size() - consumed);
  BlockDecoder block(1u << 20, 256, 128);  // tiny blocks: frames straddle edges
  block.feed(wire.data() + consumed, wire.size() - consumed);
  for (BlockDecoder* variant : {static_cast<BlockDecoder*>(nullptr), &block}) {
    std::vector<Message> got_frames;
    Message out;
    if (variant == nullptr) {
      while (ref.next(out)) got_frames.push_back(out);
    } else {
      while (variant->next(out)) got_frames.push_back(out);
    }
    ASSERT_EQ(got_frames.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got_frames[i].tag, sent[i].tag);
      ASSERT_EQ(got_frames[i].payload.size(), sent[i].payload.size());
      EXPECT_EQ(std::memcmp(got_frames[i].payload.data(), sent[i].payload.data(),
                            sent[i].payload.size()),
                0);
    }
  }
  EXPECT_EQ(ref.pending(), 0u);
  EXPECT_EQ(block.pending(), 0u);
}

TEST(Handshake, WrongMagicThrows) {
  Handshake hs;
  const auto wire = encode_handshake(hs);  // kHelloMagic
  Handshake got;
  std::size_t consumed = 0;
  EXPECT_THROW(decode_handshake(wire.data(), wire.size(), kWelcomeMagic, got, consumed),
               FramingError);
}

TEST(Handshake, OversizedIdentityRejectedOnBothSides) {
  Handshake hs;
  hs.identity.assign(kMaxIdentityBytes + 1, 'x');
  EXPECT_THROW((void)encode_handshake(hs), util::Error);

  // A hostile prelude claiming an identity above the cap must throw
  // before any identity bytes are read.
  HandshakePrelude p;
  p.magic = kHelloMagic;
  p.version = kWireVersion;
  p.identity_bytes = static_cast<std::uint16_t>(kMaxIdentityBytes + 1);
  std::vector<std::byte> wire(sizeof p);
  std::memcpy(wire.data(), &p, sizeof p);
  Handshake got;
  std::size_t consumed = 0;
  EXPECT_THROW(decode_handshake(wire.data(), wire.size(), kHelloMagic, got, consumed),
               FramingError);
}

// -- BlockDecoder: the batched zero-copy receive path -----------------------

void expect_same(const Message& got, const Message& want, const char* where) {
  EXPECT_EQ(got.src, want.src) << where;
  EXPECT_EQ(got.dst, want.dst) << where;
  EXPECT_EQ(got.tag, want.tag) << where;
  EXPECT_EQ(got.seq, want.seq) << where;
  ASSERT_EQ(got.payload.size(), want.payload.size()) << where;
  if (want.payload.size() != 0) {
    EXPECT_EQ(std::memcmp(got.payload.data(), want.payload.data(), want.payload.size()),
              0)
        << where;
  }
}

TEST(BlockDecoder, DifferentialWithFrameDecoderAcrossArbitrarySplits) {
  // The reference decoder and the block decoder must agree byte-for-byte
  // on any split of the same stream — slivers smaller than a header,
  // chunks that end mid-payload, and chunks carrying several frames.
  std::vector<Message> sent;
  std::vector<std::byte> stream;
  for (int i = 0; i < 8; ++i) {
    sent.push_back(make_message(i, static_cast<std::size_t>(i) * 137));
    const auto f = encode_frame(sent.back());
    stream.insert(stream.end(), f.begin(), f.end());
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{13},
                                  std::size_t{64}, stream.size()}) {
    FrameDecoder ref(1u << 20);
    BlockDecoder dec(1u << 20, 192, 96);  // blocks far smaller than the stream
    std::vector<Message> got_ref, got_block;
    Message out;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      ref.feed(stream.data() + off, n);
      dec.feed(stream.data() + off, n);
      while (ref.next(out)) got_ref.push_back(out);
      while (dec.next(out)) got_block.push_back(out);
    }
    ASSERT_EQ(got_ref.size(), sent.size()) << "chunk " << chunk;
    ASSERT_EQ(got_block.size(), sent.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      expect_same(got_ref[i], sent[i], "reference");
      expect_same(got_block[i], sent[i], "block");
    }
    EXPECT_EQ(dec.pending(), 0u) << "chunk " << chunk;
  }
}

TEST(BlockDecoder, FrameSplitAcrossTwoReadBlocks) {
  // A frame bigger than the block forces a rotation mid-frame: the tail
  // is carried into a grown block and the frame completes there. The
  // recv_buffer() hint must request at least the frame's remainder so
  // one more read finishes it.
  const Message big = make_message(9, 4096);
  const auto frame = encode_frame(big);
  BlockDecoder dec(1u << 20, 64, 0);  // 64-byte blocks, nothing inlined
  Message out;

  dec.feed(frame.data(), 64);  // header + first payload bytes only
  EXPECT_FALSE(dec.next(out));
  EXPECT_EQ(dec.pending(), 64u);

  // The next writable span must cover the whole remainder of the frame.
  const auto [ptr, space] = dec.recv_buffer();
  EXPECT_GE(space, frame.size() - 64);
  std::memcpy(ptr, frame.data() + 64, frame.size() - 64);
  dec.bytes_received(frame.size() - 64);
  ASSERT_TRUE(dec.next(out));
  expect_same(out, big, "split frame");
  EXPECT_GE(dec.stats().blocks_allocated, 2u);
}

TEST(BlockDecoder, HeaderStraddlesBlockEdge) {
  // Exactly 35 of the second frame's 40 header bytes land at the end of
  // the first block; the partial header must be carried into the next
  // block and the frame decoded intact.
  const Message first = make_message(1, 53);   // frame_bytes = 93
  const Message second = make_message(2, 100);  // frame_bytes = 140
  const auto f1 = encode_frame(first);
  const auto f2 = encode_frame(second);
  std::vector<std::byte> stream(f1);
  stream.insert(stream.end(), f2.begin(), f2.end());

  BlockDecoder dec(1u << 20, 128, 16);
  dec.feed(stream.data(), 128);  // fills block 1: frame 1 + 35 header bytes
  Message out;
  ASSERT_TRUE(dec.next(out));
  expect_same(out, first, "first");
  EXPECT_FALSE(dec.next(out));
  EXPECT_EQ(dec.pending(), 35u);  // mid-header

  dec.feed(stream.data() + 128, stream.size() - 128);
  ASSERT_TRUE(dec.next(out));
  expect_same(out, second, "second");
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(BlockDecoder, HostileLengthPrefixRejectedBeforeAllocation) {
  // Same evil prefixes as the FrameDecoder test; additionally the
  // recv_buffer() size hint must throw rather than let the attacker
  // request an amplified allocation.
  for (const std::uint64_t evil :
       {std::uint64_t{4097}, ~std::uint64_t{0}, std::uint64_t{1} << 63,
        std::uint64_t{0} - 40}) {
    FrameHeader h;
    h.payload_bytes = evil;
    std::vector<std::byte> f(kFrameHeaderBytes);
    std::memcpy(f.data(), &h, sizeof h);
    BlockDecoder dec(4096, 1024, 128);
    dec.feed(f.data(), f.size());
    Message out;
    EXPECT_THROW(dec.next(out), FramingError) << "prefix " << evil;
    EXPECT_THROW((void)dec.recv_buffer(), FramingError) << "prefix " << evil;
  }
}

TEST(BlockDecoder, ZeroCopyAboveInlineThresholdAndBlockOutlivesRotation) {
  // Payloads above the inline threshold alias the receive block; small
  // ones are copied out. A zero-copy payload must stay valid after the
  // decoder rotates to fresh blocks — the view's refcount pins the old
  // block until the last reader drops it.
  const Message small = make_message(1, 64);
  const Message large = make_message(2, 2048);
  BlockDecoder dec(1u << 20, 4096, 512);

  auto f = encode_frame(small);
  dec.feed(f.data(), f.size());
  f = encode_frame(large);
  dec.feed(f.data(), f.size());

  Message got_small, got_large;
  ASSERT_TRUE(dec.next(got_small));
  ASSERT_TRUE(dec.next(got_large));
  EXPECT_EQ(dec.stats().inline_copies, 1u);
  EXPECT_EQ(dec.stats().zero_copy_deliveries, 1u);
  EXPECT_EQ(dec.stats().zero_copy_bytes, 2048u);

  // Force several rotations; the aliased payload must not be clobbered.
  for (int i = 0; i < 8; ++i) {
    const auto filler = encode_frame(make_message(50 + i, 3000));
    dec.feed(filler.data(), filler.size());
    Message out;
    ASSERT_TRUE(dec.next(out));
  }
  expect_same(got_large, large, "zero-copy after rotation");
  expect_same(got_small, small, "inline copy");
}

// -- SendQueue: the vectored write path --------------------------------------

std::vector<std::byte> drain_via_gather(SendQueue& q, std::size_t max_iov,
                                        std::size_t consume_step) {
  // Simulates a kernel that accepts `consume_step` bytes per sendmsg():
  // gather an iovec chain, take the first N bytes of it, consume, repeat.
  std::vector<std::byte> wire;
  std::vector<struct iovec> iov(max_iov);
  while (!q.empty()) {
    const std::size_t count = q.gather(iov.data(), max_iov);
    EXPECT_GT(count, 0u) << "non-empty queue must gather at least one span";
    if (count == 0) break;
    std::size_t budget = consume_step;
    std::size_t taken = 0;
    for (std::size_t i = 0; i < count && budget != 0; ++i) {
      const std::size_t n = std::min(budget, iov[i].iov_len);
      const auto* base = static_cast<const std::byte*>(iov[i].iov_base);
      wire.insert(wire.end(), base, base + n);
      budget -= n;
      taken += n;
    }
    q.consume(taken);
  }
  return wire;
}

TEST(SendQueue, GatherCoversFramesAndRawBlobsInOrder) {
  SendQueue q;
  std::vector<std::byte> expected;

  const Message a = make_message(1, 100);
  q.push_frame(make_frame_header(a), a.payload);
  auto fa = encode_frame(a);
  expected.insert(expected.end(), fa.begin(), fa.end());

  std::vector<std::byte> raw(23);
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<std::byte>(i);
  expected.insert(expected.end(), raw.begin(), raw.end());
  q.push_raw(raw);

  const Message b = make_message(2, 0);  // empty payload: header-only iovec
  q.push_frame(make_frame_header(b), b.payload);
  auto fb = encode_frame(b);
  expected.insert(expected.end(), fb.begin(), fb.end());

  EXPECT_EQ(q.bytes(), expected.size());

  std::vector<struct iovec> iov(16);
  const std::size_t count = q.gather(iov.data(), iov.size());
  EXPECT_EQ(count, 4u);  // header+payload, raw, header
  std::vector<std::byte> wire;
  for (std::size_t i = 0; i < count; ++i) {
    const auto* base = static_cast<const std::byte*>(iov[i].iov_base);
    wire.insert(wire.end(), base, base + iov[i].iov_len);
  }
  EXPECT_EQ(wire, expected);
  q.consume(wire.size());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(SendQueue, PartialWritesResumeMidHeaderAndMidPayload) {
  // Byte streams reassembled under pathological partial writes must be
  // identical to the encoded frames for every step size — including
  // steps that stop inside a header (any n < 40) and inside payloads.
  for (const std::size_t step : {std::size_t{1}, std::size_t{7}, std::size_t{39},
                                 std::size_t{41}, std::size_t{1000}}) {
    SendQueue q;
    std::vector<std::byte> expected;
    for (int i = 0; i < 5; ++i) {
      const Message m = make_message(i, static_cast<std::size_t>(i) * 97);
      q.push_frame(make_frame_header(m), m.payload);
      const auto f = encode_frame(m);
      expected.insert(expected.end(), f.begin(), f.end());
    }
    std::vector<std::byte> raw(17, std::byte{0xAB});
    q.push_raw(raw);
    expected.insert(expected.end(), raw.begin(), raw.end());

    const auto wire = drain_via_gather(q, 16, step);
    EXPECT_EQ(wire, expected) << "step " << step;
    EXPECT_TRUE(q.empty()) << "step " << step;
  }
}

TEST(SendQueue, GatherHonorsTinyIovecBudget) {
  // With max_iov == 1 every flush sends one span; the stream must still
  // reassemble exactly, proving gather() restarts mid-item correctly.
  SendQueue q;
  std::vector<std::byte> expected;
  for (int i = 0; i < 4; ++i) {
    const Message m = make_message(i, 64);
    q.push_frame(make_frame_header(m), m.payload);
    const auto f = encode_frame(m);
    expected.insert(expected.end(), f.begin(), f.end());
  }
  const auto wire = drain_via_gather(q, 1, 1u << 20);
  EXPECT_EQ(wire, expected);
}

TEST(SendQueue, ConsumePastQueuedBytesIsRejected) {
  SendQueue q;
  const Message m = make_message(1, 8);
  q.push_frame(make_frame_header(m), m.payload);
  EXPECT_THROW(q.consume(q.bytes() + 1), util::Error);
}

}  // namespace
}  // namespace ccf::transport::real
