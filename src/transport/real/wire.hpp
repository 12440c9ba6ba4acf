// Wire framing for the real transport (docs/PROTOCOL.md, "Wire transport").
//
// Both real paths — SHM rings and TCP streams — carry the same
// self-contained frame: a fixed 40-byte header followed by the payload
// bytes, exactly as the Message's PayloadView holds them. Because the
// data plane's wire frames are already self-contained buffers, a frame
// can be mapped (SHM) or copied (TCP) without any re-framing, and the
// receive side hands out PayloadViews into the frame in place.
//
// The decode path treats its input as hostile (a TCP peer can send
// anything): magic/version are verified, the length prefix is validated
// against an explicit cap BEFORE any allocation, and arithmetic that
// could wrap (length near 2^64) is checked in a widened/underflow-safe
// form. Malformed input surfaces as FramingError, never UB — regression
// tests run the decoder under ASan/UBSan on truncated, oversized and
// corrupt inputs (tests/transport/wire_test.cpp).
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "transport/message.hpp"
#include "util/check.hpp"

namespace ccf::transport::real {

/// Malformed or hostile wire input (bad magic, oversized length prefix,
/// truncated frame, corrupt handshake).
class FramingError : public util::Error {
 public:
  explicit FramingError(const std::string& what) : Error(what) {}
};

inline constexpr std::uint32_t kFrameMagic = 0xCCF7F00Du;
inline constexpr std::uint16_t kWireVersion = 1;

/// Fixed-size frame header; all fields little-endian host order (the
/// transport never crosses byte orders on one machine; a heterogeneous
/// deployment would bump kWireVersion).
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t flags = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int32_t tag = 0;
  std::uint32_t reserved = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(FrameHeader) == 40, "wire frame header is 40 bytes");
static_assert(std::is_trivially_copyable_v<FrameHeader>);

inline constexpr std::size_t kFrameHeaderBytes = sizeof(FrameHeader);

/// Total wire size of a frame carrying `payload_bytes` of payload.
inline std::size_t frame_bytes(std::size_t payload_bytes) {
  return kFrameHeaderBytes + payload_bytes;
}

inline FrameHeader make_frame_header(const Message& m) {
  FrameHeader h;
  h.src = m.src;
  h.dst = m.dst;
  h.tag = m.tag;
  h.seq = m.seq;
  h.payload_bytes = m.payload.size();
  return h;
}

/// Validates a decoded header against the hostile-input guards.
/// `max_payload` caps the length prefix; a frame for another destination
/// (or from an unknown source) is rejected by the caller, which knows the
/// membership.
inline void validate_frame_header(const FrameHeader& h, std::size_t max_payload) {
  if (h.magic != kFrameMagic)
    throw FramingError("wire frame rejected: bad magic");
  if (h.version != kWireVersion)
    throw FramingError("wire frame rejected: unsupported version " +
                       std::to_string(h.version));
  // The length prefix is attacker-controlled: compare as u64 against the
  // cap before narrowing or allocating, so a prefix like 2^63 can neither
  // wrap size arithmetic nor trigger a huge allocation.
  if (h.payload_bytes > max_payload)
    throw FramingError("wire frame rejected: length prefix " +
                       std::to_string(h.payload_bytes) + " exceeds cap " +
                       std::to_string(max_payload));
}

/// Reads a header out of a raw byte span (which must hold at least
/// kFrameHeaderBytes).
inline FrameHeader read_frame_header(const std::byte* data) {
  FrameHeader h;
  std::memcpy(&h, data, sizeof h);
  return h;
}

/// Vectored TCP write queue: frames enter as (header, payload-view) pairs
/// — no flattening copy — and leave through gather(), which builds one
/// iovec chain over every queued byte so a single sendmsg() drains the
/// whole queue. consume() advances past whatever the kernel accepted,
/// resuming mid-iovec (mid-header or mid-payload) after a partial write.
/// Raw blobs (handshakes, parked pre-handshake bytes) queue via
/// push_raw() and interleave in order with frames.
class SendQueue {
 public:
  bool empty() const { return items_.empty(); }

  /// Unsent bytes across the queue (the first `offset` bytes of the front
  /// item are already on the wire).
  std::size_t bytes() const { return bytes_; }

  void push_frame(const FrameHeader& h, Payload payload) {
    bytes_ += kFrameHeaderBytes + payload.size();
    Item it;
    it.header = h;
    it.payload = std::move(payload);
    items_.push_back(std::move(it));
  }

  void push_raw(std::vector<std::byte> raw) {
    bytes_ += raw.size();
    Item it;
    it.raw = std::move(raw);
    items_.push_back(std::move(it));
  }

  /// Fills `iov` with up to `max_iov` spans covering the unsent bytes in
  /// queue order, starting mid-item when a previous write was partial.
  /// Returns the number of spans filled. Pointers stay valid until the
  /// next push/consume (deque references are stable, payloads refcounted).
  std::size_t gather(struct iovec* iov, std::size_t max_iov) const {
    std::size_t count = 0;
    std::size_t skip = offset_;
    for (const Item& it : items_) {
      if (count == max_iov) break;
      const std::size_t head_bytes = it.head_bytes();
      if (skip < head_bytes) {
        iov[count].iov_base = const_cast<std::byte*>(it.head_data() + skip);
        iov[count].iov_len = head_bytes - skip;
        ++count;
        skip = 0;
      } else {
        skip -= head_bytes;
      }
      const std::size_t payload_bytes = it.payload.size();
      if (payload_bytes != 0) {
        if (count == max_iov) break;
        if (skip < payload_bytes) {
          iov[count].iov_base = const_cast<std::byte*>(it.payload.data() + skip);
          iov[count].iov_len = payload_bytes - skip;
          ++count;
          skip = 0;
        } else {
          skip -= payload_bytes;
        }
      }
    }
    return count;
  }

  /// Marks `n` more bytes as written; fully sent items are dropped (and
  /// their payload refs released), a partially sent front item resumes at
  /// its new offset on the next gather().
  void consume(std::size_t n) {
    CCF_CHECK(n <= bytes_, "SendQueue::consume past queued bytes");
    bytes_ -= n;
    offset_ += n;
    while (!items_.empty()) {
      const Item& front = items_.front();
      const std::size_t total = front.head_bytes() + front.payload.size();
      if (offset_ < total) break;
      offset_ -= total;
      items_.pop_front();
    }
  }

 private:
  struct Item {
    FrameHeader header;          ///< valid iff raw is empty
    std::vector<std::byte> raw;  ///< handshake / pre-framed blob
    Payload payload;             ///< zero-copy view; empty for raw items

    std::size_t head_bytes() const { return raw.empty() ? kFrameHeaderBytes : raw.size(); }
    const std::byte* head_data() const {
      return raw.empty() ? reinterpret_cast<const std::byte*>(&header) : raw.data();
    }
  };

  std::deque<Item> items_;
  std::size_t offset_ = 0;  ///< sent bytes of items_.front()
  std::size_t bytes_ = 0;
};

/// Block-based zero-copy frame decoder for the TCP receive path.
///
/// recv_buffer() hands out writable space inside a refcounted block sized
/// to hold at least the remainder of the current partial frame (so a big
/// frame finishes in one more read instead of 64KiB slivers), the socket
/// read lands directly in the block, and next() parses every complete
/// frame in place — many frames per syscall. Payloads above the inline
/// threshold are delivered as PayloadViews aliasing the block via the
/// shared_ptr aliasing constructor; the block is freed when the last view
/// dies. Small payloads are copied out so control messages never pin a
/// whole block. A partial frame at the block edge is copied into the next
/// block's head (bounded by one frame, the only copy on this path).
///
/// Hostile-input posture: headers are validated against the payload cap
/// before any allocation or arithmetic on the attacker-controlled length,
/// and the first malformed frame throws FramingError.
class BlockDecoder {
 public:
  struct Stats {
    std::uint64_t blocks_allocated = 0;
    std::uint64_t zero_copy_deliveries = 0;
    std::uint64_t zero_copy_bytes = 0;
    std::uint64_t inline_copies = 0;
  };

  BlockDecoder(std::size_t max_payload_bytes, std::size_t block_bytes,
               std::size_t inline_copy_bytes)
      : max_payload_(max_payload_bytes),
        block_bytes_(block_bytes < kFrameHeaderBytes ? kFrameHeaderBytes : block_bytes),
        inline_copy_bytes_(inline_copy_bytes) {}

  /// Writable space for the next read. Rotates to a fresh block (carrying
  /// the unparsed tail) when the current frame cannot complete in the
  /// remaining space. Throws FramingError on a hostile length prefix —
  /// the size hint must never be attacker-amplified.
  std::pair<std::byte*, std::size_t> recv_buffer() {
    const std::size_t need = bytes_needed();
    const std::size_t tail = fill_ - parse_;
    const std::size_t rest = need > tail ? need - tail : 1;
    if (block_ == nullptr || cap_ - fill_ < rest)
      rotate(block_bytes_ > rest + tail ? block_bytes_ : rest + tail);
    return {block_.get() + fill_, cap_ - fill_};
  }

  /// Accounts `n` bytes the caller read into the last recv_buffer() span.
  void bytes_received(std::size_t n) {
    CCF_CHECK(fill_ + n <= cap_, "BlockDecoder fed past its block");
    fill_ += n;
  }

  /// Copy-in variant for bytes that already live elsewhere (handshake
  /// leftovers, tests).
  void feed(const std::byte* data, std::size_t n) {
    while (n != 0) {
      const auto [dst, space] = recv_buffer();
      const std::size_t take = n < space ? n : space;
      std::memcpy(dst, data, take);
      bytes_received(take);
      data += take;
      n -= take;
    }
  }

  /// Next complete frame parsed in place, or false when more bytes are
  /// needed. Throws FramingError on malformed input.
  bool next(Message& out) {
    const std::size_t avail = fill_ - parse_;
    if (avail < kFrameHeaderBytes) return false;
    const FrameHeader h = read_frame_header(block_.get() + parse_);
    validate_frame_header(h, max_payload_);
    const std::size_t payload_bytes = static_cast<std::size_t>(h.payload_bytes);
    if (avail - kFrameHeaderBytes < payload_bytes) return false;
    out.src = h.src;
    out.dst = h.dst;
    out.tag = h.tag;
    out.seq = h.seq;
    const std::byte* payload = block_.get() + parse_ + kFrameHeaderBytes;
    if (payload_bytes <= inline_copy_bytes_) {
      out.payload = make_payload(std::vector<std::byte>(payload, payload + payload_bytes));
      ++stats_.inline_copies;
    } else {
      out.payload = PayloadView(std::shared_ptr<const void>(block_, payload), payload,
                                payload_bytes);
      ++stats_.zero_copy_deliveries;
      stats_.zero_copy_bytes += payload_bytes;
    }
    parse_ += kFrameHeaderBytes + payload_bytes;
    return true;
  }

  /// Bytes received but not yet parsed (nonzero at EOF = truncated stream).
  std::size_t pending() const { return fill_ - parse_; }

  const Stats& stats() const { return stats_; }

 private:
  /// Wire bytes needed to complete the frame at the parse cursor: a full
  /// header once one is visible, else just the header.
  std::size_t bytes_needed() const {
    if (fill_ - parse_ < kFrameHeaderBytes) return kFrameHeaderBytes;
    const FrameHeader h = read_frame_header(block_.get() + parse_);
    validate_frame_header(h, max_payload_);
    return kFrameHeaderBytes + static_cast<std::size_t>(h.payload_bytes);
  }

  void rotate(std::size_t new_cap) {
    std::shared_ptr<std::byte[]> fresh(new std::byte[new_cap]);
    const std::size_t tail = fill_ - parse_;
    if (tail != 0) std::memcpy(fresh.get(), block_.get() + parse_, tail);
    block_ = std::move(fresh);
    cap_ = new_cap;
    parse_ = 0;
    fill_ = tail;
    ++stats_.blocks_allocated;
  }

  std::size_t max_payload_;
  std::size_t block_bytes_;
  std::size_t inline_copy_bytes_;
  std::shared_ptr<std::byte[]> block_;
  std::size_t cap_ = 0;
  std::size_t fill_ = 0;   ///< bytes received into the block
  std::size_t parse_ = 0;  ///< bytes parsed out of the block
  Stats stats_;
};

// -- Connection handshake ---------------------------------------------------
//
// The first bytes on a TCP connection, before any frame:
//   connector: HELLO   { magic, version, src proc, dst proc, identity }
//   acceptor:  WELCOME { magic, version, src proc, dst proc, identity }
// `identity` is the human-readable "(program, rank, shard)" string from
// TransportOptions::identity; the receiving side verifies both the proc
// id (it must be a cluster member on the expected node) and, when it has
// an expectation for that id, the announced identity. A mismatch closes
// the connection before any frame is accepted.

inline constexpr std::uint32_t kHelloMagic = 0xCCF7E110u;
inline constexpr std::uint32_t kWelcomeMagic = 0xCCF7E111u;
inline constexpr std::size_t kMaxIdentityBytes = 256;

struct Handshake {
  std::uint32_t magic = kHelloMagic;
  std::int32_t src = 0;  ///< sender's proc id
  std::int32_t dst = 0;  ///< who the sender believes it is talking to
  std::string identity;
};

/// Fixed prelude of an encoded handshake; the identity bytes follow.
struct HandshakePrelude {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t identity_bytes = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
};
static_assert(sizeof(HandshakePrelude) == 16);

inline std::vector<std::byte> encode_handshake(const Handshake& h) {
  CCF_CHECK(h.identity.size() <= kMaxIdentityBytes,
            "handshake identity too long: " << h.identity.size());
  HandshakePrelude p;
  p.magic = h.magic;
  p.version = kWireVersion;
  p.identity_bytes = static_cast<std::uint16_t>(h.identity.size());
  p.src = h.src;
  p.dst = h.dst;
  std::vector<std::byte> out(sizeof p + h.identity.size());
  std::memcpy(out.data(), &p, sizeof p);
  std::memcpy(out.data() + sizeof p, h.identity.data(), h.identity.size());
  return out;
}

/// Incremental handshake decoder; same hostile-input posture as
/// BlockDecoder. Returns false until enough bytes arrived; `consumed`
/// reports how many of the fed bytes belong to the handshake (the rest
/// are the first frames).
inline bool decode_handshake(const std::byte* data, std::size_t n,
                             std::uint32_t expected_magic, Handshake& out,
                             std::size_t& consumed) {
  if (n < sizeof(HandshakePrelude)) return false;
  HandshakePrelude p;
  std::memcpy(&p, data, sizeof p);
  if (p.magic != expected_magic) throw FramingError("handshake rejected: bad magic");
  if (p.version != kWireVersion)
    throw FramingError("handshake rejected: unsupported version " +
                       std::to_string(p.version));
  if (p.identity_bytes > kMaxIdentityBytes)
    throw FramingError("handshake rejected: identity length " +
                       std::to_string(p.identity_bytes) + " exceeds cap " +
                       std::to_string(kMaxIdentityBytes));
  if (n - sizeof p < p.identity_bytes) return false;
  out.magic = p.magic;
  out.src = p.src;
  out.dst = p.dst;
  out.identity.assign(reinterpret_cast<const char*>(data + sizeof p), p.identity_bytes);
  consumed = sizeof p + p.identity_bytes;
  return true;
}

}  // namespace ccf::transport::real
