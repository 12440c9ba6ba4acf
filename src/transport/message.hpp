// Message envelope for the in-memory transport.
//
// A Message is addressed (src, dst) and tagged like an MPI point-to-point
// message. Payloads are immutable, refcounted byte buffers exposed through
// PayloadView, a zero-copy (offset, length) window: a broadcast enqueues
// the same buffer into many mailboxes, a forwarder re-sends a received
// payload, and a sub-range (slice) travels on its own — all without
// copying a byte. Ownership is a type-erased shared_ptr, so a payload can
// alias any refcounted storage (a serialized frame, a pooled snapshot
// buffer) via the shared_ptr aliasing constructor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ccf::transport {

/// Global process identifier within one simulated cluster/network.
using ProcId = std::int32_t;

/// Message tag; negative tags are reserved for framework-internal traffic.
using Tag = std::int32_t;

inline constexpr ProcId kAnyProc = -1;
inline constexpr Tag kAnyTag = -1;

/// Immutable, shared view over message bytes. Copying a view copies a
/// shared_ptr, never the bytes. A default-constructed view is "null"
/// (falsy) — distinct from a valid zero-length payload (truthy, empty).
class PayloadView {
 public:
  PayloadView() = default;

  /// Adopts `bytes`: single allocation, the view spans all of it.
  explicit PayloadView(std::vector<std::byte> bytes) {
    auto owned = std::make_shared<const std::vector<std::byte>>(std::move(bytes));
    data_ = owned->data();
    size_ = owned->size();
    owner_ = std::move(owned);
  }

  /// Aliases `[data, data + size)` inside memory kept alive by `owner`
  /// (shared_ptr aliasing: the view shares owner's refcount).
  PayloadView(std::shared_ptr<const void> owner, const std::byte* data, std::size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {
    CCF_REQUIRE(owner_ != nullptr, "payload view over unowned memory");
  }

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::byte* begin() const { return data_; }
  const std::byte* end() const { return data_ + size_; }

  /// Zero-copy sub-view sharing ownership of the same buffer.
  PayloadView slice(std::size_t offset, std::size_t length) const {
    CCF_REQUIRE(owner_ != nullptr, "slice of a null payload");
    CCF_REQUIRE(offset <= size_ && length <= size_ - offset,
                "payload slice [" << offset << ", +" << length << ") escapes " << size_
                                  << " bytes");
    return PayloadView(owner_, data_ + offset, length);
  }

  /// True for any valid payload, including an empty one.
  explicit operator bool() const { return owner_ != nullptr; }

 private:
  std::shared_ptr<const void> owner_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

using Payload = PayloadView;

/// Creates a payload by adopting `bytes` (no copy of the contents).
inline Payload make_payload(std::vector<std::byte> bytes) {
  return Payload(std::move(bytes));
}

inline Payload empty_payload() {
  static const Payload kEmpty{std::vector<std::byte>{}};
  return kEmpty;
}

struct Message {
  ProcId src = kAnyProc;
  ProcId dst = kAnyProc;
  Tag tag = 0;
  std::uint64_t seq = 0;  ///< per-sender sequence number, set by the network
  Payload payload;

  std::size_t size_bytes() const { return payload.size(); }
};

/// Receive-side matching predicate: src and tag each either exact or
/// wildcard. `src_count > 1` widens the source to the contiguous id range
/// [src, src + src_count) — a worker listening to all rep shards at once.
struct MatchSpec {
  ProcId src = kAnyProc;
  Tag tag = kAnyTag;
  ProcId src_count = 1;

  bool matches(const Message& m) const {
    const bool src_ok = src == kAnyProc || (m.src >= src && m.src < src + src_count);
    return src_ok && (tag == kAnyTag || tag == m.tag);
  }
};

/// Tagged receive from a queue in arrival order: removes and returns the
/// first message `spec` matches, leaving the rest in order; nullopt if
/// none does.
inline std::optional<Message> take_match(std::deque<Message>& queue, const MatchSpec& spec) {
  const auto it =
      std::find_if(queue.begin(), queue.end(), [&](const Message& m) { return spec.matches(m); });
  if (it == queue.end()) return std::nullopt;
  Message m = std::move(*it);
  queue.erase(it);
  return m;
}

}  // namespace ccf::transport
