// Byte-oriented serialization for message payloads.
//
// Writer appends trivially copyable values, strings, and vectors to a byte
// buffer; Reader consumes them in the same order. Bounds are checked on
// every read so a malformed payload surfaces as an exception, not UB.
// Length prefixes are validated against the remaining bytes *before* any
// allocation, so a corrupt length can neither wrap the bounds check nor
// trigger a huge allocation. Reader::view() borrows a range of payload
// bytes in place (zero copy) for bulk-data paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "transport/message.hpp"
#include "util/check.hpp"

namespace ccf::transport {

/// Byte count of the length prefix Writer::put_vector/put_string emit.
/// The zero-copy data plane (BufferPool wire frames, pack_wire_payload)
/// reproduces exactly this framing so aliased and packed sends are
/// byte-identical on the wire.
inline constexpr std::size_t kLengthPrefixBytes = sizeof(std::uint64_t);

class Writer {
 public:
  Writer() = default;

  /// Exact-reserve constructor: pre-sizes the buffer so a writer whose
  /// final size is known up front performs a single allocation and no
  /// incremental-growth reallocation.
  explicit Writer(std::size_t reserve_bytes) { buffer_.reserve(reserve_bytes); }

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "put() requires a trivially copyable type");
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &value, sizeof(T));
  }

  void put_string(const std::string& s) {
    buffer_.reserve(buffer_.size() + kLengthPrefixBytes + s.size());
    put<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buffer_.insert(buffer_.end(), p, p + s.size());
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>, "put_vector() requires trivially copyable elements");
    buffer_.reserve(buffer_.size() + kLengthPrefixBytes + v.size() * sizeof(T));
    put<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(T));
  }

  /// Appends raw bytes without a length prefix (caller knows the size).
  void put_raw(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + bytes);
  }

  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return buffer_.capacity(); }

  /// Consumes the writer into an immutable payload (adopts the buffer, no
  /// copy).
  Payload take() { return make_payload(std::move(buffer_)); }

  std::vector<std::byte> take_bytes() { return std::move(buffer_); }

 private:
  std::vector<std::byte> buffer_;
};

class Reader {
 public:
  explicit Reader(Payload payload) : payload_(std::move(payload)) {
    CCF_REQUIRE(payload_, "Reader over null payload");
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>, "get() requires a trivially copyable type");
    check_remaining(sizeof(T));
    T value;
    std::memcpy(&value, payload_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    CCF_REQUIRE(n <= remaining(),
                "payload underflow: string of " << n << " bytes, have " << remaining());
    std::string s(reinterpret_cast<const char*>(payload_.data() + offset_),
                  static_cast<std::size_t>(n));
    offset_ += static_cast<std::size_t>(n);
    return s;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>, "get_vector() requires trivially copyable elements");
    // Validate the element count against the remaining bytes, not
    // n * sizeof(T): the product wraps for a malformed length like 2^61,
    // which would pass a post-multiplication check and then attempt a
    // huge allocation/memcpy.
    const auto n64 = get<std::uint64_t>();
    CCF_REQUIRE(n64 <= remaining() / sizeof(T),
                "payload underflow: vector of " << n64 << " elements of " << sizeof(T)
                                                << " bytes, have " << remaining() << " bytes");
    const auto n = static_cast<std::size_t>(n64);
    std::vector<T> v(n);
    // n == 0 leaves v.data() null; memcpy's arguments must be non-null
    // even for zero sizes.
    if (n != 0) std::memcpy(v.data(), payload_.data() + offset_, n * sizeof(T));
    offset_ += n * sizeof(T);
    return v;
  }

  void get_raw(void* out, std::size_t bytes) {
    check_remaining(bytes);
    std::memcpy(out, payload_.data() + offset_, bytes);
    offset_ += bytes;
  }

  /// Borrows the next `bytes` bytes in place and advances past them. The
  /// returned view shares ownership of the payload buffer — no copy; the
  /// bytes stay valid for the view's lifetime even after the Reader dies.
  Payload view(std::size_t bytes) {
    check_remaining(bytes);
    Payload v = payload_.slice(offset_, bytes);
    offset_ += bytes;
    return v;
  }

  std::size_t remaining() const { return payload_.size() - offset_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  void check_remaining(std::size_t need) const {
    CCF_REQUIRE(payload_.size() - offset_ >= need,
                "payload underflow: need " << need << " bytes, have " << (payload_.size() - offset_));
  }

  Payload payload_;
  std::size_t offset_ = 0;
};

}  // namespace ccf::transport
