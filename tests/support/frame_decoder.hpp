// Reference decoder for the TCP byte stream, kept for differential tests
// of the production BlockDecoder (transport/real/wire.hpp): it copies
// every payload out of one growing buffer, which makes it simple enough
// to be obviously correct.
#pragma once

#include <cstddef>
#include <vector>

#include "transport/real/wire.hpp"

namespace ccf::transport::real {

/// Incremental length-prefixed frame decoder for the TCP byte stream.
/// feed() appends raw received bytes; next() yields complete messages one
/// at a time and throws FramingError on malformed input. The connection
/// owner drops the peer on the first error — after hostile bytes there is
/// no trustworthy framing left to resynchronize on.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload_bytes)
      : max_payload_(max_payload_bytes) {}

  void feed(const std::byte* data, std::size_t n) {
    buffer_.insert(buffer_.end(), data, data + n);
  }

  /// Complete frames currently decodable. Returns false when more bytes
  /// are needed (a truncated buffer is simply "not yet complete"; a
  /// stream that *ends* mid-frame is the caller's FramingError).
  bool next(Message& out) {
    if (buffer_.size() - cursor_ < kFrameHeaderBytes) {
      compact();
      return false;
    }
    const FrameHeader h = read_frame_header(buffer_.data() + cursor_);
    validate_frame_header(h, max_payload_);
    const std::size_t need = static_cast<std::size_t>(h.payload_bytes);
    if (buffer_.size() - cursor_ - kFrameHeaderBytes < need) {
      compact();
      return false;
    }
    out.src = h.src;
    out.dst = h.dst;
    out.tag = h.tag;
    out.seq = h.seq;
    std::vector<std::byte> payload(buffer_.begin() +
                                       static_cast<std::ptrdiff_t>(cursor_ + kFrameHeaderBytes),
                                   buffer_.begin() +
                                       static_cast<std::ptrdiff_t>(cursor_ + kFrameHeaderBytes +
                                                                   need));
    out.payload = make_payload(std::move(payload));
    cursor_ += kFrameHeaderBytes + need;
    return true;
  }

  /// Bytes buffered but not yet consumed (a nonzero value at EOF means
  /// the stream died mid-frame).
  std::size_t pending() const { return buffer_.size() - cursor_; }

 private:
  void compact() {
    if (cursor_ == 0) return;
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ = 0;
  }

  std::size_t max_payload_;
  std::vector<std::byte> buffer_;
  std::size_t cursor_ = 0;
};

}  // namespace ccf::transport::real
