// Per-process inbox with MPI-style tagged matching.
//
// Many senders, one receiver. receive() matches on (src, tag) with
// wildcards, preserving arrival order among matching messages; non-matching
// messages stay queued (out-of-order consumption is the whole point of
// tagged receive). close() wakes blocked receivers with an exception so
// simulated processes can be torn down cleanly.
//
// Payloads are refcounted views (transport::PayloadView), so enqueueing,
// holding, and handing out messages never copies payload bytes — the same
// buffer a broadcast enqueued into many mailboxes is shared, not cloned.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "transport/message.hpp"
#include "util/check.hpp"

namespace ccf::transport {

/// Thrown from receive() when the mailbox was closed while waiting.
class MailboxClosed : public util::Error {
 public:
  MailboxClosed() : Error("mailbox closed") {}
};

class Mailbox {
 public:
  /// Enqueue; wakes one waiting receiver. Messages to a closed mailbox are
  /// dropped (the owning process has terminated); returns false and counts
  /// the drop so lost mail is never silent.
  bool deliver(Message m);

  /// Blocks until a message matching `spec` is available and removes it.
  /// Throws MailboxClosed if close() is called while waiting.
  Message receive(const MatchSpec& spec);

  /// Non-blocking variant; empty optional when nothing matches.
  std::optional<Message> try_receive(const MatchSpec& spec);

  /// Blocks until a match arrives or `deadline` passes (then nullopt).
  std::optional<Message> receive_until(const MatchSpec& spec,
                                       std::chrono::steady_clock::time_point deadline);

  std::size_t pending() const;

  void close();
  bool closed() const;

  /// Number of messages dropped because they arrived after close().
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool closed_ = false;
  std::uint64_t dropped_ = 0;
};

}  // namespace ccf::transport
