#include "transport/mailbox.hpp"

#include "util/check.hpp"

namespace ccf::transport {

bool Mailbox::deliver(Message m) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      ++dropped_;
      return false;
    }
    queue_.push_back(std::move(m));
  }
  cv_.notify_all();
  return true;
}

Message Mailbox::receive(const MatchSpec& spec) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto m = take_match(queue_, spec)) return std::move(*m);
    if (closed_) throw MailboxClosed{};
    cv_.wait(lock);
  }
}

std::optional<Message> Mailbox::receive_until(const MatchSpec& spec,
                                              std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto m = take_match(queue_, spec)) return m;
    if (closed_) throw MailboxClosed{};
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return take_match(queue_, spec);
    }
  }
}

std::optional<Message> Mailbox::try_receive(const MatchSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  return take_match(queue_, spec);
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Mailbox::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Mailbox::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::uint64_t Mailbox::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

}  // namespace ccf::transport
