// ScriptedContext: a single-process, manually driven ProcessContext.
//
// Useful for unit tests and for reproducing protocol scenarios at exact
// event timings (e.g. the paper's Figure 7/8 listings): sends are
// recorded, receives are fed from a queue, the clock advances only through
// compute()/copy(). Not thread-safe — it models one process in isolation.
#pragma once

#include <cstring>
#include <deque>
#include <vector>

#include "runtime/process_context.hpp"
#include "util/check.hpp"

namespace ccf::runtime {

class ScriptedContext final : public ProcessContext {
 public:
  explicit ScriptedContext(ProcId id = 0,
                           CopyCostModel cost = CopyCostModel::pentium4_preset())
      : id_(id), cost_(cost) {}

  ProcId id() const override { return id_; }

  void send(ProcId dst, Tag tag, Payload payload) override {
    Message m;
    m.src = id_;
    m.dst = dst;
    m.tag = tag;
    m.payload = payload ? std::move(payload) : transport::empty_payload();
    sent_.push_back(std::move(m));
  }

  Message recv(const MatchSpec& spec) override {
    auto m = try_recv(spec);
    CCF_REQUIRE(m.has_value(), "ScriptedContext::recv with no matching queued message");
    return std::move(*m);
  }

  std::optional<Message> try_recv(const MatchSpec& spec) override {
    return transport::take_match(inbox_, spec);
  }

  std::optional<Message> recv_until(const MatchSpec& spec, double deadline) override {
    auto m = try_recv(spec);
    if (!m) now_ = std::max(now_, deadline);
    return m;
  }

  double now() const override { return now_; }
  void compute(double seconds) override { now_ += seconds; }

  void copy(void* dst, const void* src, std::size_t bytes) override {
    std::memcpy(dst, src, bytes);
    now_ += cost_.cost_seconds(bytes);
  }

  // --- script controls -------------------------------------------------
  /// Messages this process has sent, in order.
  const std::vector<Message>& sent() const { return sent_; }
  std::vector<Message>& sent() { return sent_; }

  /// All sent messages carrying `tag`, in send order.
  std::vector<Message> sent_with_tag(Tag tag) const {
    std::vector<Message> out;
    for (const auto& m : sent_) {
      if (m.tag == tag) out.push_back(m);
    }
    return out;
  }

  /// Queues a message for a future recv/try_recv.
  void push_inbox(Message m) { inbox_.push_back(std::move(m)); }

  void set_now(double t) { now_ = t; }

 private:
  ProcId id_;
  CopyCostModel cost_;
  double now_ = 0;
  std::vector<Message> sent_;
  std::deque<Message> inbox_;
};

}  // namespace ccf::runtime
