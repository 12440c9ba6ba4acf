// Event tracing for export-side processes.
//
// Captures the exact event sequences the paper prints as Figures 5, 7 and
// 8 ("export D@1.6, call memcpy." / "export D@15.6, skip memcpy." /
// "receive buddy-help {D@20, YES, D@19.6}." ...), so the reproduction can
// be compared line-by-line against the paper's listings.
#pragma once

#include <string>
#include <vector>

#include "core/matcher.hpp"
#include "core/timestamp.hpp"

namespace ccf::core {

enum class TraceKind : std::uint8_t {
  ExportCopy,    ///< export t, call memcpy
  ExportSkip,    ///< export t, skip memcpy
  Request,       ///< receive request for x
  Reply,         ///< reply {x, result, latest}
  BuddyHelp,     ///< receive buddy-help {x, result, match}
  Remove,        ///< remove buffered range [a, b] (a == b for one entry)
  SendData,      ///< send t out
  LocalDecision, ///< this process decided {x, result, match} itself
};

struct TraceEvent {
  TraceKind kind;
  double when = 0;      ///< ctx.now()
  Timestamp a = 0;      ///< primary timestamp (export t / request x / range lo)
  Timestamp b = 0;      ///< secondary (match / latest / range hi)
  MatchResult result = MatchResult::Pending;
};

/// The object name export-side listings print (the paper's "D").
inline constexpr const char* kTracedObject = "D";

/// Renders `events` as the numbered listing of the paper's Figure 5/7/8
/// style, naming the traced object `object_name`.
std::string render_trace_listing(const std::vector<TraceEvent>& events,
                                 const std::string& object_name = kTracedObject);

/// Bounded, per-process event recorder. Disabled recorders cost one branch
/// per emit.
class Trace {
 public:
  explicit Trace(std::string object_name = kTracedObject, bool enabled = false,
                 std::size_t max_events = 1 << 20)
      : name_(std::move(object_name)), enabled_(enabled), max_events_(max_events) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void emit(TraceKind kind, double when, Timestamp a, Timestamp b = 0,
            MatchResult result = MatchResult::Pending) {
    if (!enabled_ || events_.size() >= max_events_) return;
    events_.push_back(TraceEvent{kind, when, a, b, result});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Renders the numbered listing in the paper's Figure 5/7/8 style.
  std::string listing() const { return render_trace_listing(events_, name_); }

 private:
  std::string name_;
  bool enabled_;
  std::size_t max_events_;
  std::vector<TraceEvent> events_;
};

}  // namespace ccf::core
