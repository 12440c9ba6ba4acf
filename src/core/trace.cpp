#include "core/trace.hpp"

#include <cstdio>
#include <sstream>

namespace ccf::core {

namespace {
std::string ts(Timestamp t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", t);
  return buf;
}

/// One event line (without the line number).
std::string line(const TraceEvent& e, const std::string& name) {
  std::ostringstream os;
  switch (e.kind) {
    case TraceKind::ExportCopy:
      os << "export " << name << "@" << ts(e.a) << ", call memcpy.";
      break;
    case TraceKind::ExportSkip:
      os << "export " << name << "@" << ts(e.a) << ", skip memcpy.";
      break;
    case TraceKind::Request:
      os << "receive request for " << name << "@" << ts(e.a) << ".";
      break;
    case TraceKind::Reply:
      os << "reply {" << name << "@" << ts(e.a) << ", " << to_string(e.result) << ", "
         << name << "@" << ts(e.b) << "}.";
      break;
    case TraceKind::BuddyHelp:
      os << "receive buddy-help {" << name << "@" << ts(e.a) << ", "
         << (e.result == MatchResult::Match ? "YES" : "NO") << ", " << name << "@"
         << ts(e.b) << "}.";
      break;
    case TraceKind::Remove:
      if (e.a == e.b) {
        os << "remove " << name << "@" << ts(e.a) << ".";
      } else {
        os << "remove " << name << "@" << ts(e.a) << ", ..., " << name << "@" << ts(e.b)
           << ".";
      }
      break;
    case TraceKind::SendData:
      os << "send " << name << "@" << ts(e.a) << " out.";
      break;
    case TraceKind::LocalDecision:
      os << "decide {" << name << "@" << ts(e.a) << ", " << to_string(e.result) << ", "
         << name << "@" << ts(e.b) << "}.";
      break;
  }
  return os.str();
}

}  // namespace

std::string render_trace_listing(const std::vector<TraceEvent>& events,
                                 const std::string& object_name) {
  std::ostringstream os;
  std::size_t n = 1;
  for (const auto& e : events) {
    os << n++ << "  " << line(e, object_name) << "\n";
  }
  return os.str();
}

}  // namespace ccf::core
