// Error-handling primitives used across the framework.
//
// CCF_CHECK(cond, msg)   — internal invariant; throws ccf::util::InternalError.
// CCF_REQUIRE(cond, msg) — precondition on user-supplied input; throws
//                          ccf::util::InvalidArgument.
// Both accept a streamed message: CCF_CHECK(x > 0, "x=" << x).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ccf::util {

/// Base class for all framework exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A broken internal invariant (a bug in the framework).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Bad input from the caller (bad config file, bad region spec, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A violation of the framework's collective-operation contract (Property 1):
/// e.g. processes of one program answering MATCH and NO-MATCH for the same
/// request, or MATCH answers naming different timestamps.
class ProtocolViolation : public Error {
 public:
  explicit ProtocolViolation(const std::string& what) : Error(what) {}
};

/// A bounded retry loop exhausted its retry budget without an answer
/// (failure-tolerant mode only; see FrameworkOptions::retry_timeout_seconds).
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// `file` (a __FILE__) relative to the source tree's root, so messages
/// read the same from every checkout: this header is src/util/check.hpp,
/// and whatever precedes that in its own __FILE__ is the root.
constexpr const char* source_path(const char* file) {
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view tail = "src/util/check.hpp";
  constexpr std::string_view root =
      self.ends_with(tail) ? self.substr(0, self.size() - tail.size()) : std::string_view{};
  return std::string_view(file).starts_with(root) ? file + root.size() : file;
}

}  // namespace ccf::util

#define CCF_THROW_IMPL(ExcType, expr_text, msg_stream)                     \
  do {                                                                     \
    std::ostringstream ccf_oss_;                                           \
    ccf_oss_ << "[" << ::ccf::util::source_path(__FILE__) << ":"           \
             << __LINE__ << "] " << (expr_text) << ": "                    \
             << msg_stream; /* NOLINT */                                   \
    throw ExcType(ccf_oss_.str());                                         \
  } while (0)

#define CCF_CHECK(cond, msg_stream)                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream ccf_msg_;                                         \
      ccf_msg_ << msg_stream; /* NOLINT */                                 \
      CCF_THROW_IMPL(::ccf::util::InternalError, "CHECK failed: " #cond,   \
                     ccf_msg_.str());                                      \
    }                                                                      \
  } while (0)

#define CCF_REQUIRE(cond, msg_stream)                                      \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream ccf_msg_;                                         \
      ccf_msg_ << msg_stream; /* NOLINT */                                 \
      CCF_THROW_IMPL(::ccf::util::InvalidArgument,                         \
                     "REQUIRE failed: " #cond, ccf_msg_.str());            \
    }                                                                      \
  } while (0)
