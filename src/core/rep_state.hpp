// Pure request-aggregation logic of the representative process (paper §4).
//
// For each forwarded import request the rep collects one response per
// exporter process. The legal aggregates are: all MATCH, all NO-MATCH, all
// PENDING, PENDING+MATCH, PENDING+NO-MATCH — and all decisive answers must
// agree (same result, same matched timestamp). Anything else violates the
// collective-operation contract (Property 1) and raises ProtocolViolation.
//
// The final answer is the first decisive response. When buddy-help is
// enabled, the answer is also forwarded to every process that has not
// itself produced a decisive response — immediately for processes that
// already answered PENDING, and reactively when a late PENDING arrives
// after the answer was determined.
//
// An open request holds one reply byte per rank. It settles — and drops
// that state — once it is answered and every rank has decided or been
// helped; only its answer outlives it, so a late decisive response is
// still checked against the collective answer.
//
// This class is pure state (no I/O) so the aggregation and legality rules
// are unit-testable in isolation; rep.cpp wires it to messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/protocol.hpp"

namespace ccf::core {

class RequestAggregator {
 public:
  RequestAggregator(int nprocs, bool buddy_help);

  /// Side effects the caller (the rep) must perform after an event.
  struct Actions {
    std::optional<AnswerMsg> answer_importer;  ///< send to the importer rep
    std::vector<int> buddy_help_ranks;         ///< forward the answer to these ranks
  };

  /// A new request was forwarded to the processes.
  void open(const RequestMsg& request);

  /// Response from exporter process `rank`. Throws ProtocolViolation on an
  /// illegal aggregate.
  Actions on_response(int rank, const ResponseMsg& response);

  bool is_open(std::uint32_t seq) const;
  /// The collective answer of `seq`, or null until it is determined.
  const AnswerMsg* answer_of(std::uint32_t seq) const;
  std::size_t open_requests() const { return open_.size(); }

  /// Requests with ranks that have not responded at all — the ProcForward
  /// (or the response) may have been lost. Even for answered requests a
  /// silent rank matters: a contributing rank that never saw the request
  /// never ships its data piece, wedging the importer's transfer. The rep
  /// re-forwards to exactly these ranks in failure-tolerant mode.
  struct Unresponsive {
    RequestMsg request;
    std::vector<int> ranks;
  };
  std::vector<Unresponsive> unresponsive_ranks() const;

  /// True when `rank` has responded (PENDING or decisive) to every request
  /// ever forwarded on this connection. Only then is it safe to tell the
  /// rank the connection closed: a response proves the rank holds the
  /// request as a local obligation, so closing cannot free a snapshot a
  /// still-in-flight (delayed) forward would later need.
  bool rank_answered_all(int rank) const;

  /// Every collective answer this aggregator determined, by seq: the
  /// replay cache for duplicate forwards and the model-checking
  /// conformance interface.
  const std::map<std::uint32_t, AnswerMsg>& answers() const { return answers_; }

 private:
  enum class Reply : std::uint8_t { Silent, Pending, Helped, Decided };
  struct OpenRequest {
    RequestMsg request;
    std::vector<Reply> replies;  ///< indexed by rank
    int unsettled = 0;           ///< ranks still Silent or Pending
  };

  int nprocs_;
  bool buddy_help_;
  std::map<std::uint32_t, OpenRequest> open_;
  std::map<std::uint32_t, AnswerMsg> answers_;
};

}  // namespace ccf::core
