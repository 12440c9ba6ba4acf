#include "core/rep_state.hpp"

#include <sstream>

#include "util/check.hpp"

namespace ccf::core {

RequestAggregator::RequestAggregator(int nprocs, bool buddy_help)
    : nprocs_(nprocs), buddy_help_(buddy_help) {
  CCF_REQUIRE(nprocs > 0, "aggregator needs at least one process");
}

void RequestAggregator::open(const RequestMsg& request) {
  CCF_REQUIRE(!open_.count(request.seq) && !answers_.count(request.seq),
              "request seq " << request.seq << " already opened");
  open_.emplace(request.seq,
                OpenRequest{request,
                            std::vector<Reply>(static_cast<std::size_t>(nprocs_), Reply::Silent),
                            nprocs_});
}

RequestAggregator::Actions RequestAggregator::on_response(int rank, const ResponseMsg& response) {
  CCF_REQUIRE(rank >= 0 && rank < nprocs_, "response from rank " << rank << " outside program");
  auto it = open_.find(response.seq);
  auto known = answers_.find(response.seq);
  CCF_CHECK(it != open_.end() || known != answers_.end(),
            "response for unknown request seq " << response.seq << " on conn " << response.conn);
  const bool decisive = response.result != MatchResult::Pending;

  // Decisive response: validate the collective contract — also for a
  // settled request, where a decision may have crossed its help.
  if (decisive && known != answers_.end()) {
    const AnswerMsg& a = known->second;
    if (a.result != response.result ||
        (a.result == MatchResult::Match && a.matched != response.matched)) {
      std::ostringstream os;
      os << "Property 1 violated on conn " << response.conn << " seq " << response.seq
         << ": rank " << rank << " answered " << to_string(response.result);
      if (response.result == MatchResult::Match) os << " @" << response.matched;
      os << " but the collective answer is " << to_string(a.result);
      if (a.result == MatchResult::Match) os << " @" << a.matched;
      throw util::ProtocolViolation(os.str());
    }
  }

  Actions actions;
  // A settled request has every rank decided or helped: a late response
  // changes nothing.
  if (it == open_.end()) return actions;
  OpenRequest& req = it->second;
  Reply& reply = req.replies[static_cast<std::size_t>(rank)];
  if (!decisive) {
    if (reply != Reply::Silent) return actions;
    if (!buddy_help_ || known == answers_.end()) {
      reply = Reply::Pending;
      return actions;
    }
    // A PENDING after the request was answered: this is exactly the
    // straggler buddy-help exists for — help it right away.
    reply = Reply::Helped;
    --req.unsettled;
    actions.buddy_help_ranks.push_back(rank);
  } else {
    if (reply == Reply::Silent || reply == Reply::Pending) --req.unsettled;
    reply = Reply::Decided;
    if (known == answers_.end()) {
      // First decisive response determines the collective answer.
      const AnswerMsg answer{response.conn, response.seq, req.request.requested,
                             response.result, response.matched};
      answers_.emplace(response.seq, answer);
      actions.answer_importer = answer;
      if (buddy_help_) {
        // Help everyone who answered PENDING so far; ranks that have not
        // responded yet get helped when their PENDING arrives (see above).
        for (int r = 0; r < nprocs_; ++r) {
          Reply& other = req.replies[static_cast<std::size_t>(r)];
          if (other != Reply::Pending) continue;
          other = Reply::Helped;
          --req.unsettled;
          actions.buddy_help_ranks.push_back(r);
        }
      }
    }
  }
  if (req.unsettled == 0) open_.erase(it);
  return actions;
}

std::vector<RequestAggregator::Unresponsive> RequestAggregator::unresponsive_ranks() const {
  std::vector<Unresponsive> out;
  for (const auto& [seq, req] : open_) {
    Unresponsive u;
    for (int rank = 0; rank < nprocs_; ++rank) {
      if (req.replies[static_cast<std::size_t>(rank)] == Reply::Silent) u.ranks.push_back(rank);
    }
    if (u.ranks.empty()) continue;
    u.request = req.request;
    out.push_back(std::move(u));
  }
  return out;
}

bool RequestAggregator::rank_answered_all(int rank) const {
  for (const auto& [seq, req] : open_) {
    if (req.replies[static_cast<std::size_t>(rank)] == Reply::Silent) return false;
  }
  return true;
}

bool RequestAggregator::is_open(std::uint32_t seq) const { return open_.count(seq) > 0; }

const AnswerMsg* RequestAggregator::answer_of(std::uint32_t seq) const {
  auto it = answers_.find(seq);
  return it == answers_.end() ? nullptr : &it->second;
}

}  // namespace ccf::core
