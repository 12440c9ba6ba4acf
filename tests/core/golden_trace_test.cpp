// Golden-listing tests: the Figure 7 / Figure 8 scenarios must produce
// these exact event listings (the textual form of the paper's figures).
// Any behavioural drift in the buffering/skip/supersede rules shows up as
// a diff here.
#include <gtest/gtest.h>

#include "core/export_state.hpp"
#include "runtime/scripted_context.hpp"

namespace ccf::core {
namespace {

const ControlRoute kRepRoute{99, 1, 0, false};  ///< straight to the rep, one shard

std::string run_figure_scenario(bool buddy_help) {
  runtime::ScriptedContext ctx(0);
  dist::BlockDecomposition one(4, 4, 1, 1);
  std::vector<ExportConnConfig> conns;
  conns.push_back(ExportConnConfig{0, MatchPolicy::REGL, 5.0,
                                   dist::RedistSchedule::for_exporter(0, one, one, one.domain()),
                                   {42}});
  FrameworkOptions options;
  options.trace = true;
  ExportRegionState state("r1", one.domain(), std::move(conns), options, kRepRoute);

  std::vector<double> block(16, 0.0);
  auto do_export = [&](double t) {
    std::fill(block.begin(), block.end(), t);
    state.on_export(t, block.data(), ctx);
  };
  for (int k = 1; k <= 3; ++k) do_export(0.6 + k);
  state.on_forwarded_request(RequestMsg{0, 0, 10.0}, ctx);
  if (buddy_help) state.on_buddy_help(AnswerMsg{0, 0, 10.0, MatchResult::Match, 9.6}, ctx);
  for (int k = 4; k <= 11; ++k) do_export(0.6 + k);
  return state.trace().listing();
}

TEST(GoldenTrace, Figure7WithBuddyHelp) {
  const char* expected =
      "1  export D@1.6, call memcpy.\n"
      "2  export D@2.6, call memcpy.\n"
      "3  export D@3.6, call memcpy.\n"
      "4  receive request for D@10.\n"
      "5  remove D@1.6, ..., D@3.6.\n"
      "6  reply {D@10, PENDING, D@3.6}.\n"
      "7  receive buddy-help {D@10, YES, D@9.6}.\n"
      "8  export D@4.6, skip memcpy.\n"
      "9  export D@5.6, skip memcpy.\n"
      "10  export D@6.6, skip memcpy.\n"
      "11  export D@7.6, skip memcpy.\n"
      "12  export D@8.6, skip memcpy.\n"
      "13  export D@9.6, call memcpy.\n"
      "14  send D@9.6 out.\n"
      "15  export D@10.6, call memcpy.\n"
      "16  export D@11.6, call memcpy.\n";
  EXPECT_EQ(run_figure_scenario(true), expected);
}

TEST(GoldenTrace, Figure8WithoutBuddyHelp) {
  const char* expected =
      "1  export D@1.6, call memcpy.\n"
      "2  export D@2.6, call memcpy.\n"
      "3  export D@3.6, call memcpy.\n"
      "4  receive request for D@10.\n"
      "5  remove D@1.6, ..., D@3.6.\n"
      "6  reply {D@10, PENDING, D@3.6}.\n"
      "7  export D@4.6, skip memcpy.\n"
      "8  export D@5.6, call memcpy.\n"
      "9  export D@6.6, call memcpy.\n"
      "10  remove D@5.6.\n"
      "11  export D@7.6, call memcpy.\n"
      "12  remove D@6.6.\n"
      "13  export D@8.6, call memcpy.\n"
      "14  remove D@7.6.\n"
      "15  export D@9.6, call memcpy.\n"
      "16  remove D@8.6.\n"
      "17  export D@10.6, call memcpy.\n"
      "18  decide {D@10, MATCH, D@9.6}.\n"
      "19  send D@9.6 out.\n"
      "20  export D@11.6, call memcpy.\n";
  EXPECT_EQ(run_figure_scenario(false), expected);
}

}  // namespace
}  // namespace ccf::core
