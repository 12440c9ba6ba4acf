// Figures 7 and 8 reproduction: the exact event listings of an exporter
// process with and without buddy-help, for matching policy REGL and
// precision 5.0 (paper §5, last example).
//
// Scenario (identical in both arms):
//   exports at t = 1.6, 2.6, 3.6;
//   request for D@10.0 arrives (acceptable region [5.0, 10.0]);
//   WITH buddy-help the answer {D@10.0, YES, D@9.6} arrives right after;
//   exports continue 4.6 ... 11.6.
//
// Figure 7 (with): every non-match in the region is *skipped*;
// Figure 8 (without): each in-region export is buffered as the new best
// candidate and the previous candidate freed; the match is only
// identified after D@10.6 crosses the requested timestamp.
#include <cstdio>

#include "core/export_state.hpp"
#include "runtime/scripted_context.hpp"
#include "util/cli.hpp"

namespace {

using namespace ccf;
using core::AnswerMsg;
using core::ExportConnConfig;
using core::ExportRegionState;
using core::MatchResult;
using core::RequestMsg;

std::string run_arm(bool buddy_help) {
  runtime::ScriptedContext ctx(/*id=*/0);
  dist::BlockDecomposition one(16, 16, 1, 1);
  std::vector<ExportConnConfig> conns;
  conns.push_back(ExportConnConfig{0, core::MatchPolicy::REGL, 5.0,
                                   dist::RedistSchedule::for_exporter(0, one, one, one.domain()),
                                   {/*importer proc*/ 42}});
  core::FrameworkOptions options;
  options.trace = true;
  const core::ControlRoute to_rep{/*rep=*/99, 1, 0, false};
  ExportRegionState state("r1", one.domain(), std::move(conns), options, to_rep);

  std::vector<double> block(16 * 16, 0.0);
  auto do_export = [&](double t) {
    std::fill(block.begin(), block.end(), t);
    state.on_export(t, block.data(), ctx);
  };

  for (int k = 1; k <= 3; ++k) do_export(0.6 + k);  // 1.6, 2.6, 3.6
  state.on_forwarded_request(RequestMsg{0, 0, 10.0}, ctx);
  if (buddy_help) {
    state.on_buddy_help(AnswerMsg{0, 0, 10.0, MatchResult::Match, 9.6}, ctx);
  }
  for (int k = 4; k <= 11; ++k) do_export(0.6 + k);  // 4.6 ... 11.6
  return state.trace().listing();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_fig7_fig8",
                      "Reproduces the Figure 7 (with buddy-help) and Figure 8 (without) listings");
  if (!cli.parse(argc, argv)) return 0;

  std::printf("== Figure 7: WITH buddy-help (REGL, precision 5.0) ==\n");
  std::printf("%s", run_arm(true).c_str());
  std::printf("\n== Figure 8: WITHOUT buddy-help (same scenario) ==\n");
  std::printf("%s", run_arm(false).c_str());
  std::printf(
      "\npaper check: Fig. 7 skips every non-match inside [5, 10]; Fig. 8 buffers each\n"
      "in-region export as the new best candidate (freeing the previous one) and only\n"
      "sends D@9.6 after D@10.6 crosses the requested timestamp.\n");
  return 0;
}
