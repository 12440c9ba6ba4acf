// perfbench: one end-to-end benchmark of a whole coupled run.
//
//   perfbench --workload fig4_shm|buffer_tcp|rep_tree_sim --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--commit ID]
//             [--tiny] [--corrupt-oracle]
//
// Repeats full coupled runs of the workload (construction, commit, the
// export/import loop, finalize) for at least S seconds, then checks every
// import against the virtual-time answers and prints the metrics. With
// --trace 0 every run is untraced and the last line carries the
// end-to-end metrics; with --trace 1 untraced and traced runs alternate and
// the last line carries the per-layer metrics. Normally started through
// perfbench/run.py, which builds this program first.
#include <sys/personality.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PB_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PB_SANITIZED 1
#endif
#endif
#ifndef PB_SANITIZED
#define PB_SANITIZED 0
#endif

namespace fs = std::filesystem;
using namespace pb;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  bool tiny = false;
  bool corrupt_oracle = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--commit ID] [--tiny] [--corrupt-oracle]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--workdir") {
        a.workdir = value();
      } else if (flag == "--commit") {
        a.commit = value();
      } else if (flag == "--tiny") {
        a.tiny = true;
      } else if (flag == "--corrupt-oracle") {
        a.corrupt_oracle = true;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Cumulative CPU time of all CPUs and the part of it the hypervisor gave
/// to other guests (the "steal" column of /proc/stat), in clock ticks.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  // Sub-microsecond calls (the skip path) shift with where the heap and
  // stacks land, so every invocation runs with one fixed address layout:
  // re-exec once with address-space randomization off, where permitted.
  const int persona = ::personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      ::personality(static_cast<unsigned long>(persona | ADDR_NO_RANDOMIZE)) != -1) {
    ::execv("/proc/self/exe", argv);
  }
  const Args args = parse(argc, argv);
  if (PB_SANITIZED || PB_INSTRUMENTED) {
    std::cerr << "perfbench: refusing to report timings from a sanitizer or coverage build\n";
    return 2;
  }
  Plan plan;
  try {
    plan = make_plan(args.workload, args.seed, args.tiny);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  // The workload fixes the execution mode and node layout itself.
  ::unsetenv("CCF_MODE");
  ::unsetenv("CCF_TRANSPORT");
  // The virtual-time executor runs one simulated process at a time, each
  // on its own thread. On one CPU every hand-over is a plain context
  // switch instead of a cross-core wake-up, whose latency varies widely.
  if (!plan.wall_clock()) pin_to_slot(-1);

  fs::create_directories(args.workdir);
  const std::string workdir = fs::absolute(args.workdir).string();
  std::cout << "perfbench workload=" << plan.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << (args.tiny ? " tiny" : "") << '\n';
  std::cout << "host {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(compiler())
            << ", \"build_type\": " << json_string(PB_BUILD_TYPE)
            << ", \"commit\": " << json_string(args.commit) << "}\n"
            << std::flush;

  // Closed loop: back-to-back full coupled runs until the time is spent
  // and the percentiles have their samples (p99 of exports and p90 of
  // imports each with at least ten samples beyond them). Runs during which
  // the hypervisor took more than kMaxSteal of the CPU time are checked
  // but left out of the metrics, as long as enough undisturbed runs come
  // within three times the requested time.
  constexpr double kMaxSteal = 0.02;
  std::vector<RunResult> untraced, traced;
  std::size_t clean_untraced = 0, clean_traced = 0, export_samples = 0, import_samples = 0;
  // One unrecorded warm-up run first: it faults in the memory and
  // connections the measured runs then find ready, as a long-running
  // deployment would.
  if (!args.tiny) run_once(plan, -1, false, workdir + "/run");
  const std::int64_t start = mono_ns();
  const double give_up_s = std::min(3 * args.seconds, 120.0);
  const std::size_t min_runs = args.tiny ? 1 : (args.trace ? 2 : 3);
  auto enough = [&] {
    return clean_untraced >= min_runs && (!args.trace || clean_traced >= min_runs) &&
           (args.tiny || args.trace || (export_samples >= 1000 && import_samples >= 100));
  };
  for (int id = 0;; ++id) {
    const bool traced_run = args.trace && id % 2 == 1;
    // Wall-clock runs each replay a fresh jitter pattern of the seed, so
    // one invocation averages over patterns; virtual-time runs replay
    // run 0's, whose end time must then repeat exactly.
    if (plan.wall_clock()) draw_compute(plan, id);
    const CpuTicks before = read_cpu_ticks();
    RunResult r = run_once(plan, id, traced_run, workdir + "/run");
    const CpuTicks after = read_cpu_ticks();
    r.disturbed = after.steal - before.steal > kMaxSteal * (after.total - before.total);
    const bool crashed = r.crashed;
    if (!r.disturbed && traced_run) ++clean_traced;
    if (!r.disturbed && !traced_run) {
      ++clean_untraced;
      for (const RankRecord& e : r.exporters)
        if (plan.pool_exporters || e.rank == plan.straggler) export_samples += e.export_ns.size();
      import_samples += r.importer.imports.size();
    }
    (traced_run ? traced : untraced).push_back(std::move(r));
    if (crashed) break;
    const double elapsed = static_cast<double>(mono_ns() - start) * 1e-9;
    if ((elapsed >= args.seconds && enough()) || elapsed >= give_up_s) break;
  }

  // The oracle: the answers the same programs give in virtual time, which
  // must also be what the policy predicts from the export schedule.
  Verdict verdict;
  std::vector<Expected> expected;
  for (double x : plan.requests) {
    for (const Connection& c : plan.conns) {
      Expected e;
      e.ok = predicted_match(plan, c, x, e.matched);
      expected.push_back(e);
    }
  }
  double virtual_makespan_s = 0;
  if (plan.wall_clock()) {
    draw_compute(plan, 0);
    const Plan twin_plan = virtual_twin(plan);
    RunResult twin = run_once(twin_plan, -1, false, workdir + "/twin");
    Verdict twin_verdict;
    check_runs(twin_plan, {&twin}, expected, twin_verdict);
    for (const std::string& p : twin_verdict.problems)
      verdict.problems.push_back("virtual-time oracle disagrees with the policy: " + p);
    if (!twin.crashed) {
      expected.clear();
      for (const ImportSample& s : twin.importer.imports) expected.push_back({s.ok != 0, s.matched});
    }
    virtual_makespan_s = twin.end_time;
  } else {
    virtual_makespan_s = untraced.front().end_time;
    for (const auto* runs : {&untraced, &traced})
      for (const RunResult& r : *runs)
        if (!r.crashed && r.end_time != virtual_makespan_s)
          verdict.problems.push_back("run " + std::to_string(r.run_id) +
                                     ": virtual end time differs between runs of one seed");
  }
  expected.resize(static_cast<std::size_t>(plan.imports_per_run()));
  if (args.corrupt_oracle) expected.front().ok = !expected.front().ok;

  std::vector<const RunResult*> all;
  for (const auto* runs : {&untraced, &traced})
    for (const RunResult& r : *runs) all.push_back(&r);
  check_runs(plan, all, expected, verdict);

  const std::size_t disturbed = untraced.size() + traced.size() - clean_untraced - clean_traced;
  const bool left_out = disturbed > 0 && enough();
  if (left_out) {
    std::erase_if(untraced, [](const RunResult& r) { return r.disturbed; });
    std::erase_if(traced, [](const RunResult& r) { return r.disturbed; });
  }
  std::cout << "runs: " << untraced.size() << " untraced, " << traced.size() << " traced measured; "
            << disturbed << " disturbed by hypervisor steal"
            << (left_out || disturbed == 0 ? " left out" : " kept (too few undisturbed)") << "; "
            << export_samples << " export samples"
            << (plan.pool_exporters ? " (all exporter ranks)" : " (p_s)") << " and "
            << import_samples << " import samples in undisturbed runs\n";
  const auto e2e = end_to_end_metrics(plan, untraced);
  std::cout << "end-to-end (untraced runs):\n";
  print_metrics(e2e, std::cout);
  print_metrics({{"op_error_rate",
                  verdict.attempted > 0 ? double(verdict.failed) / double(verdict.attempted) : 0,
                  "ratio"}},
                std::cout);
  std::vector<Metric> layers;
  if (args.trace && !traced.empty()) {
    layers = per_layer_metrics(plan, traced, untraced, virtual_makespan_s);
    std::cout << "per layer (traced runs):\n";
    print_metrics(layers, std::cout);
    write_self_time_table(plan, traced, workdir + "/selftime-" + plan.name + ".tsv", std::cout);
    write_spans(traced.back(), workdir + "/spans-" + plan.name + ".tsv");
  }
  std::cout << "checks: " << (verdict.correct() ? "all passed" : "FAILED") << '\n';
  const std::size_t shown = std::min<std::size_t>(verdict.problems.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) std::cout << "  " << verdict.problems[i] << '\n';
  if (shown < verdict.problems.size())
    std::cout << "  ... and " << verdict.problems.size() - shown << " more\n";
  std::cout << result_json(verdict, args.trace ? layers : e2e) << std::endl;
  return verdict.correct() ? 0 : 1;
}
