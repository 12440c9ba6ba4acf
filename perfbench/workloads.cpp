#include "workloads.hpp"

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/system.hpp"
#include "sim/forcing.hpp"
#include "sim/imbalance.hpp"
#include "transport/latency.hpp"

namespace pb {

namespace fs = std::filesystem;
using ccf::core::MatchPolicy;
using ccf::runtime::ExecutionMode;

ccf::dist::BlockDecomposition Plan::exporter_decomp() const {
  return ccf::dist::BlockDecomposition::make_grid(rows, cols, exporters);
}

ccf::dist::BlockDecomposition Plan::importer_decomp() const {
  return ccf::dist::BlockDecomposition::make_grid(rows, cols, 1);
}

namespace {

/// The paper's §5 micro-benchmark shape: F exporters (p_s the last rank)
/// feed a one-rank importer over one REGL connection, one request per
/// `stride` exports.
Plan fig4_shape(const std::string& name, ccf::dist::Index side, int exports) {
  Plan plan;
  plan.name = name;
  plan.mode = ExecutionMode::RealProcesses;
  plan.exporters = 2;
  plan.straggler = 1;
  plan.rows = plan.cols = side;
  plan.conns = {Connection{"r1", MatchPolicy::REGL, 2.5}};
  plan.exports = exports;
  plan.t0 = 0.6;
  plan.dt = 1.0;
  const double stride = 20.0;
  const int requests = static_cast<int>(std::floor((plan.t0 + exports * plan.dt) / stride));
  for (int j = 1; j <= requests; ++j) plan.requests.push_back(stride * j);
  return plan;
}

Plan make_shape(const std::string& workload, bool tiny) {
  if (workload == "fig4_shm") {
    // Fast importer (Fig 4c/d): the importer's work per request is a small
    // part of p_s's request period, so each request reaches p_s early in
    // the period and buddy-help lets it skip most copies.
    Plan plan = fig4_shape(workload, tiny ? 64 : 256, tiny ? 100 : 200);
    const double base = tiny ? 100e-6 : 200e-6;
    plan.compute_base = base;
    plan.importer_init = 10 * base;
    plan.importer_compute = 1 * base;
    return plan;
  }
  if (workload == "buffer_tcp") {
    // Slow importer (Fig 4a/b) at its limit: the importer's first request
    // comes well after the exporters exported everything, so every export
    // is buffered, the backlog outgrows the budget by a fixed count, which
    // spills, and the imports are plain bulk transfers (the first one on a
    // cold connection).
    Plan plan = fig4_shape(workload, tiny ? 128 : 1024, 60);
    plan.split_nodes = true;
    const double base = tiny ? 50e-6 : 200e-6;
    plan.compute_base = base;
    plan.importer_init = 1250 * base;
    plan.importer_compute = 2 * base;
    const std::size_t block_bytes =
        static_cast<std::size_t>(plan.exporter_decomp().box_of(plan.straggler).count()) *
        sizeof(double);
    plan.memory_budget_bytes = 56 * block_bytes;
    return plan;
  }
  if (workload == "rep_tree_sim") {
    // bench_rep_scale's shape: a wide exporter behind a fan-in-8
    // aggregation tree feeds a one-rank importer over a REGL and a REG
    // connection, in virtual time with a per-entry rep dispatch cost.
    Plan plan;
    plan.name = workload;
    plan.mode = ExecutionMode::VirtualTime;
    plan.exporters = tiny ? 64 : 1024;
    plan.fanin = 8;
    plan.straggler = plan.exporters - 1;
    plan.pool_exporters = true;
    ccf::dist::Index side = 4;
    while (side * side < plan.exporters) side *= 2;
    plan.rows = plan.cols = side;
    plan.conns = {Connection{"a", MatchPolicy::REGL, 0.5}, Connection{"b", MatchPolicy::REG, 2.0}};
    const int rounds = tiny ? 4 : 20;
    plan.exports = rounds + 2;
    plan.t0 = 0;
    plan.dt = 1;
    for (int k = 0; k < rounds; ++k) plan.requests.push_back(0.75 + k);
    plan.compute_base = 1e-3;
    plan.importer_init = 1e-4;
    plan.importer_compute = 1e-4;
    plan.latency = std::make_shared<const ccf::transport::FixedLatency>(1e-3);
    plan.rep_dispatch_seconds = 1e-5;
    return plan;
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace

void draw_compute(Plan& plan, int run) {
  ccf::sim::ImbalanceModel model;
  model.kind = ccf::sim::ImbalanceKind::SlowJitter;
  model.slow_rank = plan.straggler;
  model.slow_factor = 2.5;
  model.amplitude = 0.5;
  model.seed = plan.seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(run + 1);
  plan.exporter_compute.resize(static_cast<std::size_t>(plan.exporters) *
                               static_cast<std::size_t>(plan.exports));
  for (int r = 0; r < plan.exporters; ++r) {
    for (int k = 1; k <= plan.exports; ++k) {
      plan.exporter_compute[static_cast<std::size_t>(r * plan.exports + k - 1)] =
          plan.compute_base * model.factor(r, plan.exporters, k);
    }
  }
}

Plan make_plan(const std::string& workload, std::uint64_t seed, bool tiny) {
  Plan plan = make_shape(workload, tiny);
  plan.seed = seed;
  draw_compute(plan, 0);
  const auto decomp = plan.exporter_decomp();
  for (int r = 0; r < plan.exporters; ++r) {
    ccf::sim::ForcingField field(decomp, r);
    field.fill(plan.t0);
    const auto& data = field.field();
    plan.base_blocks.emplace_back(data.data(), data.data() + data.local_count());
  }
  return plan;
}

Plan virtual_twin(const Plan& plan) {
  Plan twin = plan;
  twin.name += "@virtual";
  twin.mode = ExecutionMode::VirtualTime;
  twin.latency = plan.split_nodes ? ccf::transport::tcp_calibrated_model()
                                  : ccf::transport::shm_calibrated_model();
  return twin;
}

std::uint64_t block_checksum(const double* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

std::uint64_t expected_checksum(const Plan& plan, double t) {
  const auto decomp = plan.exporter_decomp();
  const auto cols = static_cast<std::size_t>(plan.cols);
  std::vector<double> global(static_cast<std::size_t>(plan.rows) * cols);
  for (int r = 0; r < plan.exporters; ++r) {
    ccf::sim::ForcingField field(decomp, r);
    auto& block = field.field();
    std::memcpy(block.data(), plan.base_blocks[static_cast<std::size_t>(r)].data(),
                block.local_bytes());
    field.touch(t);
    const auto& box = block.local_box();
    const auto width = static_cast<std::size_t>(box.cols());
    for (auto row = box.row_begin; row < box.row_end; ++row) {
      std::memcpy(&global[static_cast<std::size_t>(row) * cols + static_cast<std::size_t>(box.col_begin)],
                  block.data() + static_cast<std::size_t>(row - box.row_begin) * width,
                  width * sizeof(double));
    }
  }
  return block_checksum(global.data(), global.size());
}

bool predicted_match(const Plan& plan, const Connection& conn, double x, double& matched) {
  const auto region = ccf::core::acceptable_region(conn.policy, x, conn.tolerance);
  bool found = false;
  for (int k = 1; k <= plan.exports; ++k) {
    const double t = plan.export_time(k);
    if (region.contains(t) && (!found || ccf::core::better_match(t, matched, x))) {
      matched = t;
      found = true;
    }
  }
  return found;
}

void pin_to_slot(int slot) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) return;
  const int n = static_cast<int>(cpus.size());
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>((slot % n + n) % n)], &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

namespace {

/// Restores the working directory when a run ends, however it ends.
class ScopedChdir {
 public:
  explicit ScopedChdir(const fs::path& dir) : previous_(fs::current_path()) {
    fs::current_path(dir);
  }
  ~ScopedChdir() {
    std::error_code ec;
    fs::current_path(previous_, ec);
  }
  ScopedChdir(const ScopedChdir&) = delete;
  ScopedChdir& operator=(const ScopedChdir&) = delete;

 private:
  fs::path previous_;
};

std::string exporter_dir(int rank) { return "E" + std::to_string(rank); }

/// Application compute of `seconds`. Virtual time charges it to the
/// clock; a wall-clock rank spins to a CLOCK_MONOTONIC deadline, so the
/// duration does not hang on a per-process spin-rate calibration and the
/// app layer stays a flat control.
void app_compute(ccf::runtime::ProcessContext& ctx, bool wall_clock, double seconds) {
  if (!wall_clock) return ctx.compute(seconds);
  const std::int64_t deadline = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (mono_ns() < deadline) {
  }
}

}  // namespace

RunResult run_once(const Plan& plan, int run_id, bool traced, const std::string& run_dir) {
  using ccf::core::CouplingRuntime;
  namespace core = ccf::core;
  const fs::path dir = fs::absolute(run_dir);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const bool forked = plan.mode == ExecutionMode::RealProcesses;
  const bool wall = plan.wall_clock();
  // The spill tier names its files from a per-process counter, so forked
  // exporter ranks sharing one spill directory would overwrite each
  // other's files. Each forked exporter therefore runs in its own working
  // directory and the spill directory is relative.
  for (int r = 0; r < plan.exporters && plan.memory_budget_bytes > 0; ++r)
    fs::create_directories(dir / exporter_dir(r) / "spill");
  ScopedChdir in_run_dir(dir);

  core::Config config;
  core::ProgramSpec e_spec{"E", "node0", "/bin/E", plan.exporters, {}};
  e_spec.rep_fanin = plan.fanin;
  config.add_program(e_spec);
  config.add_program(core::ProgramSpec{"I", "node0", "/bin/I", 1, {}});
  for (const Connection& c : plan.conns) {
    core::ConnectionSpec spec;
    spec.exporter_program = "E";
    spec.exporter_region = c.region;
    spec.importer_program = "I";
    spec.importer_region = c.region;
    spec.policy = c.policy;
    spec.tolerance = c.tolerance;
    config.add_connection(spec);
  }

  ccf::runtime::ClusterOptions cluster;
  cluster.mode = plan.mode;
  if (plan.latency) cluster.latency = plan.latency;
  cluster.transport.rendezvous_path = (dir / "rendezvous").string();
  core::FrameworkOptions fw;
  fw.rep_dispatch_seconds = plan.rep_dispatch_seconds;
  if (plan.memory_budget_bytes > 0) {
    fw.memory.budget_bytes = plan.memory_budget_bytes;
    fw.memory.spill_directory = "spill";
  }
  ::setenv("CCF_NODES", plan.split_nodes ? "split" : "hosts", 1);

  const auto e_decomp = plan.exporter_decomp();
  const auto i_decomp = plan.importer_decomp();
  auto record_path = [&](const std::string& who) { return (dir / (who + ".rec")).string(); };

  RunResult res;
  res.run_id = run_id;
  // Peak resident sets cover this run only: virtual-time ranks are threads
  // of this process, and forked ranks restart theirs at body entry.
  reset_peak_rss();
  res.construct_ns = mono_ns();
  core::CoupledSystem system(config, cluster, fw);

  system.set_program_body("E", [&](CouplingRuntime& rt, ccf::runtime::ProcessContext& ctx) {
    const int rank = rt.rank();
    if (forked) {
      pin_to_slot(rank);
      reset_peak_rss();
    }
    Recorder rec('E', rank, run_id, traced);
    if (forked && plan.memory_budget_bytes > 0 && ::chdir(exporter_dir(rank).c_str()) != 0)
      throw std::runtime_error("cannot enter " + exporter_dir(rank));
    for (const Connection& c : plan.conns) rt.define_export_region(c.region, e_decomp);
    rec.timed(Layer::Commit, [&] { rt.commit(); });
    ccf::sim::ForcingField field(e_decomp, rank);
    auto& data = field.field();
    std::memcpy(data.data(), plan.base_blocks[static_cast<std::size_t>(rank)].data(),
                data.local_bytes());
    const double* compute = &plan.exporter_compute[static_cast<std::size_t>(rank * plan.exports)];
    for (int k = 1; k <= plan.exports; ++k) {
      const double t = plan.export_time(k);
      rec.timed(Layer::Compute, [&] { app_compute(ctx, wall, compute[k - 1]); });
      field.touch(t);
      for (const Connection& c : plan.conns)
        rec.timed(Layer::Export, [&] { rt.export_region(c.region, t, data); });
    }
    rec.timed(Layer::Finalize, [&] { rt.finalize(); });
    rec.finish(record_path("E" + std::to_string(rank)));
  });

  system.set_program_body("I", [&](CouplingRuntime& rt, ccf::runtime::ProcessContext& ctx) {
    if (forked) {
      pin_to_slot(plan.exporters);
      reset_peak_rss();
    }
    Recorder rec('I', 0, run_id, traced);
    for (const Connection& c : plan.conns) rt.define_import_region(c.region, i_decomp);
    rec.timed(Layer::Commit, [&] { rt.commit(); });
    ccf::dist::DistArray2D<double> data(i_decomp, 0);
    rec.timed(Layer::Compute, [&] { app_compute(ctx, wall, plan.importer_init); });
    for (double x : plan.requests) {
      rec.timed(Layer::Compute, [&] { app_compute(ctx, wall, plan.importer_compute); });
      for (std::size_t c = 0; c < plan.conns.size(); ++c) {
        const auto status =
            rec.timed(Layer::Import, [&] { return rt.import_region(plan.conns[c].region, x, data); });
        ImportSample s;
        s.start_ns = rec.last_start_ns();
        s.end_ns = rec.last_end_ns();
        s.requested = x;
        s.matched = status.matched;
        s.ok = status.ok() ? 1 : 0;
        s.region = static_cast<std::uint8_t>(c);
        if (status.ok()) s.checksum = block_checksum(data.data(), data.local_count());
        rec.note_import(s);
      }
    }
    rec.timed(Layer::Finalize, [&] { rt.finalize(); });
    rec.finish(record_path("I0"));
  });

  res.run_call_ns = mono_ns();
  try {
    system.run();
  } catch (const std::exception& e) {
    res.crashed = true;
    res.error = e.what();
  }
  res.run_return_ns = mono_ns();
  if (!res.crashed) {
    try {
      res.end_time = system.end_time();
      for (int r = 0; r < plan.exporters; ++r) {
        res.exporters.push_back(read_record(record_path("E" + std::to_string(r))));
        res.exporter_stats.push_back(system.proc_stats("E", r));
      }
      res.importer = read_record(record_path("I0"));
      res.rep = system.rep_result("E");
      res.subrep = system.subrep_result("E");
      res.transport = system.transport_counters();
    } catch (const std::exception& e) {
      res.crashed = true;
      res.error = e.what();
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return res;
}

}  // namespace pb
