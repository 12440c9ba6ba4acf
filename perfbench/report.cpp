#include "report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>

namespace pb {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double millis(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double run_seconds(const RunResult& r) { return seconds(r.run_return_ns - r.construct_ns); }

/// Construction until the last worker rank returned from commit().
double setup_seconds(const RunResult& r) {
  std::int64_t last = r.importer.commit_end_ns;
  for (const RankRecord& e : r.exporters) last = std::max(last, e.commit_end_ns);
  return seconds(last - r.construct_ns);
}

/// Largest resident set among the run's worker processes (rep processes
/// hold control state only). In virtual time every rank is a thread of
/// the one process, which this then measures.
double peak_rss_mb(const RunResult& r) {
  std::int64_t kb = r.importer.max_rss_kb;
  for (const RankRecord& e : r.exporters) kb = std::max(kb, e.max_rss_kb);
  return static_cast<double>(kb) / 1024.0;
}

std::vector<const RankRecord*> ranks_of(const RunResult& r) {
  std::vector<const RankRecord*> out;
  for (const RankRecord& e : r.exporters) out.push_back(&e);
  out.push_back(&r.importer);
  return out;
}

/// Self time per layer of one rank: each span's duration minus the part
/// its child spans cover.
std::array<double, kLayers> self_ms(const RankRecord& rec) {
  std::vector<std::int64_t> self(rec.spans.size());
  for (std::size_t i = 0; i < rec.spans.size(); ++i)
    self[i] = rec.spans[i].end_ns - rec.spans[i].start_ns;
  for (const Span& s : rec.spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  std::array<double, kLayers> out{};
  for (std::size_t i = 0; i < rec.spans.size(); ++i)
    out[static_cast<std::size_t>(rec.spans[i].layer)] += millis(self[i]);
  return out;
}

/// Median over runs of a per-run value.
double median_of(const std::vector<RunResult>& runs, const std::function<double(const RunResult&)>& f) {
  std::vector<double> v;
  for (const RunResult& r : runs) v.push_back(f(r));
  return median(v);
}

/// Sum over exporter ranks and their regions.
double sum_regions(const RunResult& r, const std::function<double(const ccf::core::ExportRegionStats&)>& f) {
  double total = 0;
  for (const auto& ps : r.exporter_stats)
    for (const auto& region : ps.exports) total += f(region);
  return total;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<Metric> end_to_end_metrics(const Plan& plan, const std::vector<RunResult>& untraced) {
  std::vector<double> exports, imports;
  for (const RunResult& r : untraced) {
    for (const RankRecord& e : r.exporters) {
      if (!plan.pool_exporters && e.rank != plan.straggler) continue;
      for (std::int64_t ns : e.export_ns) exports.push_back(millis(ns));
    }
    for (const ImportSample& s : r.importer.imports) imports.push_back(millis(s.end_ns - s.start_ns));
  }
  return {
      {"setup_s", median_of(untraced, setup_seconds), "s"},
      {"run_s", median_of(untraced, run_seconds), "s"},
      {"export_ms_p50", quantile(exports, 0.50), "ms"},
      {"export_ms_p99", quantile(exports, 0.99), "ms"},
      {"import_ms_p50", quantile(imports, 0.50), "ms"},
      {"import_ms_p90", quantile(imports, 0.90), "ms"},
      {"peak_rss_mb", median_of(untraced, peak_rss_mb), "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const Plan& plan, const std::vector<RunResult>& traced,
                                      const std::vector<RunResult>& untraced,
                                      double virtual_makespan_s) {
  auto layer_ms = [](Layer layer) {
    return [layer](const RunResult& r) {
      double total = 0;
      for (const RankRecord* rec : ranks_of(r)) total += self_ms(*rec)[static_cast<std::size_t>(layer)];
      return total;
    };
  };
  auto per_run = [&](const std::function<double(const RunResult&)>& f) { return median_of(traced, f); };
  auto stores = [](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buffer.stores); }); };
  const auto& T = [](const RunResult& r) -> const ccf::transport::TransportCounters& { return r.transport; };

  std::vector<Metric> m = {
      {"app.compute_ms", per_run(layer_ms(Layer::Compute)), "ms"},
      {"app.other_ms", per_run(layer_ms(Layer::Body)), "ms"},
      {"runtime.launch_ms", per_run([](const RunResult& r) {
         std::int64_t first = r.importer.body_start_ns;
         for (const RankRecord& e : r.exporters) first = std::min(first, e.body_start_ns);
         return millis(first - r.run_call_ns);
       }), "ms"},
      {"runtime.teardown_ms", per_run([](const RunResult& r) {
         std::int64_t last = r.importer.body_end_ns;
         for (const RankRecord& e : r.exporters) last = std::max(last, e.body_end_ns);
         return millis(r.run_return_ns - last);
       }), "ms"},
      {"core.commit_ms", per_run(layer_ms(Layer::Commit)), "ms"},
      {"core.export_self_ms", per_run(layer_ms(Layer::Export)), "ms"},
      {"core.import_self_ms", per_run(layer_ms(Layer::Import)), "ms"},
      {"core.finalize_ms", per_run(layer_ms(Layer::Finalize)), "ms"},
      {"buffer.memcpys", per_run(stores), "count"},
      {"buffer.skips", per_run([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buffer.skips); }); }), "count"},
      {"buffer.useful_copy_ratio", per_run([&](const RunResult& r) {
         return ratio(sum_regions(r, [](const auto& s) { return double(s.buffer.frees_sent); }), stores(r));
       }), "ratio"},
      {"buffer.t_ub_ms", per_run([](const RunResult& r) { return 1e3 * sum_regions(r, [](const auto& s) { return s.t_ub(); }); }), "ms"},
      {"buffer.arena_reuse_ratio", per_run([](const RunResult& r) {
         const double reuses = sum_regions(r, [](const auto& s) { return double(s.buffer.arena_reuses); });
         return ratio(reuses, reuses + sum_regions(r, [](const auto& s) { return double(s.buffer.arena_allocs); }));
       }), "ratio"},
      {"buffer.peak_resident_mb", per_run([](const RunResult& r) {
         double peak = 0;
         for (const auto& ps : r.exporter_stats) {
           double bytes = 0;
           for (const auto& s : ps.exports) bytes += double(s.buffer.peak_bytes);
           peak = std::max(peak, bytes);
         }
         return peak / kMiB;
       }), "MiB"},
      {"matcher.evaluations_per_request", per_run([&](const RunResult& r) {
         return ratio(sum_regions(r, [](const auto& s) { return double(s.matcher_evaluations); }),
                      double(plan.exporters) * plan.imports_per_run());
       }), "ratio"},
      {"core.buddy_helps_received", per_run([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buddy_helps_received); }); }), "count"},
      {"core.local_decisions", per_run([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.local_decisions); }); }), "count"},
      {"rep.wire_in", per_run([](const RunResult& r) { return double(r.rep.wire_in); }), "count"},
      {"rep.frame_entries_in", per_run([](const RunResult& r) { return double(r.rep.frame_entries_in); }), "count"},
      {"rep.answers_sent", per_run([](const RunResult& r) { return double(r.rep.answers_sent); }), "count"},
      {"rep.buddy_helps_sent", per_run([](const RunResult& r) { return double(r.rep.buddy_helps_sent); }), "count"},
      {"subrep.frames_up", per_run([](const RunResult& r) { return double(r.subrep.frames_up); }), "count"},
      {"subrep.entries_up", per_run([](const RunResult& r) { return double(r.subrep.entries_up); }), "count"},
      {"dist.mb_delivered", per_run([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.bytes_delivered); }) / kMiB; }), "MiB"},
      {"dist.copies_per_delivered_byte", per_run([](const RunResult& r) {
         return ratio(sum_regions(r, [](const auto& s) { return double(s.bytes_pack_copied); }),
                      sum_regions(r, [](const auto& s) { return double(s.bytes_delivered); }));
       }), "ratio"},
      {"dist.aliased_send_ratio", per_run([](const RunResult& r) {
         const double aliased = sum_regions(r, [](const auto& s) { return double(s.sends_aliased); });
         return ratio(aliased, aliased + sum_regions(r, [](const auto& s) { return double(s.sends_packed); }));
       }), "ratio"},
      {"mem.evictions", per_run([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buffer.evictions); }); }), "count"},
      {"mem.restores", per_run([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buffer.restores); }); }), "count"},
      {"mem.spill_mb", per_run([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buffer.spill_bytes); }) / kMiB; }), "MiB"},
      {"mem.budget_denials", per_run([](const RunResult& r) {
         double n = 0;
         for (const auto& ps : r.exporter_stats) n += double(ps.governor.budget_denials);
         return n;
       }), "count"},
      {"mem.peak_charged_mb", per_run([](const RunResult& r) {
         double peak = 0;
         for (const auto& ps : r.exporter_stats) peak = std::max(peak, double(ps.governor.peak_charged_bytes));
         return peak / kMiB;
       }), "MiB"},
      {"transport.frames", per_run([&](const RunResult& r) { return double(T(r).frames_sent); }), "count"},
      {"transport.mb_framed", per_run([&](const RunResult& r) { return double(T(r).bytes_framed) / kMiB; }), "MiB"},
      {"transport.shm_zero_copy_ratio", per_run([&](const RunResult& r) { return ratio(double(T(r).shm_zero_copy_deliveries), double(T(r).shm_frames)); }), "ratio"},
      {"transport.doorbells_per_frame", per_run([&](const RunResult& r) { return ratio(double(T(r).doorbells), double(T(r).frames_sent)); }), "ratio"},
      {"transport.tcp_syscalls_per_frame", per_run([&](const RunResult& r) {
         return ratio(double(T(r).tcp_read_syscalls + T(r).tcp_write_syscalls), double(T(r).tcp_frames));
       }), "ratio"},
      {"transport.producer_stalls", per_run([&](const RunResult& r) { return double(T(r).shm_producer_stalls); }), "count"},
      {"transport.decode_errors", per_run([&](const RunResult& r) { return double(T(r).decode_errors); }), "count"},
      {"simtime.wall_us_per_call", per_run([&](const RunResult& r) {
         double calls = double(r.importer.imports.size());
         for (const RankRecord& e : r.exporters) calls += double(e.export_ns.size());
         return ratio(1e6 * run_seconds(r), calls);
       }), "us"},
      {"simtime.virtual_makespan_s", virtual_makespan_s, "s"},
      {"trace.overhead_s", per_run(run_seconds) - median_of(untraced, run_seconds), "s"},
  };
  return m;
}

void check_runs(const Plan& plan, const std::vector<const RunResult*>& runs,
                const std::vector<Expected>& expected, Verdict& verdict) {
  std::map<double, std::uint64_t> checksums;
  auto checksum_of = [&](double t) {
    auto it = checksums.find(t);
    if (it == checksums.end()) it = checksums.emplace(t, expected_checksum(plan, t)).first;
    return it->second;
  };
  const auto n = static_cast<std::size_t>(plan.imports_per_run());
  for (const RunResult* run_ptr : runs) {
    const RunResult& r = *run_ptr;
    verdict.attempted += static_cast<long>(n);
    const std::string run = "run " + std::to_string(r.run_id) + ": ";
    if (r.crashed) {
      verdict.failed += static_cast<long>(n);
      verdict.problems.push_back(run + "crashed: " + r.error);
      continue;
    }
    const auto& got = r.importer.imports;
    long bad = static_cast<long>(n > got.size() ? n - got.size() : 0);
    for (std::size_t i = 0; i < std::min(n, got.size()); ++i) {
      const ImportSample& s = got[i];
      const Expected& e = expected[i];
      const bool right = (s.ok != 0) == e.ok &&
                         (!e.ok || (s.matched == e.matched && s.checksum == checksum_of(e.matched)));
      if (!right) {
        ++bad;
        std::ostringstream os;
        os << run << "import of " << s.requested << " on " << plan.conns[s.region].region
           << " returned " << (s.ok ? "MATCH " : "NO MATCH ") << s.matched
           << (s.ok && s.matched == e.matched ? " with wrong data" : "") << ", expected "
           << (e.ok ? "MATCH " : "NO MATCH ") << e.matched;
        verdict.problems.push_back(os.str());
      }
    }
    verdict.failed += bad;
  }

  // Regime checks: the typical run (the median over runs, as for the
  // per-layer metrics) must exercise the layers the workload was chosen
  // for. A single run may drift out of its regime when the host stalls.
  auto require = [&](const std::function<double(const RunResult&)>& f, const std::string& what) {
    std::vector<double> v;
    for (const RunResult* r : runs)
      if (!r->crashed) v.push_back(f(*r));
    if (!v.empty() && !(median(v) > 0))
      verdict.problems.push_back("regime check failed: median " + what + " is not > 0");
  };
  if (plan.name == "fig4_shm") {
    require([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buffer.skips); }); },
            "buffer.skips");
    require([&](const RunResult& r) {
      double helps = 0;
      for (const auto& s : r.exporter_stats[static_cast<std::size_t>(plan.straggler)].exports)
        helps += double(s.buddy_helps_received);
      return helps;
    }, "buddy-helps received on p_s");
  } else if (plan.name == "buffer_tcp") {
    require([](const RunResult& r) { return sum_regions(r, [](const auto& s) { return double(s.buffer.evictions); }); },
            "mem.evictions");
    require([](const RunResult& r) { return double(r.transport.tcp_frames); }, "TCP frames");
  } else if (plan.name == "rep_tree_sim") {
    require([](const RunResult& r) { return double(r.subrep.frames_up); }, "subrep.frames_up");
  }
}

void write_self_time_table(const Plan& plan, const std::vector<RunResult>& traced,
                           const std::string& path, std::ostream& out) {
  if (traced.empty()) return;
  // rows[(program, rank)] = per-layer self ms, one vector entry per run.
  std::map<std::pair<char, int>, std::array<std::vector<double>, kLayers>> rows;
  for (const RunResult& r : traced) {
    for (const RankRecord* rec : ranks_of(r)) {
      const auto self = self_ms(*rec);
      auto& row = rows[{rec->program, rec->rank}];
      for (int l = 0; l < kLayers; ++l) row[static_cast<std::size_t>(l)].push_back(self[static_cast<std::size_t>(l)]);
    }
  }
  auto layer_label = [](int l) {
    return l == 0 ? std::string("app.other") : std::string(layer_name(static_cast<Layer>(l)));
  };
  std::ofstream tsv(path);
  tsv << "program\trank";
  for (int l = 0; l < kLayers; ++l) tsv << '\t' << layer_label(l) << "_ms";
  tsv << '\n';
  std::map<char, std::array<double, kLayers>> totals;
  for (const auto& [key, row] : rows) {
    tsv << key.first << '\t' << key.second;
    auto& total = totals[key.first];
    for (int l = 0; l < kLayers; ++l) {
      const double v = median(row[static_cast<std::size_t>(l)]);
      total[static_cast<std::size_t>(l)] += v;
      tsv << '\t' << fmt(v);
    }
    tsv << '\n';
  }

  out << "self time per layer (ms, median of " << traced.size()
      << " traced runs; per rank in " << path << ")\n";
  out << std::left << std::setw(14) << "who";
  for (int l = 0; l < kLayers; ++l) out << std::setw(15) << layer_label(l);
  out << '\n';
  auto print_row = [&](const std::string& who, const std::array<double, kLayers>& v) {
    out << std::setw(14) << who;
    for (double x : v) out << std::setw(15) << fmt(x);
    out << '\n';
  };
  for (const auto& [key, row] : rows) {
    const bool small = plan.exporters <= 8;
    if (small || key.first == 'I' || key.second == plan.straggler) {
      std::array<double, kLayers> v{};
      for (int l = 0; l < kLayers; ++l) v[static_cast<std::size_t>(l)] = median(row[static_cast<std::size_t>(l)]);
      print_row(std::string(1, key.first) + "/" + std::to_string(key.second) +
                    (key.first == 'E' && key.second == plan.straggler ? " p_s" : ""),
                v);
    }
  }
  for (const auto& [program, total] : totals) print_row(std::string(1, program) + " (all)", total);
}

void write_spans(const RunResult& run, const std::string& path) {
  std::ofstream tsv(path);
  tsv << "run\tprogram\trank\tspan\tparent\tlayer\tstart_ns\tend_ns\n";
  for (const RankRecord* rec : ranks_of(run)) {
    for (std::size_t i = 0; i < rec->spans.size(); ++i) {
      const Span& s = rec->spans[i];
      tsv << run.run_id << '\t' << rec->program << '\t' << rec->rank << '\t' << i << '\t' << s.parent
          << '\t' << layer_name(s.layer) << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

void print_metrics(const std::vector<Metric>& metrics, std::ostream& out) {
  for (const Metric& m : metrics)
    out << "  " << std::left << std::setw(34) << m.name << std::setw(22) << fmt(m.value) << m.unit << '\n';
}

std::string result_json(const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (verdict.correct() ? "true" : "false")
     << ", \"attempted\": " << verdict.attempted << ", \"failed\": " << verdict.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace pb
