#include "core/system.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/result_codec.hpp"
#include "util/check.hpp"

namespace ccf::core {

namespace {

/// Folds per-shard rep results into one program-wide view: counters are
/// summed and answers re-grouped by connection (each shard already lists
/// its owned connections' answers in seq order, so a stable sort by
/// connection reproduces the single-shard ordering).
RepResult merge_rep_shards(const std::vector<RepResult>& shards) {
  RepResult merged;
  static_cast<RepCounters&>(merged) = sum_counters<RepCounters>(shards);
  for (const RepResult& s : shards) {
    merged.answers.insert(merged.answers.end(), s.answers.begin(), s.answers.end());
  }
  std::stable_sort(merged.answers.begin(), merged.answers.end(),
                   [](const AnswerMsg& a, const AnswerMsg& b) { return a.conn < b.conn; });
  return merged;
}

}  // namespace

CoupledSystem::CoupledSystem(Config config, runtime::ClusterOptions cluster_options,
                             FrameworkOptions framework_options)
    : config_(std::move(config)),
      cluster_options_(cluster_options),
      framework_options_(framework_options),
      layout_(config_) {
  config_.validate();
  runtime::apply_env_overrides(cluster_options_);
  configure_transport();
  for (const auto& prog : config_.programs()) {
    slots_[prog.name].resize(static_cast<std::size_t>(prog.nprocs));
    rep_results_[prog.name] = RepResult{};
    subrep_results_[prog.name] = SubRepResult{};
  }
}

void CoupledSystem::configure_transport() {
  // Forked children cannot share the in-memory fabric; make the selection
  // visible here so transport_kind() and the maps below agree with what
  // ProcessCluster will actually run.
  if (cluster_options_.mode == runtime::ExecutionMode::RealProcesses) {
    cluster_options_.transport.kind = transport::TransportKind::Real;
  }

  // Node assignment (docs/DEPLOY.md): CCF_NODES=split puts every program
  // on its own node; the default ("hosts") maps each distinct config host
  // string to one node, so the config's deployment section chooses which
  // pairs ride SHM and which ride TCP.
  const char* env = std::getenv("CCF_NODES");
  const std::string nodes = env == nullptr ? "" : env;
  CCF_REQUIRE(nodes.empty() || nodes == "hosts" || nodes == "split",
              "CCF_NODES must be 'hosts' or 'split', got '" << nodes << "'");
  const bool split = nodes == "split";

  std::map<std::string, int> host_node;
  auto& t = cluster_options_.transport;
  for (std::size_t i = 0; i < config_.programs().size(); ++i) {
    const ProgramSpec& prog = config_.programs()[i];
    int node = 0;
    if (split) {
      node = static_cast<int>(i);
    } else {
      node = host_node.try_emplace(prog.host, static_cast<int>(host_node.size())).first->second;
    }
    program_node_[prog.name] = node;

    const ProgramLayout& pl = layout_.program(prog.name);
    for (int rank = 0; rank < pl.nprocs; ++rank) {
      t.node_of.try_emplace(pl.proc(rank), node);
      t.identity.try_emplace(pl.proc(rank), prog.name + "/" + std::to_string(rank));
    }
    for (int s = 0; s < pl.shards; ++s) {
      t.node_of.try_emplace(pl.shard_id(s), node);
      t.identity.try_emplace(pl.shard_id(s), prog.name + "/rep" + std::to_string(s));
    }
    for (int k = 0; k < pl.subrep_count(); ++k) {
      const ProcId id = pl.subrep_first + k;
      t.node_of.try_emplace(id, node);
      t.identity.try_emplace(id, prog.name + "/sub" + std::to_string(k));
    }
  }
}

const char* CoupledSystem::clock() const {
  return cluster_options_.mode == runtime::ExecutionMode::VirtualTime ? "virtual" : "wall";
}

std::string CoupledSystem::transport_kind(const std::string& program) const {
  CCF_REQUIRE(config_.has_program(program), "unknown program '" << program << "'");
  const bool modeled =
      cluster_options_.mode == runtime::ExecutionMode::VirtualTime ||
      cluster_options_.transport.kind == transport::TransportKind::InMemory;
  if (modeled) return "sim";
  const int node = program_node_.at(program);
  for (int c : config_.connections_of_exporter_program(program)) {
    if (program_node_.at(config_.connections()[static_cast<std::size_t>(c)].importer_program) !=
        node) {
      return "tcp";
    }
  }
  for (int c : config_.connections_of_importer_program(program)) {
    if (program_node_.at(config_.connections()[static_cast<std::size_t>(c)].exporter_program) !=
        node) {
      return "tcp";
    }
  }
  return "shm";
}

void CoupledSystem::set_program_body(const std::string& program, ProgramBody body) {
  CCF_REQUIRE(config_.has_program(program), "no program '" << program << "' in config");
  CCF_REQUIRE(body != nullptr, "program body must be callable");
  bodies_[program] = std::move(body);
}

void CoupledSystem::run() {
  CCF_REQUIRE(!ran_, "run() called twice");
  for (const auto& prog : config_.programs()) {
    CCF_REQUIRE(bodies_.count(prog.name), "program '" << prog.name << "' has no body");
  }
  ran_ = true;

  auto cluster = runtime::make_cluster(cluster_options_);
  for (const auto& prog : config_.programs()) {
    const ProgramLayout& pl = layout_.program(prog.name);
    for (int rank = 0; rank < pl.nprocs; ++rank) {
      const std::string name = prog.name;
      ProcStats* slot = &slots_[name][static_cast<std::size_t>(rank)];
      ProgramBody* body = &bodies_[name];
      cluster->add_process(
          pl.proc(rank),
          [this, name, rank, slot, body](runtime::ProcessContext& ctx) {
            CouplingRuntime rt(ctx, config_, layout_, name, rank, framework_options_);
            (*body)(rt, ctx);
            *slot = rt.stats_snapshot();
          },
          runtime::ResultChannel{[slot] { return encode_proc_result(*slot); },
                                 [slot](const std::vector<std::byte>& bytes) {
                                   *slot = decode_proc_result(bytes);
                                 }});
    }
    const std::string name = prog.name;
    auto& shard_slots = rep_shard_results_[name];
    shard_slots.resize(static_cast<std::size_t>(pl.shards));
    for (int s = 0; s < pl.shards; ++s) {
      RepResult* shard_slot = &shard_slots[static_cast<std::size_t>(s)];
      cluster->add_process(
          pl.shard_id(s),
          [this, name, s, shard_slot](runtime::ProcessContext& ctx) {
            *shard_slot = run_rep(ctx, config_, layout_, name, framework_options_, s);
          },
          runtime::ResultChannel{
              [shard_slot] { return encode_rep_result(*shard_slot); },
              [shard_slot](const std::vector<std::byte>& bytes) {
                *shard_slot = decode_rep_result(bytes);
              }});
    }
    auto& node_slots = subrep_node_results_[name];
    node_slots.resize(static_cast<std::size_t>(pl.subrep_count()));
    for (int node = 0; node < pl.subrep_count(); ++node) {
      SubRepResult* node_slot = &node_slots[static_cast<std::size_t>(node)];
      cluster->add_process(
          pl.subrep_first + node,
          [this, name, node, node_slot](runtime::ProcessContext& ctx) {
            *node_slot = run_subrep(ctx, config_, layout_, name, node, framework_options_);
          },
          runtime::ResultChannel{
              [node_slot] { return encode_subrep_result(*node_slot); },
              [node_slot](const std::vector<std::byte>& bytes) {
                *node_slot = decode_subrep_result(bytes);
              }});
    }
  }
  cluster->run();
  end_time_ = cluster->end_time();
  transport_counters_ = cluster->transport_counters();
  for (auto& [name, shards] : rep_shard_results_) {
    rep_results_[name] = merge_rep_shards(shards);
  }
  for (auto& [name, nodes] : subrep_node_results_) {
    subrep_results_[name] = sum_counters<SubRepResult>(nodes);
  }
}

const ProcStats& CoupledSystem::proc_stats(const std::string& program, int rank) const {
  auto it = slots_.find(program);
  CCF_REQUIRE(it != slots_.end(), "unknown program '" << program << "'");
  CCF_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < it->second.size(),
              "rank " << rank << " outside program " << program);
  return it->second[static_cast<std::size_t>(rank)];
}

std::string CoupledSystem::trace_listing(const std::string& program, int rank,
                                         const std::string& region) const {
  return render_trace_listing(trace_events(program, rank, region));
}

const std::vector<TraceEvent>& CoupledSystem::trace_events(const std::string& program, int rank,
                                                           const std::string& region) const {
  static const std::vector<TraceEvent> kEmpty;
  for (const ExportRegionStats& e : proc_stats(program, rank).exports) {
    if (e.region == region) return e.trace_events;
  }
  return kEmpty;
}

const RepResult& CoupledSystem::rep_result(const std::string& program) const {
  auto it = rep_results_.find(program);
  CCF_REQUIRE(it != rep_results_.end(), "unknown program '" << program << "'");
  return it->second;
}

const SubRepResult& CoupledSystem::subrep_result(const std::string& program) const {
  auto it = subrep_results_.find(program);
  CCF_REQUIRE(it != subrep_results_.end(), "unknown program '" << program << "'");
  return it->second;
}

}  // namespace ccf::core
