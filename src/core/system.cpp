#include "core/system.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/result_codec.hpp"
#include "util/check.hpp"

namespace ccf::core {

namespace {

/// Folds per-shard rep results into one program-wide view: counters are
/// summed and answers re-grouped by connection (each shard already lists
/// its owned connections' answers in determination order, so a stable sort
/// by connection reproduces the single-shard ordering).
RepResult merge_rep_shards(const std::vector<RepResult>& shards) {
  RepResult merged;
  for (const RepResult& s : shards) {
    merged.requests_forwarded += s.requests_forwarded;
    merged.answers_sent += s.answers_sent;
    merged.buddy_helps_sent += s.buddy_helps_sent;
    merged.responses_received += s.responses_received;
    merged.duplicates_ignored += s.duplicates_ignored;
    merged.answers_resent += s.answers_resent;
    merged.heartbeats_sent += s.heartbeats_sent;
    merged.meta_resends += s.meta_resends;
    merged.forward_resends += s.forward_resends;
    merged.pressure_signals += s.pressure_signals;
    merged.pressure_notices += s.pressure_notices;
    merged.pressure_broadcasts += s.pressure_broadcasts;
    merged.wire_in += s.wire_in;
    merged.frames_in += s.frames_in;
    merged.frame_entries_in += s.frame_entries_in;
    merged.frames_out += s.frames_out;
    merged.frame_entries_out += s.frame_entries_out;
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
      ProcSlot* slot = &slots_[name][static_cast<std::size_t>(rank)];
      ProgramBody* body = &bodies_[name];
      cluster->add_process(
          pl.proc(rank),
          [this, name, rank, slot, body](runtime::ProcessContext& ctx) {
            CouplingRuntime rt(ctx, config_, layout_, name, rank, framework_options_);
            (*body)(rt, ctx);
            slot->stats = rt.stats_snapshot();
            for (const auto& stats : slot->stats.exports) {
              slot->traces[stats.region] = rt.trace_listing(stats.region);
              slot->events[stats.region] = rt.trace_events(stats.region);
            }
          },
          runtime::ResultChannel{
              [slot] { return encode_proc_result(slot->stats, slot->traces, slot->events); },
              [slot](const std::vector<std::byte>& bytes) {
                decode_proc_result(bytes, slot->stats, slot->traces, slot->events);
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
    SubRepResult& total = subrep_results_[name];
    for (const SubRepResult& n : nodes) {
      total.wire_in += n.wire_in;
      total.frames_up += n.frames_up;
      total.entries_up += n.entries_up;
      total.frames_down += n.frames_down;
      total.entries_down += n.entries_down;
    }
  }
}

const ProcStats& CoupledSystem::proc_stats(const std::string& program, int rank) const {
  auto it = slots_.find(program);
  CCF_REQUIRE(it != slots_.end(), "unknown program '" << program << "'");
  CCF_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < it->second.size(),
              "rank " << rank << " outside program " << program);
  return it->second[static_cast<std::size_t>(rank)].stats;
}

const std::string& CoupledSystem::trace_listing(const std::string& program, int rank,
                                                const std::string& region) const {
  static const std::string kEmpty;
  auto it = slots_.find(program);
  CCF_REQUIRE(it != slots_.end(), "unknown program '" << program << "'");
  CCF_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < it->second.size(),
              "rank " << rank << " outside program " << program);
  const auto& traces = it->second[static_cast<std::size_t>(rank)].traces;
  auto t = traces.find(region);
  return t == traces.end() ? kEmpty : t->second;
}

const std::vector<TraceEvent>& CoupledSystem::trace_events(const std::string& program, int rank,
                                                           const std::string& region) const {
  static const std::vector<TraceEvent> kEmpty;
  auto it = slots_.find(program);
  CCF_REQUIRE(it != slots_.end(), "unknown program '" << program << "'");
  CCF_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < it->second.size(),
              "rank " << rank << " outside program " << program);
  const auto& events = it->second[static_cast<std::size_t>(rank)].events;
  auto t = events.find(region);
  return t == events.end() ? kEmpty : t->second;
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
