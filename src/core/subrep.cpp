#include "core/subrep.hpp"

#include <cstdlib>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/fanout.hpp"
#include "core/protocol.hpp"
#include "util/check.hpp"

namespace ccf::core {

using runtime::MatchSpec;
using runtime::Message;
using transport::kAnyProc;
using transport::kAnyTag;
using transport::Reader;

namespace {

/// Mutation-catch hook (tests/modelcheck): when set, the relay silently
/// drops every 3rd upward entry, breaking batched-answer coalescing. The
/// conformance gate must flag the resulting divergence.
bool mutate_tree() {
  static const bool on = std::getenv("CCF_MC_MUTATE_TREE") != nullptr;
  return on;
}

/// First u32 of a payload, 0 for payloads too short to carry one. All
/// conn-scoped control messages lead with their u32 conn; MetaAck leads
/// with its target shard.
std::uint32_t leading_u32(const transport::Payload& p) {
  if (p.size() < sizeof(std::uint32_t)) return 0;
  Reader r(p);
  return r.get<std::uint32_t>();
}

/// True for upward tags every shard needs a copy of (not scoped to one
/// connection): region definitions, meta nudges, and per-process pressure
/// level changes.
bool all_shard_tag(transport::Tag tag) {
  return tag == kTagRegionDefs || tag == kTagMetaNudge || tag == kTagProcPressure;
}

}  // namespace

SubRepResult run_subrep(runtime::ProcessContext& ctx, const Config& config,
                        const DeploymentLayout& layout, const std::string& program_name,
                        int node_index, FrameworkOptions options) {
  (void)config;
  const ProgramLayout& pl = layout.program(program_name);
  const TreeNode node = pl.subrep_node(node_index);
  CCF_REQUIRE(ctx.id() == pl.subrep_first + node_index,
              "sub-rep body running on wrong process id");
  const TreeNode parent = pl.parent(node);
  const bool top = pl.is_root(parent);

  const bool tolerant = options.failure_tolerance();
  const bool kill_me = options.debug_kill_subrep == node_index &&
                       options.debug_kill_subrep_program == program_name;

  SubRepResult res;
  DownFanout down(ctx, pl, node);
  std::uint64_t up_seq = 0;  ///< mutation hook counter
  std::set<int> shutdown_shards;
  double last_down_seen = ctx.now();

  // Upward coalescing buffers: one frame per destination per wave. Interior
  // nodes have a single destination (the parent node); top nodes route
  // per rep shard. With pipelined aggregation (flush_count) a
  // destination's partial frame ships as soon as the threshold fills, so
  // the parent starts dispatching entries while this node is still
  // draining its wave; the wave-end flush keeps liveness.
  std::vector<std::vector<FrameEntry>> up(top ? static_cast<std::size_t>(pl.shards) : 1);

  auto flush_dest = [&](std::size_t d) {
    if (up[d].empty()) return;
    const ProcId dest = top ? pl.shard_id(static_cast<int>(d)) : pl.id(parent);
    ctx.send(dest, kTagTreeUp, encode_frame(up[d]));
    ++res.frames_up;
    res.entries_up += up[d].size();
    up[d].clear();
  };

  auto push_to = [&](std::size_t d, FrameEntry e) {
    up[d].push_back(std::move(e));
    if (pl.flush_count > 0 && up[d].size() >= static_cast<std::size_t>(pl.flush_count)) {
      flush_dest(d);
    }
  };

  auto push_up = [&](FrameEntry e) {
    if (mutate_tree() && (++up_seq % 3 == 0)) return;  // drop every 3rd entry
    if (!top) {
      push_to(0, std::move(e));
    } else if (all_shard_tag(e.tag)) {
      for (std::size_t d = 0; d < up.size(); ++d) push_to(d, e);  // payload shared, zero-copy
    } else {
      const std::size_t shard = leading_u32(e.payload) % up.size();
      push_to(shard, std::move(e));
    }
  };

  auto flush_up = [&] {
    for (std::size_t d = 0; d < up.size(); ++d) flush_dest(d);
  };

  auto relay_down = [&](const Message& m) {
    last_down_seen = ctx.now();
    const std::vector<FrameEntry> entries = decode_frame(m.payload);
    ++res.frames_down;
    // Dispatch cost scales with the entries carried, not the wire frames
    // they ride in: batching changes the framing, never the modeled work.
    if (options.rep_dispatch_seconds > 0 && !entries.empty()) {
      ctx.compute(options.rep_dispatch_seconds * static_cast<double>(entries.size()));
    }
    for (const FrameEntry& e : entries) {
      if (e.rank == kFrameBroadcast) {
        if (e.tag == kTagShutdownProc) {
          shutdown_shards.insert(static_cast<int>(leading_u32(e.payload)));
        }
        down.bcast(e.tag, e.payload);
      } else {
        down.to_rank(e.rank, e.tag, e.payload);
      }
    }
    // Ship what this frame brought before taking the next one: batching
    // downward happens at the rep, not across a sub-rep's wave.
    down.flush();
  };

  auto process = [&](const Message& m) {
    ++res.wire_in;
    if (m.tag == kTagTreeDown) {
      relay_down(m);  // charges dispatch per entry after decoding
    } else if (m.tag == kTagTreeUp) {
      // A child sub-rep's batch: re-route its entries (merging waves).
      std::vector<FrameEntry> entries = decode_frame(m.payload);
      if (options.rep_dispatch_seconds > 0 && !entries.empty()) {
        ctx.compute(options.rep_dispatch_seconds * static_cast<double>(entries.size()));
      }
      for (FrameEntry& e : entries) push_up(std::move(e));
    } else {
      if (options.rep_dispatch_seconds > 0) ctx.compute(options.rep_dispatch_seconds);
      // Plain control message from one of our worker children.
      CCF_CHECK(m.src >= pl.first && m.src < pl.first + pl.nprocs,
                "sub-rep of " << program_name << " got tag " << m.tag
                              << " from non-child process " << m.src);
      push_up(FrameEntry{static_cast<std::int32_t>(m.src - pl.first), m.tag, m.payload});
    }
  };

  while (static_cast<int>(shutdown_shards.size()) < pl.shards) {
    std::optional<Message> m;
    if (tolerant || kill_me) {
      double deadline = tolerant ? last_down_seen + options.departure_window_seconds() : 1e300;
      if (kill_me && options.debug_kill_subrep_at < deadline) {
        deadline = options.debug_kill_subrep_at;
      }
      m = ctx.recv_until(MatchSpec{kAnyProc, kAnyTag}, deadline);
      // No message: either the debug kill time (silent death) or nothing
      // from above for a whole departure window — the rep layer is gone
      // (or this node was partitioned off). Exit; the children detect the
      // same silence and re-parent onto the shards.
      if (!m) break;
    } else {
      m = ctx.recv(MatchSpec{kAnyProc, kAnyTag});
    }
    process(*m);
    // Drain the rest of the wave before flushing: simultaneous arrivals
    // coalesce into one frame per destination.
    while (auto more = ctx.try_recv(MatchSpec{kAnyProc, kAnyTag})) process(*more);
    flush_up();
  }
  res.entries_down = down.counts().plain + down.counts().frame_entries;
  return res;
}

}  // namespace ccf::core
