// Sub-representative: one node of a program's control aggregation tree
// (docs/PROTOCOL.md, "Hierarchical representatives").
//
// A sub-rep is a stateless batching relay. Upward, it drains the control
// messages of its children after each blocking receive (in virtual time,
// collective responses arrive in simultaneous waves) and coalesces them
// into one batched frame per destination — so the rep's inbound wire
// traffic per collective wave is bounded by its fan-in, not the program's
// rank count. Entries keep their originating worker rank, so the rep's
// per-rank aggregation state (silent-rank tracking, meta acks, shutdown
// gating) stays exact. Downward, it routes each relayed frame's entries
// through its DownFanout (core/fanout.hpp): frames for sub-rep children,
// plain per-proc control messages at the leaf level; workers never see
// frames.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/layout.hpp"
#include "core/options.hpp"
#include "runtime/process_context.hpp"

namespace ccf::core {

struct SubRepResult {
  std::uint64_t wire_in = 0;       ///< inbound wire messages
  std::uint64_t frames_up = 0;     ///< batched frames sent toward the rep
  std::uint64_t entries_up = 0;    ///< entries carried in those frames
  std::uint64_t frames_down = 0;   ///< frames relayed/unwrapped downward
  std::uint64_t entries_down = 0;  ///< entries delivered downward
};

/// Runs tree node `node_index` of `program_name` to completion. Exits after
/// relaying the ShutdownProc broadcast of every rep shard, on sustained
/// silence from above (failure-tolerant mode; its children re-parent), or
/// at the configured debug kill time.
SubRepResult run_subrep(runtime::ProcessContext& ctx, const Config& config,
                        const DeploymentLayout& layout, const std::string& program_name,
                        int node_index, FrameworkOptions options = {});

}  // namespace ccf::core
