// The representative (rep) process body (paper §4).
//
// Each program runs one extra low-overhead control process. For regions
// the program exports, the rep forwards import requests to all worker
// processes, aggregates their MATCH/NO-MATCH/PENDING responses under the
// collective-operation legality rules, answers the importing program, and
// issues buddy-help to still-PENDING workers. For regions the program
// imports, it relays requests outward and broadcasts answers inward. It
// also drives startup region-geometry exchange and coordinated shutdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/layout.hpp"
#include "core/options.hpp"
#include "core/protocol.hpp"
#include "runtime/process_context.hpp"

namespace ccf::core {

/// Fixed rep-shard counters; shards fold with sum_counters (core/stats.hpp).
struct RepCounters {
  std::uint64_t requests_forwarded = 0;
  std::uint64_t answers_sent = 0;
  std::uint64_t buddy_helps_sent = 0;
  std::uint64_t responses_received = 0;
  // Failure-tolerance accounting (all zero on a lossless fabric).
  std::uint64_t duplicates_ignored = 0;  ///< duplicate control messages absorbed
  std::uint64_t answers_resent = 0;      ///< cached answers replayed for retries
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t meta_resends = 0;        ///< geometry re-shipped after a nudge
  std::uint64_t forward_resends = 0;     ///< ProcForwards re-sent to silent ranks

  // Collective BufferPressure accounting (docs/MEMORY.md; zero unless a
  // memory budget is configured somewhere in the coupled system).
  std::uint64_t pressure_signals = 0;    ///< ProcPressure edges from own procs
  std::uint64_t pressure_notices = 0;    ///< Pressure notes sent to importer reps
  std::uint64_t pressure_broadcasts = 0; ///< PressureBcast fan-outs to own procs

  // Control-tree accounting (docs/PROTOCOL.md; a depth-0 tree leaves
  // frames_* zero and makes wire_in the plain inbound message count).
  std::uint64_t wire_in = 0;             ///< inbound control wire messages
  std::uint64_t frames_in = 0;           ///< batched up-frames among them
  std::uint64_t frame_entries_in = 0;    ///< entries unpacked from up-frames
  std::uint64_t frames_out = 0;          ///< batched down-frames emitted
  std::uint64_t frame_entries_out = 0;   ///< entries packed into down-frames
};

struct RepResult : RepCounters {
  /// Observation hook: every collective answer determined on exported
  /// connections, ordered by (connection, seq). The model-checking
  /// conformance checker compares this against the oracle.
  std::vector<AnswerMsg> answers;
};

/// Runs rep shard `shard` to completion. Intended as the process body for
/// the program's rep slot(s) in the deployment layout. A shard owns the
/// connections with `conn % shards == shard`; with the default single
/// shard that is every connection.
RepResult run_rep(runtime::ProcessContext& ctx, const Config& config,
                  const DeploymentLayout& layout, const std::string& program_name,
                  FrameworkOptions options = {}, int shard = 0);

}  // namespace ccf::core
