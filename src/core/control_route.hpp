// Where a worker process sends its control traffic (docs/PROTOCOL.md,
// "Hierarchical representatives").
//
// Upward, a worker talks to its parent in the program's control tree: its
// leaf sub-rep, or — in the depth-0 (flat) tree — the root, the rep shard
// set, where connection c is owned by shard c % shards. A sub-rep batches
// entries into control frames and routes them to the right shard at the
// top of the tree. A worker whose sub-rep stops relaying (departure
// detection) re-parents by clearing `has_parent`, falling back to the
// root.
#pragma once

#include "transport/message.hpp"

namespace ccf::core {

using transport::ProcId;

struct ControlRoute {
  ProcId base = 0;     ///< id of rep shard 0
  int shards = 1;      ///< shard count; shard s has id base + s
  ProcId parent = 0;   ///< leaf sub-rep id, valid when has_parent
  bool has_parent = false;

  /// Destination for a control message scoped to connection `conn`.
  ProcId up_conn(int conn) const { return has_parent ? parent : base + conn % shards; }

  /// Destination for a message bound for shard `s` specifically.
  ProcId up_shard(int s) const { return has_parent ? parent : base + s; }

  /// Receive filter for rep->proc control traffic: the parent sub-rep, or
  /// the whole contiguous shard range.
  transport::MatchSpec control_match() const {
    if (has_parent) return transport::MatchSpec{parent, transport::kAnyTag};
    return transport::MatchSpec{base, transport::kAnyTag, shards};
  }
};

}  // namespace ccf::core
