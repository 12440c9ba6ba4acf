// Deployment layout: assigns global ProcIds to every program's processes,
// its representative (rep) shards, and its control-tree sub-reps.
//
// Program i's worker processes occupy a contiguous id block followed by its
// S rep shard ids and then its sub-rep ids, in config order. Every
// participant derives the same layout from the shared Config, so no id
// exchange is needed at startup.
//
// Control tree (docs/PROTOCOL.md, "Hierarchical representatives"): level 0
// holds the worker ranks, levels 1..depth() the sub-reps, and the root is
// the set of rep shards. With fan-in F, node (l, i) covers ranks
// [i·F^l, (i+1)·F^l) and its children are nodes [i·F, (i+1)·F) of level
// l−1; levels are added until one node, the root, covers every rank. The
// paper's flat rep (fan-in 0, or nprocs <= F) is the depth-0 tree: every
// worker is a child of the root. Nodes are computed, never stored; sub-rep
// ids run leaf level first, then level by level.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "transport/message.hpp"

namespace ccf::core {

using transport::ProcId;

/// A node of a program's control tree: (level, index). Level 0 indexes
/// worker ranks, levels 1..depth() sub-reps, and level depth()+1 (index 0)
/// is the root, the rep shard set.
struct TreeNode {
  int level = 0;
  int index = 0;
  friend bool operator==(const TreeNode&, const TreeNode&) = default;
};

struct ProgramLayout {
  /// Lays out `spec`'s processes from id `first` on.
  ProgramLayout(const ProgramSpec& spec, ProcId first);

  std::string name;
  int nprocs = 0;
  ProcId first = 0;  ///< id of rank 0
  ProcId rep = 0;    ///< id of the representative process (shard 0)
  int shards = 1;    ///< rep shard count; shard s has id rep + s
  int flush_count = 0;  ///< partial-frame flush after N entries, 0 = per wave
  ProcId subrep_first = 0;  ///< id of sub-rep 0 (the first leaf-level node)

  ProcId proc(int rank) const;
  std::vector<ProcId> proc_ids() const;

  ProcId shard_id(int s) const { return rep + s; }

  /// The rep shard owning connection `conn` (conn % shards).
  ProcId control_target(int conn) const { return rep + conn % shards; }

  /// Sub-rep levels between the workers and the root; 0 when flat.
  int depth() const { return static_cast<int>(span_.size()) - 2; }
  TreeNode root() const { return TreeNode{depth() + 1, 0}; }
  bool is_root(TreeNode n) const { return n.level == depth() + 1; }

  /// Nodes on `level` (level 0: nprocs; the root level: 1).
  int nodes_at(int level) const;
  /// Total sub-rep count; sub-rep k has id subrep_first + k.
  int subrep_count() const { return level_first_.back(); }
  /// Sub-rep `k` (id order) as a tree node.
  TreeNode subrep_node(int k) const;

  /// Process id of a node below the root: a worker or a sub-rep.
  ProcId id(TreeNode n) const;
  /// Parent of a node below the root.
  TreeNode parent(TreeNode n) const;
  /// Children of a node above level 0: nodes [begin, end) of level − 1.
  struct Range {
    int begin = 0;
    int end = 0;
  };
  Range children(TreeNode n) const;
  /// Index on level − 1 of the child of `n` whose subtree holds `rank`, or
  /// -1 when `rank` lies outside the subtree of `n`.
  int child_toward(TreeNode n, int rank) const;

 private:
  int fanin_ = 0;  ///< children per node; flat: every rank under the root
  std::vector<std::int64_t> span_;  ///< ranks a level-l node covers, root level included
  std::vector<int> level_first_;    ///< sub-rep index of node (l, 0) is level_first_[l-1]
};

class DeploymentLayout {
 public:
  explicit DeploymentLayout(const Config& config);

  const ProgramLayout& program(const std::string& name) const;

  /// Total ids consumed (workers + rep shards + sub-reps); ids are [0, total).
  ProcId total_processes() const { return next_id_; }

 private:
  std::vector<ProgramLayout> programs_;
  ProcId next_id_ = 0;
};

}  // namespace ccf::core
