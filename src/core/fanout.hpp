// Downward router of one control-tree node (docs/PROTOCOL.md,
// "Hierarchical representatives"). The rep shards at the root and every
// sub-rep send all their downward control traffic through a DownFanout.
//
// Worker children get plain messages. Sub-rep children get TreeDown
// frames: entries are buffered per child and ship on flush(), or as soon
// as a child's buffer holds the layout's flush_count entries — so a
// broadcast costs a node one wire message per child, never one per rank
// of its subtree. A rank marked direct (it re-parented onto the root
// after its sub-rep stopped relaying) gets plain messages, and broadcasts
// reach it both directly and through the tree. Entries for ranks outside
// the node's subtree are dropped.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "core/layout.hpp"
#include "core/protocol.hpp"
#include "runtime/process_context.hpp"

namespace ccf::core {

class DownFanout {
 public:
  /// Routes for `node` of `pl`'s tree: its root or one of its sub-reps.
  DownFanout(runtime::ProcessContext& ctx, const ProgramLayout& pl, TreeNode node);

  /// Sends to every worker rank of the node's subtree.
  void bcast(transport::Tag tag, const transport::Payload& payload);

  /// Sends to worker `rank`; dropped when `rank` is outside the subtree.
  void to_rank(int rank, transport::Tag tag, const transport::Payload& payload);

  /// Ships every buffered frame.
  void flush();

  /// Serves `rank` with plain messages from now on. Only a node whose
  /// children are sub-reps has ranks to mark; elsewhere a no-op.
  void mark_direct(int rank);

  struct Counts {
    std::uint64_t frames = 0;         ///< TreeDown frames shipped
    std::uint64_t frame_entries = 0;  ///< entries packed into those frames
    std::uint64_t plain = 0;          ///< plain messages sent to workers
  };
  const Counts& counts() const { return counts_; }

 private:
  void push(int child, FrameEntry e);
  void flush_child(std::size_t i);

  runtime::ProcessContext& ctx_;
  const ProgramLayout& pl_;
  TreeNode node_;
  ProgramLayout::Range children_;  ///< on level node_.level - 1
  std::vector<std::vector<FrameEntry>> frames_;  ///< per sub-rep child; empty for workers
  std::set<int> direct_;
  Counts counts_;
};

}  // namespace ccf::core
