#include "core/fanout.hpp"

#include <utility>

namespace ccf::core {

DownFanout::DownFanout(runtime::ProcessContext& ctx, const ProgramLayout& pl, TreeNode node)
    : ctx_(ctx), pl_(pl), node_(node), children_(pl.children(node)) {
  if (node_.level > 1) frames_.resize(static_cast<std::size_t>(children_.end - children_.begin));
}

void DownFanout::bcast(transport::Tag tag, const transport::Payload& payload) {
  if (frames_.empty()) {
    for (int r = children_.begin; r < children_.end; ++r) ctx_.send(pl_.proc(r), tag, payload);
    counts_.plain += static_cast<std::uint64_t>(children_.end - children_.begin);
    return;
  }
  for (int c = children_.begin; c < children_.end; ++c) {
    push(c, FrameEntry{kFrameBroadcast, tag, payload});
  }
  for (int r : direct_) ctx_.send(pl_.proc(r), tag, payload);
  counts_.plain += direct_.size();
}

void DownFanout::to_rank(int rank, transport::Tag tag, const transport::Payload& payload) {
  const int child = pl_.child_toward(node_, rank);
  if (child < 0) return;
  if (frames_.empty() || direct_.count(rank)) {
    ctx_.send(pl_.proc(rank), tag, payload);
    ++counts_.plain;
    return;
  }
  push(child, FrameEntry{rank, tag, payload});
}

void DownFanout::push(int child, FrameEntry e) {
  const auto i = static_cast<std::size_t>(child - children_.begin);
  frames_[i].push_back(std::move(e));
  if (pl_.flush_count > 0 && frames_[i].size() >= static_cast<std::size_t>(pl_.flush_count)) {
    flush_child(i);
  }
}

void DownFanout::flush_child(std::size_t i) {
  if (frames_[i].empty()) return;
  ctx_.send(pl_.id(TreeNode{node_.level - 1, children_.begin + static_cast<int>(i)}),
            kTagTreeDown, encode_frame(frames_[i]));
  ++counts_.frames;
  counts_.frame_entries += frames_[i].size();
  frames_[i].clear();
}

void DownFanout::flush() {
  for (std::size_t i = 0; i < frames_.size(); ++i) flush_child(i);
}

void DownFanout::mark_direct(int rank) {
  if (!frames_.empty()) direct_.insert(rank);
}

}  // namespace ccf::core
