#include "core/layout.hpp"

#include <algorithm>
#include <cstdint>

#include "util/check.hpp"

namespace ccf::core {

namespace {

int ceil_div(int a, std::int64_t b) { return static_cast<int>((a + b - 1) / b); }

}  // namespace

ProgramLayout::ProgramLayout(const ProgramSpec& spec, ProcId first_id)
    : name(spec.name),
      nprocs(spec.nprocs),
      first(first_id),
      rep(first_id + spec.nprocs),
      shards(spec.rep_shards),
      flush_count(spec.tree_flush_count),
      subrep_first(rep + spec.rep_shards),
      fanin_(spec.rep_fanin >= 2 ? spec.rep_fanin : spec.nprocs),
      span_{1},
      level_first_{0} {
  // Add levels bottom-up until one node covers every rank: the root.
  do {
    span_.push_back(span_.back() * fanin_);
  } while (span_.back() < nprocs);
  for (int level = 1; level <= depth(); ++level) {
    level_first_.push_back(level_first_.back() + nodes_at(level));
  }
}

ProcId ProgramLayout::proc(int rank) const {
  CCF_REQUIRE(rank >= 0 && rank < nprocs,
              "rank " << rank << " outside program " << name << " (nprocs " << nprocs << ")");
  return first + rank;
}

std::vector<ProcId> ProgramLayout::proc_ids() const {
  std::vector<ProcId> ids;
  ids.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) ids.push_back(first + r);
  return ids;
}

int ProgramLayout::nodes_at(int level) const {
  CCF_REQUIRE(level >= 0 && level <= depth() + 1, "tree level " << level << " outside " << name);
  return ceil_div(nprocs, span_[static_cast<std::size_t>(level)]);
}

TreeNode ProgramLayout::subrep_node(int k) const {
  CCF_REQUIRE(k >= 0 && k < subrep_count(), "sub-rep " << k << " outside tree of " << name);
  const auto above = std::upper_bound(level_first_.begin(), level_first_.end(), k);
  const int level = static_cast<int>(above - level_first_.begin());
  return TreeNode{level, k - level_first_[static_cast<std::size_t>(level - 1)]};
}

ProcId ProgramLayout::id(TreeNode n) const {
  CCF_REQUIRE(n.level >= 0 && n.level <= depth() && n.index >= 0 && n.index < nodes_at(n.level),
              "no process at tree node (" << n.level << ", " << n.index << ") of " << name);
  if (n.level == 0) return proc(n.index);
  return subrep_first + level_first_[static_cast<std::size_t>(n.level - 1)] + n.index;
}

TreeNode ProgramLayout::parent(TreeNode n) const {
  CCF_REQUIRE(n.level >= 0 && n.level <= depth(), "the root of " << name << " has no parent");
  return TreeNode{n.level + 1, n.index / fanin_};
}

ProgramLayout::Range ProgramLayout::children(TreeNode n) const {
  CCF_REQUIRE(n.level >= 1 && n.level <= depth() + 1,
              "tree level " << n.level << " of " << name << " has no children");
  return Range{n.index * fanin_, std::min((n.index + 1) * fanin_, nodes_at(n.level - 1))};
}

int ProgramLayout::child_toward(TreeNode n, int rank) const {
  CCF_REQUIRE(n.level >= 1 && n.level <= depth() + 1,
              "tree level " << n.level << " of " << name << " has no children");
  const std::int64_t span = span_[static_cast<std::size_t>(n.level)];
  if (rank < 0 || rank >= nprocs || rank < span * n.index || rank >= span * (n.index + 1)) {
    return -1;
  }
  return static_cast<int>(rank / span_[static_cast<std::size_t>(n.level - 1)]);
}

DeploymentLayout::DeploymentLayout(const Config& config) {
  for (const auto& spec : config.programs()) {
    const ProgramLayout& layout = programs_.emplace_back(spec, next_id_);
    next_id_ = layout.subrep_first + layout.subrep_count();
  }
}

const ProgramLayout& DeploymentLayout::program(const std::string& name) const {
  for (const auto& p : programs_) {
    if (p.name == name) return p;
  }
  throw util::InvalidArgument("unknown program '" + name + "' in layout");
}

}  // namespace ccf::core
