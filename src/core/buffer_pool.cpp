#include "core/buffer_pool.hpp"

#include <algorithm>
#include <cstring>

#include "transport/serialize.hpp"
#include "util/check.hpp"

namespace ccf::core {

namespace {
constexpr std::size_t kPrefix = transport::kLengthPrefixBytes;
}  // namespace

void BufferPool::attach_memory(mem::MemoryGovernor* governor, mem::SpillStore* spill) {
  CCF_CHECK(entries_.empty() && stats_.stores == 0,
            "attach_memory must precede the first store");
  governor_ = governor;
  spill_ = spill;
}

std::shared_ptr<BufferPool::SnapshotFrame> BufferPool::acquire_frame(std::size_t frame_bytes) {
  // Best fit from the free list: smallest recycled frame that holds the
  // request. Steady-state coupling stores same-sized snapshots, so this
  // is a hit (and no buffer allocation) after the first few exports.
  auto best = arena_.end();
  for (auto it = arena_.begin(); it != arena_.end(); ++it) {
    if (it->capacity < frame_bytes) continue;
    if (best == arena_.end() || it->capacity < best->capacity) best = it;
  }
  if (best != arena_.end()) {
    auto frame = std::make_shared<SnapshotFrame>(std::move(*best));
    arena_.erase(best);
    frame->size = frame_bytes;
    ++stats_.arena_reuses;
    return frame;
  }
  auto frame = std::make_shared<SnapshotFrame>();
  // new[] (not a vector) so the bytes are not value-initialized before the
  // snapshot memcpy overwrites them; operator new aligns to max_align_t,
  // which keeps the doubles at offset kPrefix (8) naturally aligned.
  frame->bytes = std::unique_ptr<std::byte[]>(new std::byte[frame_bytes]);
  frame->capacity = frame_bytes;
  frame->size = frame_bytes;
  ++stats_.arena_allocs;
  return frame;
}

double BufferPool::store(Timestamp t, const double* src, std::size_t count, ConnMask needed,
                         runtime::ProcessContext& ctx) {
  CCF_REQUIRE(needed != 0, "storing a snapshot nobody needs");
  CCF_REQUIRE(!entries_.count(t), "timestamp " << t << " already buffered");
  const std::size_t bytes = count * sizeof(double);
  Entry entry;
  entry.frame = acquire_frame(kPrefix + bytes);
  entry.count = count;
  const auto n64 = static_cast<std::uint64_t>(count);
  std::memcpy(entry.frame->bytes.get(), &n64, kPrefix);
  const double before = ctx.now();
  // The memcpy the paper counts: data bytes only, the prefix is framing.
  ctx.copy(entry.frame->bytes.get() + kPrefix, src, bytes);
  entry.cost_seconds = ctx.now() - before;
  entry.needed = needed;

  ++stats_.stores;
  stats_.bytes_copied += bytes;
  stats_.seconds_buffering += entry.cost_seconds;
  ++stats_.live_entries;
  stats_.live_bytes += bytes;
  stats_.peak_entries = std::max(stats_.peak_entries, stats_.live_entries);
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.live_bytes);
  if (governor_ != nullptr) governor_->charge(bytes);

  const double cost = entry.cost_seconds;
  entries_.emplace(t, std::move(entry));
  return cost;
}

BufferPool::SnapshotView BufferPool::snapshot(Timestamp t) const {
  auto it = entries_.find(t);
  CCF_CHECK(it != entries_.end(), "no buffered snapshot for timestamp " << t);
  const Entry& e = it->second;
  CCF_CHECK(e.frame != nullptr,
            "snapshot " << t << " is spilled; call ensure_resident first");
  return SnapshotView(reinterpret_cast<const double*>(e.frame->bytes.get() + kPrefix), e.count);
}

transport::Payload BufferPool::wire_payload(Timestamp t) const {
  auto it = entries_.find(t);
  CCF_CHECK(it != entries_.end(), "no buffered snapshot for timestamp " << t);
  const std::shared_ptr<SnapshotFrame>& frame = it->second.frame;
  CCF_CHECK(frame != nullptr,
            "snapshot " << t << " is spilled; call ensure_resident first");
  return transport::Payload(frame, frame->bytes.get(), frame->size);
}

bool BufferPool::is_spilled(Timestamp t) const {
  auto it = entries_.find(t);
  return it != entries_.end() && it->second.frame == nullptr;
}

std::vector<Timestamp> BufferPool::resident_timestamps() const {
  std::vector<Timestamp> out;
  for (const auto& [t, e] : entries_) {
    if (e.frame != nullptr) out.push_back(t);
  }
  return out;
}

bool BufferPool::spillable(Timestamp t) const {
  auto it = entries_.find(t);
  if (it == entries_.end() || it->second.frame == nullptr) return false;
  // An in-flight payload aliasing the frame keeps its bytes alive anyway,
  // so demoting the entry would not reclaim memory. Empty snapshots carry
  // no data worth a file.
  return it->second.frame.use_count() == 1 && it->second.count > 0;
}

std::size_t BufferPool::data_bytes(Timestamp t) const {
  auto it = entries_.find(t);
  CCF_CHECK(it != entries_.end(), "data_bytes of absent timestamp " << t);
  return it->second.count * sizeof(double);
}

std::size_t BufferPool::spill_out(Timestamp t) {
  CCF_CHECK(spill_ != nullptr, "spill_out without a spill store");
  if (!spillable(t)) return 0;
  Entry& e = entries_.find(t)->second;
  const std::size_t bytes = e.count * sizeof(double);
  // The whole wire frame (prefix + data) goes to disk so the restored
  // frame is byte-identical and alias-sendable with no re-framing.
  e.ticket = spill_->put(e.frame->bytes.get(), e.frame->size);
  e.frame.reset();  // released to the heap, not parked: the point is RSS
  ++stats_.evictions;
  stats_.spill_bytes += bytes;
  ++stats_.live_spilled_entries;
  stats_.live_spilled_bytes += bytes;
  stats_.live_bytes -= bytes;
  if (governor_ != nullptr) governor_->release(bytes);
  return bytes;
}

std::size_t BufferPool::restore_shortfall(Timestamp t) const {
  if (governor_ == nullptr) return 0;
  auto it = entries_.find(t);
  if (it == entries_.end() || it->second.frame != nullptr) return 0;
  return governor_->shortfall(it->second.count * sizeof(double));
}

void BufferPool::ensure_resident(Timestamp t) {
  auto it = entries_.find(t);
  CCF_CHECK(it != entries_.end(), "ensure_resident of absent timestamp " << t);
  Entry& e = it->second;
  if (e.frame != nullptr) return;
  const std::size_t bytes = e.count * sizeof(double);
  e.frame = acquire_frame(e.ticket.bytes);
  spill_->restore(e.ticket, e.frame->bytes.get());
  e.ticket = {};
  ++stats_.restores;
  CCF_CHECK(stats_.live_spilled_entries > 0 && stats_.live_spilled_bytes >= bytes,
            "spill residency accounting underflow");
  --stats_.live_spilled_entries;
  stats_.live_spilled_bytes -= bytes;
  stats_.live_bytes += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.live_bytes);
  if (governor_ != nullptr) governor_->charge(bytes);
}

void BufferPool::mark_sent(Timestamp t, int conn_index) {
  auto it = entries_.find(t);
  CCF_CHECK(it != entries_.end(), "mark_sent on absent timestamp " << t);
  CCF_CHECK(conn_index >= 0 && conn_index < 32, "connection index " << conn_index << " out of range");
  it->second.ever_sent = true;
  ++stats_.sends;
}

void BufferPool::free_entry_locked(std::map<Timestamp, Entry>::iterator it) {
  const std::size_t bytes = it->second.count * sizeof(double);
  if (it->second.ever_sent) {
    ++stats_.frees_sent;
  } else {
    ++stats_.frees_unsent;
    stats_.seconds_unnecessary += it->second.cost_seconds;
  }
  --stats_.live_entries;
  if (it->second.frame == nullptr) {
    // Spilled entry proven non-matchable while on disk (buddy-help or a
    // low-water advance): its file goes at reclaim(), with no restore.
    freed_tickets_.push_back(it->second.ticket);
    ++stats_.spill_frees;
    --stats_.live_spilled_entries;
    stats_.live_spilled_bytes -= bytes;
    entries_.erase(it);
    return;
  }
  stats_.live_bytes -= bytes;
  if (governor_ != nullptr) governor_->release(bytes);
  // Recycle the frame only when the pool holds the last reference: an
  // in-flight payload still aliasing it must keep its bytes intact, so
  // such a frame is simply released (the payload frees it when done).
  // use_count() is a relaxed load and orders nothing, while the last
  // reader may have run on another thread (an importer unpacking a
  // zero-copy frame, the TCP io thread writing one out). So only the
  // bytes are parked: dropping the handle is an acquire on the count each
  // reader released, and the bytes are written again only after it.
  std::shared_ptr<SnapshotFrame>& frame = it->second.frame;
  if (frame.use_count() == 1) {
    SnapshotFrame parked = std::move(*frame);
    frame.reset();
    arena_.push_back(std::move(parked));
  }
  entries_.erase(it);
}

void BufferPool::reclaim() {
  if (arena_.size() > kArenaCapacity) arena_.resize(kArenaCapacity);
  for (const auto& ticket : freed_tickets_) spill_->release(ticket);
  freed_tickets_.clear();
}

std::optional<BufferPool::Freed> BufferPool::drop(Timestamp t, int conn_index) {
  auto it = entries_.find(t);
  if (it == entries_.end()) return std::nullopt;
  it->second.needed &= ~(ConnMask{1} << conn_index);
  if (it->second.needed != 0) return std::nullopt;
  Freed freed{it->first, it->second.cost_seconds, it->second.ever_sent};
  free_entry_locked(it);
  return freed;
}

std::vector<BufferPool::Freed> BufferPool::drop_below(Timestamp t, int conn_index) {
  std::vector<Freed> out;
  for (auto it = entries_.begin(); it != entries_.end() && it->first < t;) {
    auto cur = it++;
    cur->second.needed &= ~(ConnMask{1} << conn_index);
    if (cur->second.needed == 0) {
      out.push_back(Freed{cur->first, cur->second.cost_seconds, cur->second.ever_sent});
      free_entry_locked(cur);
    }
  }
  return out;
}

std::vector<Timestamp> BufferPool::buffered_timestamps() const {
  std::vector<Timestamp> out;
  out.reserve(entries_.size());
  for (const auto& [t, e] : entries_) out.push_back(t);
  return out;
}

std::vector<Timestamp> BufferPool::buffered_below(Timestamp t, int conn_index) const {
  std::vector<Timestamp> out;
  for (const auto& [ts, e] : entries_) {
    if (ts >= t) break;
    if (e.needed & (ConnMask{1} << conn_index)) out.push_back(ts);
  }
  return out;
}

}  // namespace ccf::core
