// Export-side versioned data buffering (paper §3, §4.1).
//
// The temporal-consistency model requires an exporting process to keep a
// snapshot of each exported data object until the framework can prove no
// importer request can ever match it. BufferPool holds those snapshots,
// keyed by timestamp, with a per-connection "may still be needed" bitmask
// (one region can feed several importing programs; a snapshot is freed
// when no connection needs it).
//
// Snapshots are stored pre-framed for the wire: each buffer begins with
// the u64 element-count prefix Writer::put_vector would emit, followed by
// the raw doubles. wire_payload() aliases that frame as a refcounted
// transport::Payload, so a full-box transfer ships the pooled snapshot
// itself — zero extra copies, one buffer shared across every destination
// rank and connection. Freed frames are recycled through a small arena
// free list, so steady-state exporting allocates no snapshot buffers; a
// store allocates only the small shared handle that in-flight payloads
// alias (see free_entry_locked for why the handle is not recycled).
//
// A free has two halves. The logical half (drop/drop_below) erases the
// entry and moves every counter and the governor at once. The physical
// half waits for reclaim(): until then freed frames stay parked and the
// spill files of freed snapshots stay on disk, so the exporter can answer
// a request and ship its data before it hands memory back to the system
// or unlinks files.
//
// The pool charges the modeled copy cost through ProcessContext::copy, so
// the virtual-time experiments see the same buffering cost structure the
// paper measures, and tracks Eq.(1)/(2) accounting: the cost of snapshots
// that were freed without ever being transferred is the "unnecessary
// buffering time" T_ub that buddy-help attacks. All byte accounting
// (bytes_copied, live_bytes, peak_bytes) counts snapshot *data* bytes;
// the 8-byte frame prefix is framing, not buffered data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/timestamp.hpp"
#include "mem/governor.hpp"
#include "mem/spill.hpp"
#include "runtime/process_context.hpp"
#include "transport/message.hpp"

namespace ccf::core {

using ConnMask = std::uint32_t;

struct BufferStats {
  std::uint64_t stores = 0;         ///< snapshots copied into the pool
  std::uint64_t skips = 0;          ///< exports that avoided the copy entirely
  std::uint64_t frees_unsent = 0;   ///< snapshots freed without any transfer
  std::uint64_t frees_sent = 0;     ///< snapshots freed after >= 1 transfer
  std::uint64_t sends = 0;          ///< per-connection transfers served
  std::uint64_t bytes_copied = 0;
  std::uint64_t arena_allocs = 0;   ///< frames newly heap-allocated
  std::uint64_t arena_reuses = 0;   ///< frames recycled from the free list
  double seconds_buffering = 0;     ///< modeled cost of all stores
  double seconds_unnecessary = 0;   ///< modeled cost of unsent stores (T_ub)
  std::size_t peak_entries = 0;
  std::size_t peak_bytes = 0;       ///< peak *resident* snapshot bytes

  std::size_t live_entries = 0;  ///< maintained by the pool
  std::size_t live_bytes = 0;    ///< resident bytes (excludes spilled)

  // Spill tier (mem::SpillStore; zero everywhere unless governance is on).
  std::uint64_t evictions = 0;    ///< snapshots demoted to the spill tier
  std::uint64_t restores = 0;     ///< spilled snapshots restored (late MATCH)
  std::uint64_t spill_bytes = 0;  ///< cumulative data bytes written to spill
  std::uint64_t spill_frees = 0;  ///< spilled snapshots freed without restore
  std::size_t live_spilled_entries = 0;
  std::size_t live_spilled_bytes = 0;
};

class BufferPool {
 public:
  /// Snapshots `count` doubles from `src` for timestamp `t`, needed by the
  /// connections in `needed`. Charges the copy through `ctx`. Returns the
  /// modeled cost in seconds.
  double store(Timestamp t, const double* src, std::size_t count, ConnMask needed,
               runtime::ProcessContext& ctx);

  /// Records an export that skipped buffering (for the stats only).
  void note_skip() { ++stats_.skips; }

  bool has(Timestamp t) const { return entries_.count(t) > 0; }
  std::size_t size() const { return entries_.size(); }

  /// Read-only view over a buffered snapshot's elements (no copy; points
  /// past the frame's wire prefix into the stored doubles).
  class SnapshotView {
   public:
    SnapshotView(const double* data, std::size_t size) : data_(data), size_(size) {}
    const double* data() const { return data_; }
    std::size_t size() const { return size_; }
    double operator[](std::size_t i) const { return data_[i]; }
    const double* begin() const { return data_; }
    const double* end() const { return data_ + size_; }

   private:
    const double* data_;
    std::size_t size_;
  };

  /// Snapshot data for a transfer; throws if absent.
  SnapshotView snapshot(Timestamp t) const;

  /// The snapshot's wire frame ([u64 count][doubles] — Writer::put_vector
  /// framing) as a payload aliasing the pooled buffer. Sending it copies
  /// nothing; the frame stays alive (and out of the arena) while any
  /// in-flight payload still references it.
  transport::Payload wire_payload(Timestamp t) const;

  /// Marks a per-connection transfer of entry `t` as performed.
  void mark_sent(Timestamp t, int conn_index);

  /// Details of an entry fully freed by a drop call; used by the exporter
  /// state for Eq.(1) attribution and trace emission.
  struct Freed {
    Timestamp t = 0;
    double cost_seconds = 0;
    bool was_sent = false;
  };

  /// Connection `conn_index` no longer needs entry `t`; frees the entry
  /// when no connection needs it (returned). No-op if absent.
  std::optional<Freed> drop(Timestamp t, int conn_index);

  /// Connection no longer needs any entry with timestamp < `t`. Returns
  /// the entries that became fully free, ascending.
  std::vector<Freed> drop_below(Timestamp t, int conn_index);

  /// The physical half of the frees since the last call: trims the arena
  /// back to kArenaCapacity frames, returning the rest to the heap, and
  /// deletes the spill files of freed snapshots. Until then a store or a
  /// restore can take any parked frame.
  void reclaim();

  /// Timestamps currently buffered (ascending).
  std::vector<Timestamp> buffered_timestamps() const;

  /// Timestamps < t buffered and still needed by `conn_index` (ascending).
  std::vector<Timestamp> buffered_below(Timestamp t, int conn_index) const;

  // --- buffer governance (src/mem; all no-ops until attached) ------------

  /// Routes residency accounting through `governor` (may be null) and
  /// demotions through `spill` (may be null). Call before the first store.
  void attach_memory(mem::MemoryGovernor* governor, mem::SpillStore* spill);

  std::size_t arena_frames() const { return arena_.size(); }

  bool can_spill() const { return spill_ != nullptr; }
  bool is_spilled(Timestamp t) const;

  /// Resident (non-spilled) timestamps, ascending.
  std::vector<Timestamp> resident_timestamps() const;

  /// True when entry `t` is resident and its frame is not aliased by an
  /// in-flight payload (spilling an aliased frame reclaims nothing).
  bool spillable(Timestamp t) const;

  /// Snapshot data bytes of entry `t` (excluding the wire prefix).
  std::size_t data_bytes(Timestamp t) const;

  /// Demotes entry `t` to the spill tier, releasing its resident frame.
  /// Returns the data bytes reclaimed (0 when `t` is not spillable).
  std::size_t spill_out(Timestamp t);

  /// Restores entry `t` from the spill tier if it was demoted, so
  /// snapshot()/wire_payload() can serve it. Byte-identical round trip.
  void ensure_resident(Timestamp t);

  /// Bytes the governor is short of to restore spilled entry `t` within
  /// budget (0 when `t` is resident or the pool is ungoverned). Lets the
  /// caller shed other snapshots before the restore charges the budget.
  std::size_t restore_shortfall(Timestamp t) const;

  const BufferStats& stats() const { return stats_; }

 private:
  /// One wire-framed snapshot buffer: [u64 count][count doubles].
  /// Heap-allocated once, then cycled pool -> payload refs -> arena.
  struct SnapshotFrame {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t capacity = 0;  ///< allocated bytes (>= size)
    std::size_t size = 0;      ///< frame bytes in use (prefix + data)
  };

  struct Entry {
    /// Shared with in-flight payloads aliasing the frame; null while spilled.
    std::shared_ptr<SnapshotFrame> frame;
    std::size_t count = 0;  ///< element count (frame holds prefix + these)
    ConnMask needed = 0;
    bool ever_sent = false;
    double cost_seconds = 0;
    mem::SpillStore::Ticket ticket;  ///< valid only while frame is null
  };

  /// Frames the free list keeps across reclaim() calls.
  static constexpr std::size_t kArenaCapacity = 8;

  std::shared_ptr<SnapshotFrame> acquire_frame(std::size_t frame_bytes);
  void free_entry_locked(std::map<Timestamp, Entry>::iterator it);

  std::map<Timestamp, Entry> entries_;
  std::vector<SnapshotFrame> arena_;
  std::vector<mem::SpillStore::Ticket> freed_tickets_;  ///< files reclaim() deletes
  mem::MemoryGovernor* governor_ = nullptr;
  mem::SpillStore* spill_ = nullptr;
  BufferStats stats_;
};

}  // namespace ccf::core
