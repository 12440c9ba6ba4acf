// File-backed spill tier for cold-but-still-matchable snapshots.
//
// A governed exporter that cannot free a snapshot (the matcher cannot yet
// prove it non-matchable) demotes it here instead of holding it resident:
// the frame's bytes are written to a per-ticket file and the memory is
// reclaimed. On a late MATCH the bytes are restored verbatim — spilling is
// invisible to the protocol and to the wire (the restored frame is
// byte-identical, so aliased sends still ship exactly the snapshot the
// importer expects).
//
// One file per ticket keeps the store trivially correct in every
// execution mode: several processes — threads or forked OS processes —
// may share one spill directory, so file names carry the pid and a
// per-store token.
// Tickets are released either on restore (the snapshot became a match) or
// directly (a buddy-help answer or low-water advance proved it can never
// match — the paper's minimal-copy set at work, one tier down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ccf::mem {

struct SpillStats {
  std::uint64_t spills = 0;         ///< tickets written
  std::uint64_t restores = 0;       ///< tickets read back (late MATCH)
  std::uint64_t releases = 0;       ///< tickets dropped without a restore
  std::uint64_t bytes_spilled = 0;  ///< cumulative bytes written
  std::size_t live_entries = 0;
  std::size_t live_bytes = 0;
  std::size_t peak_live_bytes = 0;
};

class SpillStore {
 public:
  /// Creates (if needed) `directory` and anchors all spill files there.
  explicit SpillStore(std::string directory);

  /// Removes every still-live spill file (best effort).
  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  struct Ticket {
    std::uint64_t id = 0;
    std::size_t bytes = 0;
  };

  /// Writes `bytes` of `data` to a fresh spill file. Throws util::Error on
  /// I/O failure (a full disk must fail loudly, not corrupt a snapshot).
  Ticket put(const std::byte* data, std::size_t bytes);

  /// Reads a ticket's bytes back into `dst` (byte-identical to what was
  /// written) and deletes the file.
  void restore(const Ticket& ticket, std::byte* dst);

  /// Deletes a ticket's file without reading it (the snapshot was proven
  /// non-matchable while spilled).
  void release(const Ticket& ticket);

  const std::string& directory() const { return dir_; }
  const SpillStats& stats() const { return stats_; }

 private:
  std::string path_of(std::uint64_t id) const;
  void erase(const Ticket& ticket);

  std::string dir_;
  std::string name_prefix_;  ///< "s<pid>_<token>_": unique among stores sharing dir_
  std::uint64_t next_id_ = 0;
  SpillStats stats_;
};

}  // namespace ccf::mem
