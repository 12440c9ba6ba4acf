#include "mem/spill.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "util/check.hpp"

namespace ccf::mem {
namespace fs = std::filesystem;

namespace {
// Stores that share one spill directory must never share a file name:
// in-process "processes" (threads) draw distinct tokens from this counter,
// and forked processes, which inherit the counter, differ by pid.
std::atomic<std::uint64_t> g_store_tokens{0};

/// "s<pid>_<token>_", unique per store.
std::string fresh_name_prefix() {
  std::string prefix = "s";
  prefix += std::to_string(::getpid());
  prefix += '_';
  prefix += std::to_string(g_store_tokens.fetch_add(1, std::memory_order_relaxed));
  prefix += '_';
  return prefix;
}
}  // namespace

SpillStore::SpillStore(std::string directory)
    : dir_(std::move(directory)), name_prefix_(fresh_name_prefix()) {
  CCF_REQUIRE(!dir_.empty(), "spill directory must be non-empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  CCF_REQUIRE(!ec, "cannot create spill directory '" << dir_ << "': " << ec.message());
}

SpillStore::~SpillStore() {
  // Best-effort cleanup of files this store still owns; the directory itself
  // may be shared, so it is left in place.
  std::error_code ec;
  for (std::uint64_t id = 0; id < next_id_; ++id) {
    fs::remove(path_of(id), ec);
  }
}

std::string SpillStore::path_of(std::uint64_t id) const {
  return (fs::path(dir_) / (name_prefix_ + std::to_string(id) + ".spill")).string();
}

SpillStore::Ticket SpillStore::put(const std::byte* data, std::size_t bytes) {
  Ticket ticket{next_id_++, bytes};
  const std::string path = path_of(ticket.id);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CCF_CHECK(f != nullptr, "cannot open spill file '" << path << "' for writing");
  const std::size_t written = bytes == 0 ? 0 : std::fwrite(data, 1, bytes, f);
  const bool flushed = std::fclose(f) == 0;
  CCF_CHECK(written == bytes && flushed,
            "short write to spill file '" << path << "' (" << written << "/" << bytes
                                          << " bytes)");
  ++stats_.spills;
  stats_.bytes_spilled += bytes;
  ++stats_.live_entries;
  stats_.live_bytes += bytes;
  if (stats_.live_bytes > stats_.peak_live_bytes) stats_.peak_live_bytes = stats_.live_bytes;
  return ticket;
}

void SpillStore::restore(const Ticket& ticket, std::byte* dst) {
  const std::string path = path_of(ticket.id);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  CCF_CHECK(f != nullptr, "cannot open spill file '" << path << "' for reading");
  const std::size_t read = ticket.bytes == 0 ? 0 : std::fread(dst, 1, ticket.bytes, f);
  std::fclose(f);
  CCF_CHECK(read == ticket.bytes,
            "short read from spill file '" << path << "' (" << read << "/" << ticket.bytes
                                           << " bytes)");
  ++stats_.restores;
  erase(ticket);
}

void SpillStore::release(const Ticket& ticket) {
  ++stats_.releases;
  erase(ticket);
}

void SpillStore::erase(const Ticket& ticket) {
  std::error_code ec;
  fs::remove(path_of(ticket.id), ec);
  CCF_CHECK(stats_.live_entries > 0 && stats_.live_bytes >= ticket.bytes,
            "spill ticket accounting underflow");
  --stats_.live_entries;
  stats_.live_bytes -= ticket.bytes;
}

}  // namespace ccf::mem
