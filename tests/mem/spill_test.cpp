#include "mem/spill.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <vector>

namespace ccf::mem {
namespace {
namespace fs = std::filesystem;

std::vector<std::byte> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

class SpillStoreTest : public ::testing::Test {
 protected:
  /// The test's own directory, emptied before it runs and removed after.
  std::string tmp_dir() {
    fs::remove_all(dir());
    return dir().string();
  }

  void TearDown() override { fs::remove_all(dir()); }

 private:
  static fs::path dir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return fs::temp_directory_path() / (std::string("ccf_spill_") + info->name());
  }
};

TEST_F(SpillStoreTest, RoundTripIsByteIdentical) {
  SpillStore store(tmp_dir());
  const std::vector<std::byte> payload = random_bytes(4096 + 13, 1);
  const SpillStore::Ticket t = store.put(payload.data(), payload.size());
  EXPECT_EQ(t.bytes, payload.size());
  std::vector<std::byte> back(payload.size());
  store.restore(t, back.data());
  EXPECT_EQ(back, payload);
  EXPECT_EQ(store.stats().spills, 1u);
  EXPECT_EQ(store.stats().restores, 1u);
  EXPECT_EQ(store.stats().live_entries, 0u);
  EXPECT_EQ(store.stats().live_bytes, 0u);
}

TEST_F(SpillStoreTest, CreatesMissingDirectory) {
  const fs::path dir = fs::path(tmp_dir()) / "nested" / "deeper";
  SpillStore store(dir.string());
  EXPECT_TRUE(fs::is_directory(dir));
}

TEST_F(SpillStoreTest, ReleaseDropsWithoutRestore) {
  SpillStore store(tmp_dir());
  const std::vector<std::byte> payload = random_bytes(256, 2);
  const SpillStore::Ticket t = store.put(payload.data(), payload.size());
  EXPECT_EQ(store.stats().live_bytes, 256u);
  store.release(t);
  EXPECT_EQ(store.stats().releases, 1u);
  EXPECT_EQ(store.stats().live_entries, 0u);
  EXPECT_EQ(store.stats().live_bytes, 0u);
  // The backing file is gone.
  EXPECT_TRUE(fs::is_empty(store.directory()));
}

TEST_F(SpillStoreTest, ManyTicketsRestoreIndependently) {
  SpillStore store(tmp_dir());
  std::vector<std::vector<std::byte>> payloads;
  std::vector<SpillStore::Ticket> tickets;
  for (std::uint32_t i = 0; i < 16; ++i) {
    payloads.push_back(random_bytes(64 * (i + 1), 100 + i));
    tickets.push_back(store.put(payloads.back().data(), payloads.back().size()));
  }
  EXPECT_EQ(store.stats().live_entries, 16u);
  // Restore out of order.
  for (int i = 15; i >= 0; --i) {
    std::vector<std::byte> back(tickets[static_cast<std::size_t>(i)].bytes);
    store.restore(tickets[static_cast<std::size_t>(i)], back.data());
    EXPECT_EQ(back, payloads[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(store.stats().live_entries, 0u);
}

TEST_F(SpillStoreTest, PeakLiveBytesTracksHighWater) {
  SpillStore store(tmp_dir());
  const std::vector<std::byte> a = random_bytes(100, 3);
  const std::vector<std::byte> b = random_bytes(300, 4);
  const SpillStore::Ticket ta = store.put(a.data(), a.size());
  const SpillStore::Ticket tb = store.put(b.data(), b.size());
  EXPECT_EQ(store.stats().peak_live_bytes, 400u);
  store.release(ta);
  store.release(tb);
  EXPECT_EQ(store.stats().peak_live_bytes, 400u);
  EXPECT_EQ(store.stats().bytes_spilled, 400u);
}

TEST_F(SpillStoreTest, SharedDirectoryStoresDoNotCollide) {
  const std::string dir = tmp_dir();
  SpillStore a(dir);
  SpillStore b(dir);
  const std::vector<std::byte> pa = random_bytes(128, 5);
  const std::vector<std::byte> pb = random_bytes(128, 6);
  const SpillStore::Ticket ta = a.put(pa.data(), pa.size());
  const SpillStore::Ticket tb = b.put(pb.data(), pb.size());
  std::vector<std::byte> back(128);
  a.restore(ta, back.data());
  EXPECT_EQ(back, pa);
  b.restore(tb, back.data());
  EXPECT_EQ(back, pb);
}

TEST_F(SpillStoreTest, ForkedStoresSharingADirectoryRestoreTheirOwnBytes) {
  // Forked exporters inherit the in-process store counter, so only the
  // pid keeps their file names apart. Both children spill before either
  // restores; each must read back its own bytes.
  const std::string dir = tmp_dir();
  std::array<int, 2> put_done{}, go{};
  ASSERT_EQ(::pipe(put_done.data()), 0);
  ASSERT_EQ(::pipe(go.data()), 0);
  std::array<pid_t, 2> pids{};
  for (std::uint32_t child = 0; child < 2; ++child) {
    pids[child] = ::fork();
    ASSERT_GE(pids[child], 0);
    if (pids[child] != 0) continue;
    // Every path reaches the barrier, so a failing child cannot wedge
    // its sibling or the parent.
    int code = 0;
    const std::vector<std::byte> mine = random_bytes(256, 40 + child);
    std::optional<SpillStore> store;
    SpillStore::Ticket t;
    try {
      store.emplace(dir);
      t = store->put(mine.data(), mine.size());
    } catch (...) {
      code = 2;
    }
    char c = 1;
    if (::write(put_done[1], &c, 1) != 1 || ::read(go[0], &c, 1) != 1) code = 3;
    if (code == 0) {
      try {
        std::vector<std::byte> back(mine.size());
        store->restore(t, back.data());
        if (back != mine) code = 1;
      } catch (...) {
        code = 2;
      }
    }
    ::_exit(code);
  }
  char c = 0;
  for (int i = 0; i < 2; ++i) ASSERT_EQ(::read(put_done[0], &c, 1), 1);
  const char release[2] = {1, 1};
  ASSERT_EQ(::write(go[1], release, 2), 2);
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "1 = another process's bytes, 2 = spill I/O error";
  }
  for (int fd : {put_done[0], put_done[1], go[0], go[1]}) ::close(fd);
}

TEST_F(SpillStoreTest, DestructorCleansUpLiveFiles) {
  const std::string dir = tmp_dir();
  {
    SpillStore store(dir);
    const std::vector<std::byte> payload = random_bytes(512, 7);
    (void)store.put(payload.data(), payload.size());
    (void)store.put(payload.data(), payload.size());
    EXPECT_FALSE(fs::is_empty(dir));
  }
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST_F(SpillStoreTest, EmptyDirectoryRejected) {
  EXPECT_THROW(SpillStore(""), std::runtime_error);
}

}  // namespace
}  // namespace ccf::mem
