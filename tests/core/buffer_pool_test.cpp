// Export-side buffer pool tests: lifecycle, per-connection masks, stats
// and unnecessary-time accounting (the Eq. 1/2 inputs).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>

#include "core/buffer_pool.hpp"
#include "runtime/scripted_context.hpp"
#include "transport/serialize.hpp"

namespace ccf::core {
namespace {

namespace fs = std::filesystem;
using runtime::ScriptedContext;

std::vector<double> block(std::size_t n, double v) { return std::vector<double>(n, v); }

std::size_t files_in(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

TEST(BufferPoolTest, StoreCopiesDataAndChargesCost) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(100, 3.5);
  const double cost = pool.store(1.0, src.data(), src.size(), 0b1, ctx);
  EXPECT_GT(cost, 0.0);
  EXPECT_DOUBLE_EQ(ctx.now(), cost);
  ASSERT_TRUE(pool.has(1.0));
  EXPECT_DOUBLE_EQ(pool.snapshot(1.0)[42], 3.5);
  // The snapshot is a copy: mutating the source does not change it.
  src[42] = -1;
  EXPECT_DOUBLE_EQ(pool.snapshot(1.0)[42], 3.5);
}

TEST(BufferPoolTest, RejectsDuplicateAndEmptyMask) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(4, 1.0);
  pool.store(1.0, src.data(), 4, 0b1, ctx);
  EXPECT_THROW(pool.store(1.0, src.data(), 4, 0b1, ctx), util::InvalidArgument);
  EXPECT_THROW(pool.store(2.0, src.data(), 4, 0, ctx), util::InvalidArgument);
}

TEST(BufferPoolTest, DropFreesOnlyWhenNoConnectionNeedsIt) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(4, 1.0);
  pool.store(1.0, src.data(), 4, 0b11, ctx);  // needed by conns 0 and 1
  EXPECT_FALSE(pool.drop(1.0, 0).has_value());
  EXPECT_TRUE(pool.has(1.0));
  auto freed = pool.drop(1.0, 1);
  ASSERT_TRUE(freed.has_value());
  EXPECT_DOUBLE_EQ(freed->t, 1.0);
  EXPECT_FALSE(freed->was_sent);
  EXPECT_FALSE(pool.has(1.0));
}

TEST(BufferPoolTest, DropAbsentIsNoop) {
  BufferPool pool;
  EXPECT_FALSE(pool.drop(9.9, 0).has_value());
  EXPECT_TRUE(pool.drop_below(100.0, 0).empty());
}

TEST(BufferPoolTest, DropBelowFreesRangeAscending) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(4, 1.0);
  for (double t : {1.0, 2.0, 3.0, 4.0}) pool.store(t, src.data(), 4, 0b1, ctx);
  const auto freed = pool.drop_below(3.5, 0);
  ASSERT_EQ(freed.size(), 3u);
  EXPECT_DOUBLE_EQ(freed[0].t, 1.0);
  EXPECT_DOUBLE_EQ(freed[2].t, 3.0);
  EXPECT_EQ(pool.buffered_timestamps(), std::vector<Timestamp>{4.0});
}

TEST(BufferPoolTest, UnnecessaryTimeCountsOnlyUnsentFrees) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(1000, 1.0);
  pool.store(1.0, src.data(), 1000, 0b1, ctx);
  pool.store(2.0, src.data(), 1000, 0b1, ctx);
  pool.mark_sent(2.0, 0);
  pool.drop(1.0, 0);  // never sent -> unnecessary
  pool.drop(2.0, 0);  // sent -> necessary
  const BufferStats& s = pool.stats();
  EXPECT_EQ(s.frees_unsent, 1u);
  EXPECT_EQ(s.frees_sent, 1u);
  EXPECT_EQ(s.sends, 1u);
  EXPECT_GT(s.seconds_unnecessary, 0.0);
  EXPECT_LT(s.seconds_unnecessary, s.seconds_buffering);
}

TEST(BufferPoolTest, PeakAndLiveTracking) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(10, 1.0);
  pool.store(1.0, src.data(), 10, 0b1, ctx);
  pool.store(2.0, src.data(), 10, 0b1, ctx);
  EXPECT_EQ(pool.stats().live_entries, 2u);
  EXPECT_EQ(pool.stats().peak_entries, 2u);
  EXPECT_EQ(pool.stats().peak_bytes, 160u);
  pool.drop(1.0, 0);
  EXPECT_EQ(pool.stats().live_entries, 1u);
  EXPECT_EQ(pool.stats().peak_entries, 2u);
  EXPECT_EQ(pool.stats().live_bytes, 80u);
}

TEST(BufferPoolTest, SkipCounter) {
  BufferPool pool;
  pool.note_skip();
  pool.note_skip();
  EXPECT_EQ(pool.stats().skips, 2u);
  EXPECT_EQ(pool.stats().stores, 0u);
}

TEST(BufferPoolTest, BufferedBelowFiltersByConnection) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(4, 1.0);
  pool.store(1.0, src.data(), 4, 0b01, ctx);
  pool.store(2.0, src.data(), 4, 0b10, ctx);
  pool.store(3.0, src.data(), 4, 0b11, ctx);
  EXPECT_EQ(pool.buffered_below(10.0, 0), (std::vector<Timestamp>{1.0, 3.0}));
  EXPECT_EQ(pool.buffered_below(10.0, 1), (std::vector<Timestamp>{2.0, 3.0}));
  EXPECT_EQ(pool.buffered_below(2.5, 0), (std::vector<Timestamp>{1.0}));
}

TEST(BufferPoolTest, SnapshotOfAbsentThrows) {
  BufferPool pool;
  EXPECT_THROW(pool.snapshot(1.0), util::InternalError);
  EXPECT_THROW(pool.mark_sent(1.0, 0), util::InternalError);
  EXPECT_THROW(pool.wire_payload(1.0), util::InternalError);
}

TEST(BufferPoolTest, WirePayloadIsPutVectorFrameAliasingTheSnapshot) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(10, 2.25);
  pool.store(1.0, src.data(), 10, 0b1, ctx);

  const transport::Payload frame = pool.wire_payload(1.0);
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame.size(), transport::kLengthPrefixBytes + 10 * sizeof(double));
  // The frame aliases the pooled snapshot bytes — no copy was made.
  EXPECT_EQ(frame.data() + transport::kLengthPrefixBytes,
            reinterpret_cast<const std::byte*>(pool.snapshot(1.0).data()));

  // And it parses exactly like a Writer::put_vector message.
  transport::Reader r(frame);
  const auto v = r.get_vector<double>();
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(v.size(), 10u);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 2.25);
}

TEST(BufferPoolTest, ArenaRecyclesFreedFrames) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(64, 1.0);
  pool.store(1.0, src.data(), 64, 0b1, ctx);
  const void* first = pool.snapshot(1.0).data();
  pool.drop(1.0, 0);
  pool.store(2.0, src.data(), 64, 0b1, ctx);
  EXPECT_EQ(pool.stats().arena_allocs, 1u);
  EXPECT_EQ(pool.stats().arena_reuses, 1u);
  EXPECT_EQ(pool.snapshot(2.0).data(), first) << "same-size store must reuse the freed frame";
  // Exact byte accounting survives recycling.
  EXPECT_EQ(pool.stats().live_bytes, 64 * sizeof(double));
  EXPECT_EQ(pool.stats().peak_bytes, 64 * sizeof(double));
  EXPECT_EQ(pool.stats().bytes_copied, 2 * 64 * sizeof(double));
}

TEST(BufferPoolTest, InFlightPayloadBlocksRecycling) {
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(32, 7.5);
  pool.store(1.0, src.data(), 32, 0b1, ctx);
  const transport::Payload in_flight = pool.wire_payload(1.0);
  pool.drop(1.0, 0);

  // The frame is still referenced by `in_flight`, so the next store must
  // allocate fresh instead of scribbling over bytes someone may read.
  auto src2 = block(32, -1.0);
  pool.store(2.0, src2.data(), 32, 0b1, ctx);
  EXPECT_EQ(pool.stats().arena_reuses, 0u);
  EXPECT_EQ(pool.stats().arena_allocs, 2u);

  transport::Reader r(in_flight);
  const auto v = r.get_vector<double>();
  ASSERT_EQ(v.size(), 32u);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 7.5) << "in-flight payload bytes were clobbered";
}

TEST(BufferPoolTest, FreedFramesStayParkedUntilReclaim) {
  constexpr std::size_t kFrames = 12;
  constexpr std::size_t kCount = 64;
  constexpr std::size_t kBytes = kCount * sizeof(double);
  ScriptedContext ctx;
  mem::MemoryGovernor governor(std::size_t{1} << 20, 0.5, 0.75);
  BufferPool pool;
  pool.attach_memory(&governor, nullptr);
  auto src = block(kCount, 1.0);
  for (std::size_t k = 1; k <= kFrames; ++k) {
    pool.store(static_cast<double>(k), src.data(), kCount, 0b1, ctx);
  }
  EXPECT_EQ(governor.stats().charged_bytes, kFrames * kBytes);

  // The logical half happens at the drop: entries, counters, governor.
  ASSERT_EQ(pool.drop_below(100.0, 0).size(), kFrames);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.stats().frees_unsent, kFrames);
  EXPECT_EQ(pool.stats().live_entries, 0u);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
  EXPECT_DOUBLE_EQ(pool.stats().seconds_unnecessary, pool.stats().seconds_buffering);
  EXPECT_EQ(governor.stats().charged_bytes, 0u);
  // The physical half waits: every freed frame is parked, past the cap.
  EXPECT_EQ(pool.arena_frames(), kFrames);

  // A store in between takes a parked frame.
  pool.store(200.0, src.data(), kCount, 0b1, ctx);
  EXPECT_EQ(pool.stats().arena_reuses, 1u);
  EXPECT_EQ(pool.stats().arena_allocs, kFrames);
  EXPECT_EQ(pool.arena_frames(), kFrames - 1);

  const BufferStats before = pool.stats();
  pool.reclaim();
  EXPECT_EQ(pool.arena_frames(), 8u);
  // Returning frames to the heap moves no counter and no charged byte.
  EXPECT_EQ(pool.stats().frees_unsent, before.frees_unsent);
  EXPECT_EQ(pool.stats().live_entries, before.live_entries);
  EXPECT_EQ(pool.stats().live_bytes, before.live_bytes);
  EXPECT_EQ(pool.stats().arena_reuses, before.arena_reuses);
  EXPECT_EQ(pool.stats().arena_allocs, before.arena_allocs);
  EXPECT_EQ(governor.stats().charged_bytes, kBytes);

  pool.reclaim();  // nothing freed since: a no-op
  EXPECT_EQ(pool.arena_frames(), 8u);
}

TEST(BufferPoolTest, FreedSpillFileStaysOnDiskUntilReclaim) {
  const fs::path dir =
      fs::temp_directory_path() / ("ccf_pool_reclaim_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    mem::SpillStore spill(dir.string());
    ScriptedContext ctx;
    BufferPool pool;
    pool.attach_memory(nullptr, &spill);
    auto src = block(64, 1.0);
    pool.store(1.0, src.data(), 64, 0b1, ctx);
    ASSERT_EQ(pool.spill_out(1.0), 64 * sizeof(double));
    EXPECT_EQ(pool.arena_frames(), 0u) << "spill_out returns its frame to the heap at once";
    EXPECT_EQ(files_in(dir), 1u);

    ASSERT_TRUE(pool.drop(1.0, 0).has_value());
    EXPECT_EQ(pool.stats().spill_frees, 1u);
    EXPECT_EQ(pool.stats().live_spilled_entries, 0u);
    EXPECT_EQ(pool.stats().live_spilled_bytes, 0u);
    EXPECT_EQ(files_in(dir), 1u) << "the file of a freed snapshot goes at reclaim()";
    EXPECT_EQ(spill.stats().releases, 0u);

    pool.reclaim();
    EXPECT_EQ(files_in(dir), 0u);
    EXPECT_EQ(spill.stats().releases, 1u);
    EXPECT_EQ(spill.stats().live_entries, 0u);
    EXPECT_EQ(pool.stats().spill_frees, 1u);
  }
  fs::remove_all(dir);
}

TEST(BufferPoolTest, FrameReleasedOnAnotherThreadIsReusedOnlyAfterItsReads) {
  // A reader on another thread (an importer unpacking a zero-copy frame,
  // the TCP io thread writing one out) drops the last alias; the exporter
  // then frees the entry and recycles the frame. The flag below orders
  // nothing, so under ThreadSanitizer this checks that the pool itself
  // orders the reader's reads before the next store's writes.
  ScriptedContext ctx;
  BufferPool pool;
  auto src = block(32, 7.5);
  pool.store(1.0, src.data(), 32, 0b1, ctx);
  std::atomic<bool> released{false};
  double sum = 0;
  std::thread reader([payload = pool.wire_payload(1.0), &released, &sum]() mutable {
    {
      transport::Reader r(std::move(payload));
      for (double x : r.get_vector<double>()) sum += x;
    }  // the reader's last alias of the frame dies here
    released.store(true, std::memory_order_relaxed);
  });
  while (!released.load(std::memory_order_relaxed)) std::this_thread::yield();
  pool.drop(1.0, 0);
  auto src2 = block(32, -1.0);
  pool.store(2.0, src2.data(), 32, 0b1, ctx);
  EXPECT_EQ(pool.stats().arena_reuses, 1u);
  reader.join();
  EXPECT_DOUBLE_EQ(sum, 32 * 7.5);
}

}  // namespace
}  // namespace ccf::core
