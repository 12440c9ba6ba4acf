// Microbenchmarks of the export-side buffer pool. BM_StoreAndFree measures
// the real snapshot memcpy — the per-object buffering time t_k of Eq. (1)
// that buddy-help eliminates — across block sizes up to the paper's
// 512x512 doubles (2 MiB).
#include <benchmark/benchmark.h>

#include "core/buffer_pool.hpp"
#include "runtime/scripted_context.hpp"

namespace {

using ccf::core::BufferPool;
using ccf::runtime::ScriptedContext;

void BM_StoreAndFree(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<double> block(count, 1.5);
  ScriptedContext ctx;
  double t = 0;
  for (auto _ : state) {
    BufferPool pool;
    pool.store(++t, block.data(), count, 0b1, ctx);
    benchmark::DoNotOptimize(pool.snapshot(t).data());
    pool.drop(t, 0);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * sizeof(double)));
}
BENCHMARK(BM_StoreAndFree)
    ->Arg(64 * 64)       // 32 KiB
    ->Arg(128 * 128)     // 128 KiB
    ->Arg(256 * 256)     // 512 KiB
    ->Arg(512 * 512);    // 2 MiB — the paper's per-process block

/// Steady-state store/drop against one persistent pool: after the first
/// iteration every frame comes from the arena free list, so the loop does
/// one memcpy and allocates no snapshot buffer; each store still allocates
/// the small shared handle that in-flight payloads alias.
/// allocs_per_store counts buffer allocations (arena misses) and
/// approaches 0.
void BM_StoreRecycleArena(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<double> block(count, 1.5);
  ScriptedContext ctx;
  BufferPool pool;
  double t = 0;
  for (auto _ : state) {
    pool.store(++t, block.data(), count, 0b1, ctx);
    benchmark::DoNotOptimize(pool.snapshot(t).data());
    pool.drop(t, 0);
  }
  const auto& s = pool.stats();
  state.counters["allocs_per_store"] =
      s.stores == 0 ? 0.0 : static_cast<double>(s.arena_allocs) / static_cast<double>(s.stores);
  state.counters["arena_reuses"] = static_cast<double>(s.arena_reuses);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * sizeof(double)));
}
BENCHMARK(BM_StoreRecycleArena)
    ->Arg(64 * 64)
    ->Arg(256 * 256)
    ->Arg(512 * 512);

void BM_DropBelowSweep(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  std::vector<double> block(64, 1.0);
  ScriptedContext ctx;
  for (auto _ : state) {
    state.PauseTiming();
    BufferPool pool;
    for (std::size_t k = 1; k <= entries; ++k) {
      pool.store(static_cast<double>(k), block.data(), block.size(), 0b1, ctx);
    }
    state.ResumeTiming();
    auto freed = pool.drop_below(static_cast<double>(entries + 1), 0);
    benchmark::DoNotOptimize(freed.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_DropBelowSweep)->Arg(16)->Arg(256)->Arg(4096);

void BM_MultiConnectionMaskOps(benchmark::State& state) {
  std::vector<double> block(64, 1.0);
  ScriptedContext ctx;
  for (auto _ : state) {
    BufferPool pool;
    for (int k = 1; k <= 64; ++k) {
      pool.store(k, block.data(), block.size(), 0b1111, ctx);
    }
    for (int conn = 0; conn < 4; ++conn) pool.drop_below(65.0, conn);
    benchmark::DoNotOptimize(pool.size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MultiConnectionMaskOps);

}  // namespace

BENCHMARK_MAIN();
