// Microbenchmarks of the MxN redistribution machinery: schedule
// construction cost as process counts grow, pack/unpack throughput, and
// the data-plane send paths (legacy two-copy vs direct wire pack vs
// zero-copy snapshot aliasing) that BENCH_dataplane.json tracks.
#include <benchmark/benchmark.h>

#include "core/buffer_pool.hpp"
#include "dist/dist_array.hpp"
#include "dist/redistribute.hpp"
#include "dist/schedule.hpp"
#include "runtime/scripted_context.hpp"
#include "transport/serialize.hpp"

namespace {

using ccf::dist::BlockDecomposition;
using ccf::dist::Box;
using ccf::dist::DistArray2D;
using ccf::dist::RedistSchedule;

/// One exporter rank's send schedule plus one importer rank's receive
/// schedule (the middle rank of each side), as each rank builds them at
/// commit.
void BM_ScheduleBuild(benchmark::State& state) {
  const int src_p = static_cast<int>(state.range(0));
  const int dst_p = static_cast<int>(state.range(1));
  const auto src = BlockDecomposition::make_grid(1024, 1024, src_p);
  const auto dst = BlockDecomposition::make_grid(1024, 1024, dst_p);
  const Box region{0, 1024, 0, 1024};
  for (auto _ : state) {
    const auto sends = RedistSchedule::for_exporter(src_p / 2, src, dst, region);
    const auto recvs = RedistSchedule::for_importer(dst_p / 2, src, dst, region);
    benchmark::DoNotOptimize(sends.pieces().data());
    benchmark::DoNotOptimize(recvs.pieces().data());
  }
}
BENCHMARK(BM_ScheduleBuild)
    ->Args({4, 4})
    ->Args({4, 32})
    ->Args({32, 32})
    ->Args({64, 128});

void BM_PackBox(benchmark::State& state) {
  const auto side = state.range(0);
  const BlockDecomposition d(side, side, 1, 1);
  DistArray2D<double> a(d, 0);
  a.fill([](ccf::dist::Index r, ccf::dist::Index c) {
    return static_cast<double>(r + c);
  });
  const Box sub{side / 4, 3 * side / 4, side / 4, 3 * side / 4};
  for (auto _ : state) {
    auto packed = a.pack(sub);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sub.count()) * 8);
}
BENCHMARK(BM_PackBox)->Arg(128)->Arg(512)->Arg(1024);

void BM_UnpackBox(benchmark::State& state) {
  const auto side = state.range(0);
  const BlockDecomposition d(side, side, 1, 1);
  DistArray2D<double> a(d, 0);
  const Box sub{0, side, 0, side};
  const std::vector<double> buf(static_cast<std::size_t>(sub.count()), 2.5);
  for (auto _ : state) {
    a.unpack(sub, buf);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sub.count()) * 8);
}
BENCHMARK(BM_UnpackBox)->Arg(128)->Arg(512);

void BM_PackFromPacked(benchmark::State& state) {
  const Box buf_box{0, 512, 0, 512};
  const std::vector<double> buf(512 * 512, 1.0);
  const Box piece{100, 400, 100, 400};
  for (auto _ : state) {
    auto out = ccf::dist::pack_from_packed(buf_box, buf, piece);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * piece.count() * 8);
}
BENCHMARK(BM_PackFromPacked);

// ---------------------------------------------------------------------------
// Data-plane send paths. A "large piece" is 512x512 doubles (2 MiB) out of
// a 1024x1024 snapshot — the paper's per-process block size.

const Box kSnapshotBox{0, 1024, 0, 1024};
const Box kLargePiece{256, 768, 256, 768};

/// The pre-PR data path: pack the piece into an element vector, then
/// serialize that vector into a second buffer (two full copies).
void BM_SendPayloadLegacy(benchmark::State& state) {
  const std::vector<double> snapshot(1024 * 1024, 1.0);
  for (auto _ : state) {
    auto packed = ccf::dist::pack_from_packed(kSnapshotBox, snapshot, kLargePiece);
    ccf::transport::Writer w;
    w.put_vector(packed);
    auto payload = w.take();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLargePiece.count() *
                          8);
}
BENCHMARK(BM_SendPayloadLegacy);

/// The current path for a partial piece: one strided copy straight into an
/// exact-size wire frame.
void BM_SendPayloadWire(benchmark::State& state) {
  const std::vector<double> snapshot(1024 * 1024, 1.0);
  for (auto _ : state) {
    auto payload =
        ccf::dist::pack_wire_payload(kSnapshotBox, snapshot.data(), kLargePiece);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLargePiece.count() *
                          8);
}
BENCHMARK(BM_SendPayloadWire);

/// The full export transfer path through BufferPool + execute_sends_packed:
/// a 1->1 full-box schedule, so every send aliases the pooled frame
/// (zero copies beyond the snapshot memcpy). copies_per_delivered_byte is
/// exported as a counter so run_benches can assert the steady-state value.
void BM_ExportTransferFullBoxAliased(benchmark::State& state) {
  const auto decomp = BlockDecomposition::make_grid(512, 512, 1);
  const auto sched = RedistSchedule::for_exporter(0, decomp, decomp, Box{0, 512, 0, 512});
  const std::vector<double> block(512 * 512, 1.0);
  ccf::runtime::ScriptedContext ctx(0);
  ccf::core::BufferPool pool;
  ccf::dist::TransferStats stats;
  double t = 0;
  for (auto _ : state) {
    pool.store(++t, block.data(), block.size(), 0b1, ctx);
    ccf::dist::execute_sends_packed(ctx, sched, {100}, 77, Box{0, 512, 0, 512},
                                    pool.snapshot(t).data(), &stats, pool.wire_payload(t));
    ctx.sent().clear();  // release the in-flight alias so the frame recycles
    pool.drop(t, 0);
  }
  state.counters["copies_per_delivered_byte"] = stats.copies_per_delivered_byte();
  state.counters["arena_reuses"] = static_cast<double>(pool.stats().arena_reuses);
  state.counters["arena_allocs"] = static_cast<double>(pool.stats().arena_allocs);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512 * 512 * 8);
}
BENCHMARK(BM_ExportTransferFullBoxAliased);

/// Same transfer path when the schedule splits the box across 4 importers:
/// every piece is partial, so each costs exactly one pack copy.
void BM_ExportTransferPartialPieces(benchmark::State& state) {
  const auto src = BlockDecomposition::make_grid(512, 512, 1);
  const auto dst = BlockDecomposition::make_grid(512, 512, 4);
  const auto sched = RedistSchedule::for_exporter(0, src, dst, Box{0, 512, 0, 512});
  const std::vector<double> block(512 * 512, 1.0);
  ccf::runtime::ScriptedContext ctx(0);
  ccf::core::BufferPool pool;
  ccf::dist::TransferStats stats;
  double t = 0;
  for (auto _ : state) {
    pool.store(++t, block.data(), block.size(), 0b1, ctx);
    ccf::dist::execute_sends_packed(ctx, sched, {100, 101, 102, 103}, 77,
                                    Box{0, 512, 0, 512}, pool.snapshot(t).data(), &stats,
                                    pool.wire_payload(t));
    ctx.sent().clear();
    pool.drop(t, 0);
  }
  state.counters["copies_per_delivered_byte"] = stats.copies_per_delivered_byte();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512 * 512 * 8);
}
BENCHMARK(BM_ExportTransferPartialPieces);

/// Receive-side strided unpack straight from payload bytes.
void BM_UnpackBytes(benchmark::State& state) {
  const auto side = state.range(0);
  const BlockDecomposition d(side, side, 1, 1);
  DistArray2D<double> a(d, 0);
  const Box sub{0, side, 0, side};
  const std::vector<double> buf(static_cast<std::size_t>(sub.count()), 2.5);
  const auto* bytes = reinterpret_cast<const std::byte*>(buf.data());
  for (auto _ : state) {
    a.unpack_bytes(sub, bytes);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sub.count()) * 8);
}
BENCHMARK(BM_UnpackBytes)->Arg(128)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
