// Microbenchmarks of the transport substrate and the virtual-time
// executor: serialization, mailbox matching, network routing, and the
// discrete-event scheduler's event throughput (which bounds how large a
// virtual experiment is practical).
#include <benchmark/benchmark.h>

#include "runtime/virtual_time_cluster.hpp"
#include "transport/fabric.hpp"
#include "transport/serialize.hpp"

namespace {

using namespace ccf::transport;

void BM_SerializeDoubles(benchmark::State& state) {
  const std::vector<double> data(static_cast<std::size_t>(state.range(0)), 3.14);
  for (auto _ : state) {
    Writer w;
    w.put_vector(data);
    Reader r(w.take());
    auto out = r.get_vector<double>();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) * 8);
}
BENCHMARK(BM_SerializeDoubles)->Arg(64)->Arg(4096)->Arg(262144);

void BM_MailboxDeliverReceive(benchmark::State& state) {
  Mailbox box;
  Message m;
  m.src = 1;
  m.dst = 0;
  m.tag = 7;
  m.payload = empty_payload();
  for (auto _ : state) {
    box.deliver(m);
    benchmark::DoNotOptimize(box.receive(MatchSpec{1, 7}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxDeliverReceive);

void BM_MailboxTaggedScan(benchmark::State& state) {
  // Receive must scan past non-matching queued messages.
  const auto depth = state.range(0);
  Mailbox box;
  for (int i = 0; i < depth; ++i) {
    Message noise;
    noise.src = 1;
    noise.tag = 1;
    noise.payload = empty_payload();
    box.deliver(std::move(noise));
  }
  Message wanted;
  wanted.src = 2;
  wanted.tag = 2;
  wanted.payload = empty_payload();
  for (auto _ : state) {
    box.deliver(wanted);
    benchmark::DoNotOptimize(box.receive(MatchSpec{2, 2}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxTaggedScan)->Arg(0)->Arg(16)->Arg(256);

/// Fanning one payload out to many mailboxes: with refcounted payload
/// views each enqueue copies a pointer, not the bytes, so cost per
/// delivery is flat in payload size (compare Arg(64) vs Arg(262144)).
void BM_PayloadFanout(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0)) * sizeof(double);
  const Payload payload = make_payload(std::vector<std::byte>(bytes, std::byte{1}));
  constexpr int kDests = 16;
  std::vector<Mailbox> boxes(kDests);
  Message m;
  m.src = 0;
  m.tag = 5;
  for (auto _ : state) {
    for (int d = 0; d < kDests; ++d) {
      m.dst = d;
      m.payload = payload;  // view copy: O(1) regardless of size
      boxes[static_cast<std::size_t>(d)].deliver(m);
    }
    for (int d = 0; d < kDests; ++d) {
      benchmark::DoNotOptimize(boxes[static_cast<std::size_t>(d)].receive(MatchSpec{0, 5}));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kDests);
}
BENCHMARK(BM_PayloadFanout)->Arg(64)->Arg(262144);

/// Forwarding a slice of a received payload (the mailbox/fault/relay
/// pattern): slicing shares the buffer, so this never touches the bytes.
void BM_PayloadSliceForward(benchmark::State& state) {
  const std::size_t bytes = 2 * 1024 * 1024;
  const Payload whole = make_payload(std::vector<std::byte>(bytes, std::byte{2}));
  Mailbox box;
  Message m;
  m.src = 1;
  m.dst = 0;
  m.tag = 9;
  for (auto _ : state) {
    m.payload = whole.slice(bytes / 4, bytes / 2);
    box.deliver(m);
    benchmark::DoNotOptimize(box.receive(MatchSpec{1, 9}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayloadSliceForward);

void BM_FabricSend(benchmark::State& state) {
  FabricTransport fabric({0, 1});
  auto sender = fabric.attach(0);
  auto receiver = fabric.attach(1);
  Message m;
  m.src = 0;
  m.dst = 1;
  m.tag = 3;
  m.payload = empty_payload();
  for (auto _ : state) {
    sender->send(m);
    benchmark::DoNotOptimize(receiver->inbox().receive(MatchSpec{}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricSend);

void BM_VirtualClusterEvents(benchmark::State& state) {
  // Event throughput of the deterministic scheduler: P processes doing a
  // message ring with per-hop advances.
  const int procs = static_cast<int>(state.range(0));
  const int rounds = 200;
  for (auto _ : state) {
    ccf::runtime::VirtualTimeCluster cluster;
    for (int p = 0; p < procs; ++p) {
      cluster.add_process(p, [&, p](ccf::runtime::ProcessContext& ctx) {
        for (int i = 0; i < rounds; ++i) {
          ctx.send((p + 1) % procs, 1, empty_payload());
          ctx.compute(0.001);
          (void)ctx.recv(MatchSpec{(p + procs - 1) % procs, 1});
        }
      });
    }
    cluster.run();
    state.counters["events"] = static_cast<double>(cluster.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * procs * rounds * 3);
}
BENCHMARK(BM_VirtualClusterEvents)->Arg(2)->Arg(8)->Arg(38)->Unit(benchmark::kMillisecond);

void BM_VirtualClusterStartup(benchmark::State& state) {
  // What a run pays per process before any work: building it, giving its
  // fiber a stack, switching to it and back, and taking the stack back.
  // Every process advances once; from the second iteration on the stacks
  // come from the pool the previous run filled.
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ccf::runtime::VirtualTimeCluster cluster;
    for (int p = 0; p < procs; ++p) {
      cluster.add_process(p, [](ccf::runtime::ProcessContext& ctx) { ctx.compute(0.001); });
    }
    cluster.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * procs);
}
BENCHMARK(BM_VirtualClusterStartup)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
