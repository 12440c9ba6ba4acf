// Chaos smoke over the REAL transport: the seeded FaultTransport
// decorator drops, duplicates, and delays control traffic on a live
// loopback-TCP + SHM deployment (RealThreads mode, programs split onto
// different transport nodes), and the failure-tolerance machinery must
// still converge every importer to the fault-free answers. This is the
// deep chaos harness's schedule-replay property (tests/integration/
// chaos_test.cpp) exercised end-to-end on real sockets instead of the
// virtual-time model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/system.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using dist::DistArray2D;
using transport::FaultInjector;
using transport::FaultPlan;

struct Answer {
  bool matched = false;
  Timestamp version = 0;

  bool operator==(const Answer& o) const {
    return matched == o.matched && (!matched || version == o.version);
  }
};

FrameworkOptions tolerant_options() {
  FrameworkOptions fw;
  fw.retry_timeout_seconds = 0.1;
  fw.heartbeat_interval_seconds = 0.5;
  fw.departure_timeout_seconds = 30.0;
  return fw;
}

bool control_plane_only(transport::ProcId, transport::ProcId, transport::Tag tag) {
  return tag >= kTagImportRequest && tag < kTagDataBase;
}

std::vector<std::vector<Answer>> run_real(std::shared_ptr<FaultInjector> faults,
                                          std::size_t tcp_recv_block_bytes = 0) {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", 2, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", 2, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, 2.5, {}});

  runtime::ClusterOptions cluster_options;
  cluster_options.mode = runtime::ExecutionMode::RealThreads;
  cluster_options.transport.kind = transport::TransportKind::Real;
  if (tcp_recv_block_bytes != 0)
    cluster_options.transport.tcp_recv_block_bytes = tcp_recv_block_bytes;
  cluster_options.faults = std::move(faults);
  CoupledSystem system(config, cluster_options, tolerant_options());
  // Split the two programs across transport nodes: intra-program traffic
  // and the E-side rep ride SHM, the E<->I coupling crosses loopback TCP.
  EXPECT_EQ(system.transport_kind("E"), "tcp");

  const dist::Index rows = 8, cols = 8;
  const auto e_decomp = BlockDecomposition::make_grid(rows, cols, 2);
  const auto i_decomp = BlockDecomposition::make_grid(rows, cols, 2);
  const std::vector<Timestamp> exports = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<Timestamp> requests = {1.5, 4.0, 5.5, 8.5};

  system.set_program_body("E", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_export_region("r", e_decomp);
    rt.commit();
    DistArray2D<double> data(e_decomp, rt.rank());
    for (Timestamp t : exports) {
      ctx.compute(1e-4);
      data.fill([&](dist::Index, dist::Index) { return t; });
      rt.export_region("r", t, data);
    }
    rt.finalize();
  });

  std::vector<std::vector<Answer>> per_rank(2);
  system.set_program_body("I", [&](CouplingRuntime& rt, runtime::ProcessContext& ctx) {
    rt.define_import_region("r", i_decomp);
    rt.commit();
    DistArray2D<double> data(i_decomp, rt.rank());
    auto& answers = per_rank[static_cast<std::size_t>(rt.rank())];
    for (Timestamp x : requests) {
      ctx.compute(1e-4);
      const auto status = rt.import_region("r", x, data);
      if (status.ok()) {
        EXPECT_DOUBLE_EQ(data.data()[0], status.matched);
        answers.push_back({true, status.matched});
      } else {
        answers.push_back({false, 0});
      }
    }
    rt.finalize();
  });

  system.run();
  EXPECT_EQ(system.transport_counters().decode_errors, 0u);
  return per_rank;
}

TEST(TransportChaos, SeededScheduleConvergesOnLoopbackTcp) {
  ::setenv("CCF_NODES", "split", 1);
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("CCF_NODES"); }
  } guard;

  const auto reference = run_real(nullptr);
  ASSERT_EQ(reference.size(), 2u);
  ASSERT_FALSE(reference[0].empty());
  EXPECT_EQ(reference[0], reference[1]) << "ranks must agree even fault-free";

  FaultPlan plan;
  plan.seed = 12;
  plan.drop_prob = 0.1;
  plan.duplicate_prob = 0.1;
  plan.delay_prob = 0.1;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.01;
  plan.eligible = control_plane_only;
  plan.max_faults = 40;
  auto injector = std::make_shared<FaultInjector>(plan);

  const auto chaotic = run_real(injector);
  ASSERT_EQ(chaotic.size(), 2u);
  for (std::size_t rank = 0; rank < 2; ++rank) {
    ASSERT_EQ(chaotic[rank].size(), reference[0].size()) << "rank " << rank;
    for (std::size_t i = 0; i < reference[0].size(); ++i) {
      EXPECT_TRUE(chaotic[rank][i] == reference[0][i])
          << "rank " << rank << " request " << i << ": got ("
          << chaotic[rank][i].matched << ", " << chaotic[rank][i].version
          << "), expected (" << reference[0][i].matched << ", "
          << reference[0][i].version << ")";
    }
  }
}

TEST(TransportChaos, BatchedPathWithTinyReceiveBlocksConverges) {
  // Same seeded chaos, but the TCP receive block is shrunk far below
  // typical frame sizes so every coalesced writev burst is parsed across
  // many block rotations: frames straddle block edges, headers split at
  // boundaries, and zero-copy views alias short-lived blocks — all while
  // the fault injector drops and reorders control traffic on top.
  ::setenv("CCF_NODES", "split", 1);
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("CCF_NODES"); }
  } guard;

  const std::size_t tiny_block = 192;
  const auto reference = run_real(nullptr, tiny_block);
  ASSERT_EQ(reference.size(), 2u);
  ASSERT_FALSE(reference[0].empty());
  EXPECT_EQ(reference[0], reference[1]);

  FaultPlan plan;
  plan.seed = 77;
  plan.drop_prob = 0.1;
  plan.duplicate_prob = 0.1;
  plan.delay_prob = 0.1;
  plan.delay_min_seconds = 0.001;
  plan.delay_max_seconds = 0.01;
  plan.eligible = control_plane_only;
  plan.max_faults = 40;

  const auto chaotic = run_real(std::make_shared<FaultInjector>(plan), tiny_block);
  ASSERT_EQ(chaotic.size(), 2u);
  for (std::size_t rank = 0; rank < 2; ++rank) {
    ASSERT_EQ(chaotic[rank].size(), reference[0].size()) << "rank " << rank;
    for (std::size_t i = 0; i < reference[0].size(); ++i) {
      EXPECT_TRUE(chaotic[rank][i] == reference[0][i])
          << "rank " << rank << " request " << i;
    }
  }
}

}  // namespace
}  // namespace ccf::core
