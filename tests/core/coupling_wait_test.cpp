// CouplingRuntime's blocking waits driven to their bounds on a scripted
// context: in failure-tolerant mode every silent deadline is a tick that
// re-sends the wait's message, the deadlines back off from a
// rank-staggered first timeout up to the cap, and after kMaxRetries ticks
// the wait gives up with a TimeoutError naming what it waited for. The
// shutdown wait and the buffer-space stall end instead at the departure
// window, which derives from the retry timeout alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/coupling_runtime.hpp"
#include "core/protocol.hpp"
#include "runtime/scripted_context.hpp"
#include "transport/serialize.hpp"

namespace ccf::core {
namespace {

using dist::BlockDecomposition;
using runtime::Message;
using runtime::ScriptedContext;

/// A ScriptedContext that notes the clock at every send, so a test can
/// read when each tick fired: its re-sends carry the expired deadline.
class ClockedContext final : public runtime::ProcessContext {
 public:
  explicit ClockedContext(ProcId id) : inner_(id) {}

  ProcId id() const override { return inner_.id(); }
  void send(ProcId dst, Tag tag, Payload payload) override {
    sent_at_[tag].push_back(now());
    inner_.send(dst, tag, std::move(payload));
  }
  Message recv(const runtime::MatchSpec& spec) override { return inner_.recv(spec); }
  std::optional<Message> try_recv(const runtime::MatchSpec& spec) override {
    return inner_.try_recv(spec);
  }
  std::optional<Message> recv_until(const runtime::MatchSpec& spec, double deadline) override {
    return inner_.recv_until(spec, deadline);
  }
  double now() const override { return inner_.now(); }
  void compute(double seconds) override { inner_.compute(seconds); }
  void copy(void* dst, const void* src, std::size_t bytes) override {
    inner_.copy(dst, src, bytes);
  }

  ScriptedContext& inner() { return inner_; }
  /// ctx.now() at each send of `tag`, in send order.
  std::vector<double> sent_at(Tag tag) const {
    auto it = sent_at_.find(tag);
    return it == sent_at_.end() ? std::vector<double>{} : it->second;
  }

 private:
  ScriptedContext inner_;
  std::map<Tag, std::vector<double>> sent_at_;
};

constexpr double kRetryTimeout = 0.05;
/// Silence that reads as departure: 200 retry timeouts.
constexpr double kDepartureWindow = 200 * kRetryTimeout;

FrameworkOptions tolerant_options() {
  FrameworkOptions fw;
  fw.retry_timeout_seconds = kRetryTimeout;
  return fw;
}

/// E (one rank) exports "r" on connection 0 to I (two ranks), flat reps.
Config coupling() {
  Config config;
  config.add_program(ProgramSpec{"E", "h", "/e", 1, {}});
  config.add_program(ProgramSpec{"I", "h", "/i", 2, {}});
  config.add_connection(ConnectionSpec{"E", "r", "I", "r", MatchPolicy::REGL, 2.5, {}});
  return config;
}

/// The times a wait's ticks fire from `start`: the first timeout is
/// staggered by rank, each next one kRetryBackoffFactor times longer,
/// capped at backoff_cap_seconds().
std::vector<double> expected_ticks(double start, int rank, int ticks) {
  const FrameworkOptions fw = tolerant_options();
  std::vector<double> out;
  double timeout = kRetryTimeout * (1.0 + 0.1 * rank);
  double now = start;
  for (int k = 0; k < ticks; ++k) {
    now += timeout;
    out.push_back(now);
    timeout = std::min(timeout * kRetryBackoffFactor, fw.backoff_cap_seconds());
  }
  return out;
}

void expect_times(const std::vector<double>& got, const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) EXPECT_DOUBLE_EQ(got[k], want[k]) << "tick " << k;
}

/// Shard 0's geometry broadcast from `rep` to `dst`: connection 0's peer
/// region is `peer`.
Message geometry_bcast(ProcId rep, ProcId dst, const RegionMeta& peer) {
  transport::Writer w;
  w.put<std::uint32_t>(0);
  w.put<std::uint32_t>(1);
  w.put<std::uint32_t>(0);
  peer.encode_into(w);
  Message bcast;
  bcast.src = rep;
  bcast.dst = dst;
  bcast.tag = kTagRegionMetaBcast;
  bcast.payload = w.take();
  return bcast;
}

TEST(CouplingWaits, GeometryWaitGivesUpAfterMaxRetries) {
  const Config config = coupling();
  const DeploymentLayout layout(config);
  const ProgramLayout& imp = layout.program("I");
  for (int rank : {0, 1}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    ClockedContext ctx(imp.proc(rank));
    CouplingRuntime rt(ctx, config, layout, "I", rank, tolerant_options());
    rt.define_import_region("r", BlockDecomposition::make_grid(8, 8, 2));
    try {
      rt.commit();
      FAIL() << "commit() with an empty inbox returned";
    } catch (const util::TimeoutError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("geometry wait"), std::string::npos) << what;
      EXPECT_NE(what.find("process " + std::to_string(imp.proc(rank))), std::string::npos)
          << what;
    }
    EXPECT_EQ(rt.stats_snapshot().ft.commit_retries, static_cast<std::uint64_t>(kMaxRetries));

    // Every rank nudges the rep on every tick; rank 0 also re-sends the
    // definitions it sent at the start.
    const std::vector<double> ticks = expected_ticks(0, rank, kMaxRetries + 1);
    const std::vector<double> resent(ticks.begin(), ticks.end() - 1);
    expect_times(ctx.sent_at(kTagMetaNudge), resent);
    std::vector<double> defs;
    if (rank == 0) {
      defs.push_back(0);
      defs.insert(defs.end(), resent.begin(), resent.end());
    }
    expect_times(ctx.sent_at(kTagRegionDefs), defs);
    // The wait gives up at the deadline after the last re-send.
    EXPECT_DOUBLE_EQ(ctx.now(), ticks.back());
  }
}

TEST(CouplingWaits, AnswerWaitResendsTheRequestOnEveryTick) {
  const Config config = coupling();
  const DeploymentLayout layout(config);
  const ProgramLayout& imp = layout.program("I");
  for (int rank : {0, 1}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    ClockedContext ctx(imp.proc(rank));
    CouplingRuntime rt(ctx, config, layout, "I", rank, tolerant_options());
    const auto decomp = BlockDecomposition::make_grid(8, 8, 2);
    rt.define_import_region("r", decomp);

    // Connection 0's exporter region is 8x8 on one rank.
    ctx.inner().push_inbox(geometry_bcast(imp.rep, imp.proc(rank), RegionMeta{"r", 8, 8, 1, 1}));
    rt.commit();
    EXPECT_EQ(rt.stats_snapshot().ft.commit_retries, 0u);

    const double start = ctx.now();
    dist::DistArray2D<double> out(decomp, rank);
    try {
      rt.import_region("r", 1.5, out);
      FAIL() << "import with no answer returned";
    } catch (const util::TimeoutError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("answer wait on connection 0 seq 0"), std::string::npos) << what;
      EXPECT_NE(what.find("process " + std::to_string(imp.proc(rank))), std::string::npos)
          << what;
    }
    EXPECT_EQ(rt.stats_snapshot().ft.request_retries, static_cast<std::uint64_t>(kMaxRetries));

    // Rank 0 sent the request itself; every rank re-sends it on every tick.
    const std::vector<double> ticks = expected_ticks(start, rank, kMaxRetries + 1);
    std::vector<double> sends;
    if (rank == 0) sends.push_back(start);
    sends.insert(sends.end(), ticks.begin(), ticks.end() - 1);
    expect_times(ctx.sent_at(kTagImportRequest), sends);
    for (const Message& m : ctx.inner().sent_with_tag(kTagImportRequest)) {
      const RequestMsg req = RequestMsg::decode(m.payload);
      EXPECT_EQ(req.conn, 0u);
      EXPECT_EQ(req.seq, 0u);
      EXPECT_EQ(req.requested, 1.5);
      EXPECT_EQ(m.dst, imp.rep);
    }
    EXPECT_DOUBLE_EQ(ctx.now(), ticks.back());
  }
}

TEST(CouplingWaits, ShutdownWaitResendsConnDoneUntilTheDepartureWindow) {
  const Config config = coupling();
  const DeploymentLayout layout(config);
  const ProgramLayout& imp = layout.program("I");
  for (int rank : {0, 1}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    ClockedContext ctx(imp.proc(rank));
    CouplingRuntime rt(ctx, config, layout, "I", rank, tolerant_options());
    rt.define_import_region("r", BlockDecomposition::make_grid(8, 8, 2));
    // The geometry broadcast is the last the rank hears from its rep.
    ctx.inner().push_inbox(geometry_bcast(imp.rep, imp.proc(rank), RegionMeta{"r", 8, 8, 1, 1}));
    rt.commit();
    const double last_heard = ctx.now();

    // No ShutdownProc ever comes: every rank reports its own completion,
    // re-sends it on every tick, and at the first tick more than a
    // departure window after the rep's last message presumes the rep gone.
    rt.finalize();
    const std::vector<double> ticks = expected_ticks(last_heard, rank, kMaxRetries);
    const auto departs = std::find_if(ticks.begin(), ticks.end(), [&](double t) {
      return t - last_heard > kDepartureWindow;
    });
    ASSERT_NE(departs, ticks.end());
    std::vector<double> sends{last_heard};
    sends.insert(sends.end(), ticks.begin(), departs);
    expect_times(ctx.sent_at(kTagImporterConnDone), sends);
    for (const Message& m : ctx.inner().sent_with_tag(kTagImporterConnDone)) {
      EXPECT_EQ(ConnMsg::decode(m.payload).conn, 0u);
      EXPECT_EQ(m.dst, imp.rep);
    }
    const ProcStats stats = rt.stats_snapshot();
    EXPECT_TRUE(stats.ft.rep_departed);
    EXPECT_EQ(stats.ft.conn_done_retries, sends.size() - 1);
    EXPECT_DOUBLE_EQ(stats.finished_at, *departs);
    EXPECT_DOUBLE_EQ(ctx.now(), *departs);
  }
}

TEST(CouplingWaits, BufferStallDegradesOnceAtTheDepartureWindow) {
  const Config config = coupling();
  const DeploymentLayout layout(config);
  const ProgramLayout& exp = layout.program("E");
  const auto decomp = BlockDecomposition::make_grid(8, 8, 1);
  const auto importer = BlockDecomposition::make_grid(8, 8, 2);
  FrameworkOptions fw = tolerant_options();
  fw.memory.budget_bytes = static_cast<std::size_t>(decomp.box_of(0).count()) * sizeof(double);

  ClockedContext ctx(exp.proc(0));
  CouplingRuntime rt(ctx, config, layout, "E", 0, fw);
  rt.define_export_region("r", decomp);
  ctx.inner().push_inbox(geometry_bcast(
      exp.rep, exp.proc(0),
      RegionMeta{"r", 8, 8, importer.proc_rows(), importer.proc_cols()}));
  rt.commit();

  // The first snapshot fills the budget. With no request outstanding the
  // second export stalls on framework traffic; none comes, so the stall
  // ticks once, a departure window after it began, and force-closes the
  // connection, which frees the first snapshot.
  dist::DistArray2D<double> data(decomp, 0);
  rt.export_region("r", 1.0, data);
  const double stall_entry = ctx.now();
  rt.export_region("r", 2.0, data);

  const ExportRegionStats stats = rt.stats_snapshot().exports.at(0);
  EXPECT_EQ(stats.exports, 2u);
  EXPECT_EQ(stats.stalls, 1u);
  EXPECT_DOUBLE_EQ(stats.stall_seconds, kDepartureWindow);
  EXPECT_EQ(stats.degraded_conns, 1u);
  EXPECT_DOUBLE_EQ(ctx.now(), stall_entry + kDepartureWindow);
  // Pressure rose with the first snapshot and cleared when the tick freed it.
  const std::vector<double> pressure = ctx.sent_at(kTagProcPressure);
  ASSERT_EQ(pressure.size(), 2u);
  EXPECT_DOUBLE_EQ(pressure[1], stall_entry + kDepartureWindow);
}

}  // namespace
}  // namespace ccf::core
