// Result-codec round-trip tests: the byte encodings that carry a forked
// child's run results back to the launcher (runtime::ResultChannel) must
// reproduce every field — counter blocks, trace events, published series,
// rep answers — exactly. The per-field checks are the reference that
// catches a field the codec drops. A silently dropped field here would corrupt reports only in
// process mode, the one mode where the launcher can't see the child's
// memory.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/result_codec.hpp"

namespace ccf::core {
namespace {

ProcStats sample_stats() {
  ProcStats s;
  ExportRegionStats e;
  e.region = "velocity";
  e.exports = 12;
  e.transfers = 9;
  e.buffer.stores = 12;
  e.buffer.skips = 3;
  e.buffer.peak_bytes = 4096;
  e.buffer.evictions = 2;
  e.buffer.spill_bytes = 512;
  e.buffer.restores = 1;
  e.bytes_delivered = 65536;
  e.bytes_pack_copied = 1024;
  e.sends_aliased = 7;
  e.sends_packed = 2;
  e.export_seconds = {0.001, 0.002, 0.0035};
  e.export_timestamps = {1.0, 2.0, 3.5};
  e.t_i = {0.25, 0.0, 1.75};
  e.buddy_helps_received = 4;
  e.local_decisions = 5;
  e.matcher_evaluations = 40;
  e.matcher_pending = 3;
  e.stalls = 2;
  e.stall_seconds = 0.125;
  e.duplicate_requests = 1;
  e.reordered_requests = 2;
  e.degraded_conns = 1;
  TraceEvent ev;
  ev.kind = TraceKind::ExportCopy;
  ev.when = 0.25;
  ev.a = 1.0;
  ev.b = 2.0;
  ev.result = MatchResult::Match;
  e.trace_events = {ev, ev};
  e.trace_events[1].kind = TraceKind::BuddyHelp;
  s.exports.push_back(e);

  ImportRegionStats i;
  i.region = "pressure";
  i.imports = 8;
  i.matches = 6;
  i.no_matches = 2;
  i.import_seconds = {0.01, 0.02};
  i.matched_timestamps = {1.5, 4.0};
  i.pressure_throttles = 3;
  i.throttle_seconds = 0.75;
  s.imports.push_back(i);

  s.ft.request_retries = 5;
  s.ft.stale_answers = 2;
  s.ft.heartbeats = 11;
  s.ft.commit_retries = 1;
  s.ft.conn_done_retries = 2;
  s.ft.reparents = 1;
  s.ft.rep_departed = true;
  s.finished_at = 123.5;
  s.governor.peak_charged_bytes = 1 << 20;
  s.governor.pressure_raises = 7;
  s.governor.budget_denials = 2;
  s.pressure_signals = 3;
  s.pressure_notices = 4;
  s.published["energy"] = {1.5, -0.25, 3e-9};
  s.published["empty"] = {};
  return s;
}

TEST(ResultCodec, ProcResultRoundTripsEveryField) {
  const ProcStats want = sample_stats();
  const ProcStats got = decode_proc_result(encode_proc_result(want));

  ASSERT_EQ(got.exports.size(), 1u);
  const ExportRegionStats& e = got.exports[0];
  const ExportRegionStats& we = want.exports[0];
  EXPECT_EQ(e.region, we.region);
  EXPECT_EQ(e.exports, we.exports);
  EXPECT_EQ(e.transfers, we.transfers);
  EXPECT_EQ(e.buffer.stores, we.buffer.stores);
  EXPECT_EQ(e.buffer.skips, we.buffer.skips);
  EXPECT_EQ(e.buffer.peak_bytes, we.buffer.peak_bytes);
  EXPECT_EQ(e.buffer.evictions, we.buffer.evictions);
  EXPECT_EQ(e.buffer.spill_bytes, we.buffer.spill_bytes);
  EXPECT_EQ(e.buffer.restores, we.buffer.restores);
  EXPECT_EQ(e.bytes_delivered, we.bytes_delivered);
  EXPECT_EQ(e.bytes_pack_copied, we.bytes_pack_copied);
  EXPECT_EQ(e.sends_aliased, we.sends_aliased);
  EXPECT_EQ(e.sends_packed, we.sends_packed);
  EXPECT_EQ(e.export_seconds, we.export_seconds);
  EXPECT_EQ(e.export_timestamps, we.export_timestamps);
  EXPECT_EQ(e.t_i, we.t_i);
  EXPECT_DOUBLE_EQ(e.t_ub(), we.t_ub());
  EXPECT_EQ(e.buddy_helps_received, we.buddy_helps_received);
  EXPECT_EQ(e.local_decisions, we.local_decisions);
  EXPECT_EQ(e.matcher_evaluations, we.matcher_evaluations);
  EXPECT_EQ(e.matcher_pending, we.matcher_pending);
  EXPECT_EQ(e.stalls, we.stalls);
  EXPECT_DOUBLE_EQ(e.stall_seconds, we.stall_seconds);
  EXPECT_EQ(e.duplicate_requests, we.duplicate_requests);
  EXPECT_EQ(e.reordered_requests, we.reordered_requests);
  EXPECT_EQ(e.degraded_conns, we.degraded_conns);
  ASSERT_EQ(e.trace_events.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(e.trace_events[k].kind, we.trace_events[k].kind);
    EXPECT_DOUBLE_EQ(e.trace_events[k].when, we.trace_events[k].when);
    EXPECT_DOUBLE_EQ(e.trace_events[k].a, we.trace_events[k].a);
    EXPECT_DOUBLE_EQ(e.trace_events[k].b, we.trace_events[k].b);
    EXPECT_EQ(e.trace_events[k].result, we.trace_events[k].result);
  }

  ASSERT_EQ(got.imports.size(), 1u);
  const ImportRegionStats& i = got.imports[0];
  const ImportRegionStats& wi = want.imports[0];
  EXPECT_EQ(i.region, wi.region);
  EXPECT_EQ(i.imports, wi.imports);
  EXPECT_EQ(i.matches, wi.matches);
  EXPECT_EQ(i.no_matches, wi.no_matches);
  EXPECT_EQ(i.import_seconds, wi.import_seconds);
  EXPECT_EQ(i.matched_timestamps, wi.matched_timestamps);
  EXPECT_EQ(i.pressure_throttles, wi.pressure_throttles);
  EXPECT_DOUBLE_EQ(i.throttle_seconds, wi.throttle_seconds);

  EXPECT_EQ(got.ft.request_retries, want.ft.request_retries);
  EXPECT_EQ(got.ft.stale_answers, want.ft.stale_answers);
  EXPECT_EQ(got.ft.heartbeats, want.ft.heartbeats);
  EXPECT_EQ(got.ft.commit_retries, want.ft.commit_retries);
  EXPECT_EQ(got.ft.conn_done_retries, want.ft.conn_done_retries);
  EXPECT_EQ(got.ft.reparents, want.ft.reparents);
  EXPECT_EQ(got.ft.rep_departed, want.ft.rep_departed);
  EXPECT_DOUBLE_EQ(got.finished_at, want.finished_at);
  EXPECT_EQ(got.governor.peak_charged_bytes, want.governor.peak_charged_bytes);
  EXPECT_EQ(got.governor.pressure_raises, want.governor.pressure_raises);
  EXPECT_EQ(got.governor.budget_denials, want.governor.budget_denials);
  EXPECT_EQ(got.pressure_signals, want.pressure_signals);
  EXPECT_EQ(got.pressure_notices, want.pressure_notices);

  EXPECT_EQ(got.published, want.published);
  EXPECT_EQ(got.series("energy"), want.series("energy"));
  EXPECT_TRUE(got.series("absent").empty());
}

TEST(ResultCodec, EmptyProcResultRoundTrips) {
  const ProcStats got = decode_proc_result(encode_proc_result(ProcStats{}));
  EXPECT_TRUE(got.exports.empty());
  EXPECT_TRUE(got.imports.empty());
  EXPECT_TRUE(got.published.empty());
  EXPECT_EQ(got.ft.request_retries, 0u);
  EXPECT_FALSE(got.ft.rep_departed);
}

TEST(ResultCodec, RepResultRoundTripsCountersAndAnswers) {
  RepResult want;
  want.requests_forwarded = 10;
  want.answers_sent = 9;
  want.buddy_helps_sent = 2;
  want.responses_received = 9;
  want.duplicates_ignored = 1;
  want.answers_resent = 3;
  want.heartbeats_sent = 20;
  want.meta_resends = 1;
  want.forward_resends = 2;
  want.pressure_signals = 1;
  want.pressure_notices = 2;
  want.pressure_broadcasts = 3;
  want.wire_in = 55;
  want.frames_in = 5;
  want.frame_entries_in = 25;
  want.frames_out = 4;
  want.frame_entries_out = 16;
  AnswerMsg a;
  a.conn = 1;
  a.seq = 7;
  a.requested = 2.5;
  a.result = MatchResult::Match;
  a.matched = 2.0;
  AnswerMsg b;
  b.conn = 1;
  b.seq = 8;
  b.requested = 9.5;
  b.result = MatchResult::NoMatch;
  b.matched = kNeverExported;
  want.answers = {a, b};

  const RepResult got = decode_rep_result(encode_rep_result(want));
  EXPECT_EQ(got.requests_forwarded, want.requests_forwarded);
  EXPECT_EQ(got.answers_sent, want.answers_sent);
  EXPECT_EQ(got.buddy_helps_sent, want.buddy_helps_sent);
  EXPECT_EQ(got.responses_received, want.responses_received);
  EXPECT_EQ(got.duplicates_ignored, want.duplicates_ignored);
  EXPECT_EQ(got.answers_resent, want.answers_resent);
  EXPECT_EQ(got.heartbeats_sent, want.heartbeats_sent);
  EXPECT_EQ(got.meta_resends, want.meta_resends);
  EXPECT_EQ(got.forward_resends, want.forward_resends);
  EXPECT_EQ(got.pressure_signals, want.pressure_signals);
  EXPECT_EQ(got.pressure_notices, want.pressure_notices);
  EXPECT_EQ(got.pressure_broadcasts, want.pressure_broadcasts);
  EXPECT_EQ(got.wire_in, want.wire_in);
  EXPECT_EQ(got.frames_in, want.frames_in);
  EXPECT_EQ(got.frame_entries_in, want.frame_entries_in);
  EXPECT_EQ(got.frames_out, want.frames_out);
  EXPECT_EQ(got.frame_entries_out, want.frame_entries_out);
  ASSERT_EQ(got.answers.size(), 2u);
  EXPECT_EQ(got.answers[0].conn, a.conn);
  EXPECT_EQ(got.answers[0].seq, a.seq);
  EXPECT_DOUBLE_EQ(got.answers[0].requested, a.requested);
  EXPECT_EQ(got.answers[0].result, a.result);
  EXPECT_DOUBLE_EQ(got.answers[0].matched, a.matched);
  EXPECT_EQ(got.answers[1].seq, b.seq);
  EXPECT_EQ(got.answers[1].result, b.result);
}

TEST(ResultCodec, SubRepResultRoundTrips) {
  SubRepResult want;
  want.wire_in = 100;
  want.frames_up = 10;
  want.entries_up = 50;
  want.frames_down = 9;
  want.entries_down = 45;
  const SubRepResult got = decode_subrep_result(encode_subrep_result(want));
  EXPECT_EQ(got.wire_in, want.wire_in);
  EXPECT_EQ(got.frames_up, want.frames_up);
  EXPECT_EQ(got.entries_up, want.entries_up);
  EXPECT_EQ(got.frames_down, want.frames_down);
  EXPECT_EQ(got.entries_down, want.entries_down);
}

TEST(ResultCodec, TruncatedOrTrailingBytesAreRejected) {
  auto bytes = encode_rep_result(RepResult{});
  bytes.push_back(std::byte{0xFF});
  EXPECT_THROW((void)decode_rep_result(bytes), util::Error);

  auto sub = encode_subrep_result(SubRepResult{});
  sub.pop_back();
  EXPECT_THROW((void)decode_subrep_result(sub), util::Error);

  auto proc = encode_proc_result(sample_stats());
  auto trailing = proc;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)decode_proc_result(trailing), util::Error);
  proc.pop_back();
  EXPECT_THROW((void)decode_proc_result(proc), util::Error);
}

}  // namespace
}  // namespace ccf::core
