// Real-transport calibration: measures the one-way frame cost of the SHM
// ring path (both peers on one node) and the loopback TCP path (peers on
// nodes 0/1 of one host) over a payload-size sweep, then least-squares
// fits the LogP-style model `seconds = per_message + bytes / bandwidth`
// for each path. The fitted constants are recorded in
// BENCH_transport.json and mirrored by the virtual-time presets
// transport::shm_calibrated_model() / tcp_calibrated_model().
//
// Alongside the timings every row reports the transport's structural
// counters; bench/run_benches --suite transport gates on those only
// (exact frame/byte books, zero-copy SHM deliveries, clean decodes) —
// never on the wall-clock numbers.
//
// A second sweep drives each path at pipeline depth 1 and 8 (a window of
// messages in flight instead of strict ping-pong). At depth the batched
// data plane shows its syscall coalescing: several frames ride one
// writev/read on the TCP path, and SHM doorbells fire only on the
// consumer's idle edge. Every reply payload is verified byte-for-byte
// against what was sent, and a receive-order digest proves depth changes
// the schedule but never the bytes.
//
// Usage: bench_transport_cal [--json] [--messages=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "transport/real/wire.hpp"
#include "transport/transport.hpp"

namespace {

using namespace ccf;

struct Row {
  std::string path;  // "shm" | "tcp"
  std::size_t payload_bytes = 0;
  int messages = 0;
  double seconds_per_message = 0;  // one-way, timed over the ping-pong
  transport::TransportCounters counters;
};

Row run_pingpong(bool cross_node, std::size_t payload_bytes, int messages) {
  transport::TransportOptions opt;
  opt.kind = transport::TransportKind::Real;
  if (cross_node) opt.node_of[1] = 1;
  auto fabric = transport::make_transport(opt, {0, 1});

  const int warmup = std::max(8, messages / 10);
  const int total = warmup + messages;

  std::thread echo([&fabric, total] {
    auto ep = fabric->attach(1);
    for (int i = 0; i < total; ++i) {
      transport::Message m = ep->inbox().receive({});
      transport::Message reply;
      reply.src = 1;
      reply.dst = 0;
      reply.tag = m.tag;
      reply.payload = m.payload;  // zero-copy forward of the received view
      ep->send(std::move(reply));
    }
  });

  double elapsed = 0;
  {
    auto ep = fabric->attach(0);
    const auto payload =
        transport::make_payload(std::vector<std::byte>(payload_bytes, std::byte{0x5A}));
    auto round_trip = [&](int i) {
      transport::Message m;
      m.src = 0;
      m.dst = 1;
      m.tag = i;
      m.payload = payload;
      ep->send(std::move(m));
      (void)ep->inbox().receive({});
    };
    for (int i = 0; i < warmup; ++i) round_trip(i);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < messages; ++i) round_trip(warmup + i);
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  echo.join();

  Row row;
  row.path = cross_node ? "tcp" : "shm";
  row.payload_bytes = payload_bytes;
  row.messages = messages;
  row.seconds_per_message = elapsed / (2.0 * messages);
  row.counters = fabric->counters();
  return row;
}

struct PipeRow {
  std::string path;  // "shm" | "tcp"
  std::size_t payload_bytes = 0;
  int depth = 0;     // messages kept in flight
  int messages = 0;
  double msgs_per_second = 0;
  std::uint64_t digest = 0;  // FNV-1a over (tag, payload bytes) in receive order
  transport::TransportCounters counters;
};

/// Keeps `depth` messages in flight against the same echo peer. Depth 1
/// degenerates to the ping-pong above; at depth >= 8 the wire batches:
/// several frames per writev/read block, doorbells only on idle edges.
PipeRow run_pipelined(bool cross_node, std::size_t payload_bytes, int messages, int depth) {
  transport::TransportOptions opt;
  opt.kind = transport::TransportKind::Real;
  if (cross_node) opt.node_of[1] = 1;
  auto fabric = transport::make_transport(opt, {0, 1});

  const int warmup = std::max(depth, messages / 10);
  const int total = warmup + messages;

  std::thread echo([&fabric, total] {
    auto ep = fabric->attach(1);
    for (int i = 0; i < total; ++i) {
      transport::Message m = ep->inbox().receive({});
      transport::Message reply;
      reply.src = 1;
      reply.dst = 0;
      reply.tag = m.tag;
      reply.payload = m.payload;  // zero-copy forward of the received view
      ep->send(std::move(reply));
    }
  });

  PipeRow row;
  row.path = cross_node ? "tcp" : "shm";
  row.payload_bytes = payload_bytes;
  row.depth = depth;
  row.messages = messages;
  {
    auto ep = fabric->attach(0);
    std::vector<std::byte> pattern(payload_bytes);
    for (std::size_t i = 0; i < payload_bytes; ++i) {
      pattern[i] = static_cast<std::byte>(i * 131u + 7u);
    }
    const auto payload = transport::make_payload(std::vector<std::byte>(pattern));
    auto send_one = [&](int i) {
      transport::Message m;
      m.src = 0;
      m.dst = 1;
      m.tag = i;
      m.payload = payload;
      ep->send(std::move(m));
    };
    std::uint64_t digest = 1469598103934665603ull;  // FNV offset basis
    auto fold = [&digest](const void* data, std::size_t n) {
      const auto* p = static_cast<const std::byte*>(data);
      for (std::size_t i = 0; i < n; ++i) {
        digest = (digest ^ static_cast<std::uint64_t>(p[i])) * 1099511628211ull;
      }
    };
    int sent = 0, received = 0;
    bool timed = false;
    auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0;
    while (received < total) {
      while (sent < total && sent - received < depth) send_one(sent++);
      transport::Message m = ep->inbox().receive({});
      if (m.payload.size() != payload_bytes ||
          (payload_bytes != 0 &&
           std::memcmp(m.payload.data(), pattern.data(), payload_bytes) != 0)) {
        std::cerr << "pipelined reply " << received << " corrupt on " << row.path << "\n";
        std::abort();
      }
      if (received >= warmup) {
        // Byte identity is enforced by the memcmp above; the digest only
        // witnesses the receive schedule (tag order + payload edges), so
        // fold a bounded sample to keep it off the critical path.
        const std::int64_t tag64 = m.tag;
        fold(&tag64, sizeof tag64);
        const std::size_t n = m.payload.size();
        const std::size_t edge = std::min<std::size_t>(n, 32);
        fold(&n, sizeof n);
        fold(m.payload.data(), edge);
        fold(m.payload.data() + (n - edge), edge);
      }
      ++received;
      if (received == warmup && !timed) {
        timed = true;
        t0 = std::chrono::steady_clock::now();
      }
    }
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    row.msgs_per_second = elapsed > 0 ? messages / elapsed : 0;
    row.digest = digest;
  }
  echo.join();
  row.counters = fabric->counters();
  return row;
}

struct Fit {
  double per_message_seconds = 0;
  double bytes_per_second = 0;
};

/// LogP-style fit of `seconds = per_message + bytes / bandwidth`: the
/// per-message cost comes from the smallest-payload row, the bandwidth
/// from the slope between the extreme sizes. (A plain least-squares
/// intercept goes negative on the TCP path because mid-size rows ride
/// the socket autotuning knee below the large-message asymptote.)
Fit fit_rows(const std::vector<Row>& rows) {
  Fit fit;
  if (rows.empty()) return fit;
  const Row& small = rows.front();
  const Row& large = rows.back();
  const double dx =
      static_cast<double>(large.payload_bytes) - static_cast<double>(small.payload_bytes);
  const double dy = large.seconds_per_message - small.seconds_per_message;
  const double slope = dx > 0 && dy > 0 ? dy / dx : 0;
  fit.bytes_per_second = slope > 0 ? 1.0 / slope : 0;
  fit.per_message_seconds = std::max(
      0.0, small.seconds_per_message - static_cast<double>(small.payload_bytes) * slope);
  return fit;
}

void emit_counters(std::ostringstream& os, const transport::TransportCounters& c) {
  os << "\"frames_sent\": " << c.frames_sent
     << ", \"frames_received\": " << c.frames_received
     << ", \"bytes_framed\": " << c.bytes_framed << ", \"shm_frames\": " << c.shm_frames
     << ", \"shm_zero_copy_deliveries\": " << c.shm_zero_copy_deliveries
     << ", \"shm_inline_copies\": " << c.shm_inline_copies
     << ", \"shm_producer_stalls\": " << c.shm_producer_stalls
     << ", \"shm_doorbell_writes\": " << c.shm_doorbell_writes
     << ", \"tcp_frames\": " << c.tcp_frames << ", \"tcp_bytes\": " << c.tcp_bytes
     << ", \"tcp_read_syscalls\": " << c.tcp_read_syscalls
     << ", \"tcp_write_syscalls\": " << c.tcp_write_syscalls
     << ", \"tcp_rx_blocks\": " << c.tcp_rx_blocks
     << ", \"tcp_zero_copy_deliveries\": " << c.tcp_zero_copy_deliveries
     << ", \"tcp_connections\": " << c.tcp_connections
     << ", \"decode_errors\": " << c.decode_errors << ", \"doorbells\": " << c.doorbells;
}

void emit_json(const std::vector<Row>& rows, const std::vector<PipeRow>& pipes,
               const Fit& shm, const Fit& tcp, std::size_t inline_bytes) {
  std::ostringstream os;
  os << "{\n  \"frame_header_bytes\": " << transport::real::kFrameHeaderBytes
     << ",\n  \"shm_inline_bytes\": " << inline_bytes << ",\n  \"fit\": {\n";
  auto fit_obj = [&os](const char* name, const Fit& f, bool last) {
    os << "    \"" << name << "\": {\"per_message_seconds\": " << f.per_message_seconds
       << ", \"bytes_per_second\": " << f.bytes_per_second << "}" << (last ? "\n" : ",\n");
  };
  fit_obj("shm", shm, false);
  fit_obj("tcp", tcp, true);
  os << "  },\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"path\": \"" << r.path << "\", \"payload_bytes\": " << r.payload_bytes
       << ", \"messages\": " << r.messages
       << ", \"seconds_per_message\": " << r.seconds_per_message << ", ";
    emit_counters(os, r.counters);
    os << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"pipeline\": [\n";
  for (std::size_t i = 0; i < pipes.size(); ++i) {
    const PipeRow& r = pipes[i];
    os << "    {\"path\": \"" << r.path << "\", \"payload_bytes\": " << r.payload_bytes
       << ", \"depth\": " << r.depth << ", \"messages\": " << r.messages
       << ", \"msgs_per_second\": " << r.msgs_per_second << ", \"digest\": " << r.digest
       << ", ";
    emit_counters(os, r.counters);
    os << "}" << (i + 1 < pipes.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int messages_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--messages=", 0) == 0) {
      messages_override = std::stoi(arg.substr(11));
    } else {
      std::cerr << "usage: bench_transport_cal [--json] [--messages=N]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> sizes = {64, 4096, 65536, 524288};
  std::vector<Row> rows;
  for (const bool cross_node : {false, true}) {
    for (const std::size_t bytes : sizes) {
      // Fewer iterations for large payloads so the sweep stays quick.
      int messages = static_cast<int>(std::max<std::size_t>(128, (8u << 20) / (bytes + 1)));
      messages = std::min(messages, 4096);
      if (messages_override > 0) messages = messages_override;
      rows.push_back(run_pingpong(cross_node, bytes, messages));
    }
  }

  // Pipelined sweep: same echo workload with a window of messages in
  // flight. 4 KiB payloads keep the paths latency-bound (not bandwidth-
  // bound), so depth >= 8 exposes the syscall coalescing: dozens of
  // frames fit one receive block, and doorbells ring only on idle edges.
  const std::size_t pipe_payload = 4096;
  std::vector<PipeRow> pipes;
  for (const bool cross_node : {false, true}) {
    for (const int depth : {1, 8}) {
      int messages = messages_override > 0 ? messages_override : 4096;
      pipes.push_back(run_pipelined(cross_node, pipe_payload, messages, depth));
    }
  }

  std::vector<Row> shm_rows, tcp_rows;
  for (const Row& r : rows) (r.path == "shm" ? shm_rows : tcp_rows).push_back(r);
  const Fit shm = fit_rows(shm_rows);
  const Fit tcp = fit_rows(tcp_rows);

  const std::size_t inline_bytes = transport::real::kShmInlineBytes;
  if (json) {
    emit_json(rows, pipes, shm, tcp, inline_bytes);
    return 0;
  }
  std::cout << "path  payload  msgs  us/msg   frames  zero-copy  inline  tcp-frames\n";
  for (const Row& r : rows) {
    std::printf("%-4s %8zu %5d %8.2f %8llu %10llu %7llu %11llu\n", r.path.c_str(),
                r.payload_bytes, r.messages, r.seconds_per_message * 1e6,
                static_cast<unsigned long long>(r.counters.frames_sent),
                static_cast<unsigned long long>(r.counters.shm_zero_copy_deliveries),
                static_cast<unsigned long long>(r.counters.shm_inline_copies),
                static_cast<unsigned long long>(r.counters.tcp_frames));
  }
  std::printf("fit shm: %.2f us/msg, %.2f GB/s\n", shm.per_message_seconds * 1e6,
              shm.bytes_per_second / 1e9);
  std::printf("fit tcp: %.2f us/msg, %.2f GB/s\n", tcp.per_message_seconds * 1e6,
              tcp.bytes_per_second / 1e9);
  std::printf("\npath  depth  msgs/s   syscalls/frame  doorbells/frame\n");
  for (const PipeRow& p : pipes) {
    const auto& c = p.counters;
    const double sys_per_frame =
        c.tcp_frames ? static_cast<double>(c.tcp_read_syscalls + c.tcp_write_syscalls) /
                           static_cast<double>(c.tcp_frames)
                     : 0.0;
    const double bell_per_frame =
        c.shm_frames ? static_cast<double>(c.shm_doorbell_writes) /
                           static_cast<double>(c.shm_frames)
                     : 0.0;
    std::printf("%-4s %6d %8.0f %15.2f %16.2f\n", p.path.c_str(), p.depth,
                p.msgs_per_second, sys_per_frame, bell_per_frame);
  }
  return 0;
}
