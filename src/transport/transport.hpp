// Transport abstraction: the seam between the coupling protocol and the
// machinery that moves its messages.
//
// A Transport owns the fabric connecting one cluster's processes; an
// Endpoint is one process's handle on it. Every backend delivers into a
// per-process Mailbox (MPI-style tagged matching), so all receive paths —
// blocking, polling, deadline — are identical across backends and the
// protocol layer never knows which one it is running on:
//
//   * FabricTransport      in-memory lossless fabric (transport/fabric.hpp)
//   * FaultTransport       seeded chaos decorator over ANY inner transport
//                          (transport/fault_transport.hpp)
//   * RealTransport        SHM rings intra-node + epoll TCP inter-node
//                          (transport/real/real_transport.hpp)
//
// Backends are selected per cluster via TransportOptions at the
// runtime::ClusterOptions level; see docs/DEPLOY.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "transport/mailbox.hpp"
#include "transport/message.hpp"

namespace ccf::transport {

/// Structural counters aggregated across a transport's endpoints. These
/// (not wall-clock numbers) are what the bench suite gates on.
struct TransportCounters {
  std::uint64_t frames_sent = 0;      ///< messages handed to the backend
  std::uint64_t frames_received = 0;  ///< messages delivered into mailboxes
  std::uint64_t bytes_framed = 0;     ///< wire bytes incl. frame headers

  // SHM ring path.
  std::uint64_t shm_frames = 0;               ///< frames that rode a ring
  std::uint64_t shm_zero_copy_deliveries = 0; ///< payloads aliasing ring memory
  std::uint64_t shm_zero_copy_bytes = 0;      ///< payload bytes never copied out
  std::uint64_t shm_inline_copies = 0;        ///< small payloads copied out
  std::uint64_t shm_inline_bytes = 0;
  std::uint64_t shm_producer_stalls = 0;      ///< sends that waited on a full ring
  std::uint64_t shm_doorbell_writes = 0;      ///< eventfd writes from the produce
                                              ///< path (idle-edge only; a burst
                                              ///< into an awake consumer writes 0)

  // TCP path.
  std::uint64_t tcp_frames = 0;
  std::uint64_t tcp_bytes = 0;          ///< wire bytes over sockets
  std::uint64_t tcp_read_syscalls = 0;
  std::uint64_t tcp_write_syscalls = 0;
  std::uint64_t tcp_connections = 0;    ///< handshakes completed (both roles)
  std::uint64_t tcp_rx_blocks = 0;            ///< receive blocks allocated
  std::uint64_t tcp_zero_copy_deliveries = 0; ///< payloads aliasing a receive block
  std::uint64_t tcp_zero_copy_bytes = 0;      ///< payload bytes never copied out
  std::uint64_t decode_errors = 0;      ///< malformed frames/handshakes rejected

  // Event loop.
  std::uint64_t epoll_waits = 0;
  std::uint64_t doorbells = 0;  ///< eventfd wakeups written (all wake paths)

  // Write-queue / ring backpressure edges (BufferPressure integration).
  std::uint64_t backpressure_raises = 0;
  std::uint64_t backpressure_clears = 0;
};

/// One process's handle on a Transport. send() is non-blocking and ordered
/// per (sender, receiver); inbox() is where the backend delivers. An
/// endpoint is attached once and used by that process only.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual ProcId id() const = 0;

  /// Non-blocking, ordered, reliable point-to-point send. `m.src` must be
  /// this endpoint's id; `m.seq` is stamped by the transport.
  virtual void send(Message m) = 0;

  /// The local delivery queue; all receive variants go through it.
  virtual Mailbox& inbox() = 0;

  /// Advisory: true while the backend's egress is congested (TCP write
  /// queue above its high watermark, or an SHM ring persistently full).
  /// The coupling runtime folds this into the collective BufferPressure
  /// protocol (docs/PROTOCOL.md).
  virtual bool under_pressure() const { return false; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Returns the endpoint for member `id`. Call at most once per id, from
  /// the process/thread that will use it.
  virtual std::shared_ptr<Endpoint> attach(ProcId id) = 0;

  /// Closes every local endpoint's mailbox (wakes blocked receivers) and
  /// tears down backend resources reachable from this process.
  virtual void shutdown() = 0;

  virtual TransportCounters counters() const = 0;
};

enum class TransportKind {
  InMemory,  ///< lossless in-process fabric (the default; no syscalls)
  Real,      ///< SHM rings intra-node + length-prefixed epoll TCP inter-node
};

/// Backend selection and tuning, carried inside runtime::ClusterOptions.
/// The defaults select the in-memory fabric and change nothing about
/// existing behavior.
struct TransportOptions {
  TransportKind kind = TransportKind::InMemory;

  /// Per-directed-pair SHM ring capacity. A frame (header + payload) must
  /// fit in one ring; oversized sends throw with a message naming this
  /// knob.
  std::size_t shm_ring_bytes = 1u << 20;

  /// TCP receive block size: each read() lands in a refcounted block this
  /// large (grown to fit a partial frame's remainder), and every complete
  /// frame inside one block is parsed from a single syscall. Payloads
  /// above real::kShmInlineBytes are delivered as zero-copy views aliasing
  /// the block. Tests shrink this to force frames to straddle block edges.
  std::size_t tcp_recv_block_bytes = 256u << 10;

  /// TCP write-queue watermarks driving Endpoint::under_pressure().
  std::size_t tcp_writeq_high_bytes = 4u << 20;
  std::size_t tcp_writeq_low_bytes = 1u << 20;

  /// Node id per process; members missing from the map are node 0.
  /// Same-node pairs communicate over SHM rings, cross-node pairs over
  /// TCP. (All on one node — the default — means no sockets at all.)
  std::unordered_map<ProcId, int> node_of;

  /// Handshake identity per process ("program/rank"); defaults to
  /// "proc/<id>". The TCP accept path verifies the peer's announced
  /// identity against this map.
  std::unordered_map<ProcId, std::string> identity;

  /// Rendezvous file listing `<proc> <host> <port>` for every TCP
  /// listener; written by the transport host, read at attach. Empty
  /// selects a unique temp path.
  std::string rendezvous_path;

  /// Listen/connect host for the TCP path.
  std::string host = "127.0.0.1";

  int node(ProcId id) const {
    auto it = node_of.find(id);
    return it == node_of.end() ? 0 : it->second;
  }

  std::string identity_of(ProcId id) const {
    auto it = identity.find(id);
    return it == identity.end() ? "proc/" + std::to_string(id) : it->second;
  }
};

/// Builds the backend selected by `options.kind` for `members`.
/// A RealTransport must be constructed *before* the member processes fork
/// or spawn (it maps the shared rings and binds the TCP listeners);
/// attach() is then called by each member wherever it runs.
std::shared_ptr<Transport> make_transport(const TransportOptions& options,
                                          const std::vector<ProcId>& members);

}  // namespace ccf::transport
