// Real deployment backend: SHM rings intra-node, epoll TCP inter-node.
//
// A RealTransport is constructed by the launching process BEFORE the
// member processes fork (runtime::ProcessCluster) or spawn their threads
// (thread-attached mode, used by tests and the calibration bench). The
// constructor allocates every shared resource up front:
//
//   * one MAP_SHARED|MAP_ANONYMOUS region holding the aggregate counters
//     and one SPSC ShmRing per directed same-node pair,
//   * one eventfd doorbell per member (ring producers ring it; the
//     member's event loop sleeps on it),
//   * one loopback TCP listener per member that has any cross-node peer,
//     with the `<proc> <host> <port>` map written to a rendezvous file.
//
// attach(id) — called wherever member `id` actually runs — spins up that
// member's endpoint: a single-threaded epoll event loop owning all of its
// sockets and inbound rings, delivering decoded frames into the local
// Mailbox. Sends go directly from the application thread: SHM frames are
// written straight into the peer's ring (the doorbell wakes its loop);
// TCP frames attempt an immediate nonblocking send and fall back to a
// per-connection write queue drained on EPOLLOUT.
//
// Zero copy on the SHM path: a frame is written once into the ring
// (payload gathered next to its header) and the consumer hands out
// PayloadViews aliasing the ring pages; the slot is released when the
// last view dies. Payloads at or below kShmInlineBytes are copied out
// instead so tiny control messages never pin ring space.
//
// Backpressure: a TCP write queue above its high watermark (or a
// persistently full ring) flips Endpoint::under_pressure(), which the
// coupling runtime folds into the collective BufferPressure protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "transport/real/shm_ring.hpp"
#include "transport/transport.hpp"

namespace ccf::transport::real {

/// Aggregate counters in the shared mapping, so multi-process runs still
/// report one coherent set after the children exit.
struct SharedCounters {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> bytes_framed{0};
  std::atomic<std::uint64_t> shm_frames{0};
  std::atomic<std::uint64_t> shm_zero_copy_deliveries{0};
  std::atomic<std::uint64_t> shm_zero_copy_bytes{0};
  std::atomic<std::uint64_t> shm_inline_copies{0};
  std::atomic<std::uint64_t> shm_inline_bytes{0};
  std::atomic<std::uint64_t> shm_producer_stalls{0};
  std::atomic<std::uint64_t> shm_doorbell_writes{0};
  std::atomic<std::uint64_t> tcp_frames{0};
  std::atomic<std::uint64_t> tcp_bytes{0};
  std::atomic<std::uint64_t> tcp_read_syscalls{0};
  std::atomic<std::uint64_t> tcp_write_syscalls{0};
  std::atomic<std::uint64_t> tcp_connections{0};
  std::atomic<std::uint64_t> tcp_rx_blocks{0};
  std::atomic<std::uint64_t> tcp_zero_copy_deliveries{0};
  std::atomic<std::uint64_t> tcp_zero_copy_bytes{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> epoll_waits{0};
  std::atomic<std::uint64_t> doorbells{0};
  std::atomic<std::uint64_t> backpressure_raises{0};
  std::atomic<std::uint64_t> backpressure_clears{0};
  std::atomic<std::uint32_t> closed{0};  ///< cluster-wide shutdown flag
};

/// Per-member doorbell gate in the shared mapping (one word per member,
/// following SharedCounters). A member's event loop flips it to
/// kDoorSleeping just before epoll_wait (then re-checks its rings — the
/// classic sleep/publish race); SHM producers ring the eventfd only when
/// they observe — and win — the kDoorSleeping -> kDoorAwake edge. A burst
/// into an awake consumer costs zero doorbell syscalls.
inline constexpr std::uint32_t kDoorAwake = 0;
inline constexpr std::uint32_t kDoorSleeping = 1;

/// Parses a rendezvous file (`proc host port` per line, '#' comments).
std::unordered_map<ProcId, std::pair<std::string, std::uint16_t>> load_rendezvous(
    const std::string& path);

class RealEndpoint;

class RealTransport final : public Transport,
                            public std::enable_shared_from_this<RealTransport> {
 public:
  RealTransport(TransportOptions options, std::vector<ProcId> members);
  ~RealTransport() override;

  RealTransport(const RealTransport&) = delete;
  RealTransport& operator=(const RealTransport&) = delete;

  std::shared_ptr<Endpoint> attach(ProcId id) override;
  void shutdown() override;
  TransportCounters counters() const override;

  const std::string& rendezvous_path() const { return rendezvous_path_; }
  const TransportOptions& options() const { return options_; }
  const std::vector<ProcId>& members() const { return members_; }

  /// Resolves a member's TCP listener address (rendezvous file first,
  /// falling back to the inherited port table).
  std::pair<std::string, std::uint16_t> peer_address(ProcId peer) const;

 private:
  friend class RealEndpoint;

  std::size_t index_of(ProcId id) const;
  bool same_node(ProcId a, ProcId b) const { return options_.node(a) == options_.node(b); }

  /// Ring carrying producer -> consumer traffic; null when cross-node.
  ShmRing ring(std::size_t producer_index, std::size_t consumer_index) const;

  TransportOptions options_;
  std::vector<ProcId> members_;
  std::unordered_map<ProcId, std::size_t> member_index_;

  std::atomic<std::uint32_t>* door_state(std::size_t member_index) const {
    return door_state_ + member_index;
  }

  void* shm_ = nullptr;
  std::size_t shm_bytes_ = 0;
  SharedCounters* shared_ = nullptr;
  std::atomic<std::uint32_t>* door_state_ = nullptr;  ///< in the shared mapping
  /// Byte offset of ring (i -> j) within the mapping; SIZE_MAX when the
  /// pair is cross-node (TCP).
  std::vector<std::size_t> ring_offset_;

  std::vector<int> doorbell_;    ///< eventfd per member index
  std::vector<int> listen_fd_;   ///< -1 when the member has no remote peer
  std::vector<std::uint16_t> port_;
  std::string rendezvous_path_;
  bool owns_rendezvous_file_ = false;

  std::mutex attach_mutex_;
  std::set<ProcId> attached_;
  std::vector<std::weak_ptr<RealEndpoint>> local_endpoints_;
};

}  // namespace ccf::transport::real
