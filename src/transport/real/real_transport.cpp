#include "transport/real/real_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>

#include "transport/fabric.hpp"
#include "transport/real/wire.hpp"

namespace ccf::transport::real {

namespace {

inline std::size_t align64(std::size_t n) { return (n + 63u) & ~std::size_t{63}; }

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CCF_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

void write_doorbell(int fd, SharedCounters* ctr) {
  const std::uint64_t one = 1;
  // The eventfd counter saturates rather than blocks; EAGAIN means the
  // consumer already has a pending wakeup, which is all we need.
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof one);
  ctr->doorbells.fetch_add(1, std::memory_order_relaxed);
}

/// Keeps a zero-copy ring record (and everything its bytes live in) alive
/// until the last PayloadView into it dies, then releases the slot.
struct RecordHold {
  std::shared_ptr<RealTransport> mapping_keepalive;  ///< may be null (stack-owned)
  std::shared_ptr<RingConsumer> consumer;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  ~RecordHold() { consumer->release(begin, end); }
};

}  // namespace

// ---------------------------------------------------------------------------
// RealEndpoint

class RealEndpoint final : public Endpoint {
 public:
  RealEndpoint(RealTransport& host, ProcId id);
  ~RealEndpoint() override;

  RealEndpoint(const RealEndpoint&) = delete;
  RealEndpoint& operator=(const RealEndpoint&) = delete;

  /// Connects initiator-side sockets and spawns the event loop. Separate
  /// from the constructor so the host can record the endpoint first.
  void start();

  ProcId id() const override { return id_; }
  Mailbox& inbox() override { return mailbox_; }
  bool under_pressure() const override {
    return pressure_.load(std::memory_order_acquire);
  }
  void send(Message m) override;

  /// Wakes and stops the event loop and closes the mailbox; does not join
  /// (the destructor does). Safe to call from any thread, repeatedly.
  void request_stop();

 private:
  struct Conn {
    int fd = -1;
    ProcId peer = kAnyProc;
    BlockDecoder decoder;
    BlockDecoder::Stats synced;   ///< decoder stats already added to SharedCounters
    bool handshake_done = false;  ///< acceptor: HELLO seen; initiator: WELCOME seen
    bool initiator = false;
    std::vector<std::byte> hsbuf;  ///< handshake bytes accumulated so far
    bool dead = false;

    std::mutex write_mutex;
    SendQueue writeq;
    bool epollout_armed = false;
    bool counted_pressure = false;

    Conn(std::size_t max_payload, std::size_t block_bytes, std::size_t inline_bytes)
        : decoder(max_payload, block_bytes, inline_bytes) {}
  };

  /// A frame addressed to a peer whose connection has not completed its
  /// handshake yet; moved onto the SendQueue in order when it does.
  struct Parked {
    FrameHeader header;
    Payload payload;
  };

  /// Contiguous run of drained inline ring records awaiting one merged
  /// release() — one mutex acquisition and tail store per burst instead
  /// of per record.
  struct ReleaseBatch {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    bool active = false;
  };

  void io_loop();
  bool rings_have_data() const;
  void drain_rings();
  void deliver_record(std::size_t producer_index, const RingConsumer::Record& rec,
                      ReleaseBatch& batch);
  void handle_readable(const std::shared_ptr<Conn>& c);
  bool handle_handshake_bytes(const std::shared_ptr<Conn>& c, const std::byte* data,
                              std::size_t n);
  void complete_handshake(const std::shared_ptr<Conn>& c, const Handshake& hs);
  void deliver_frames(const std::shared_ptr<Conn>& c);
  void flush_writeq(const std::shared_ptr<Conn>& c);
  void accept_pending();
  void close_conn(const std::shared_ptr<Conn>& c, bool count_decode_error);
  void enqueue_frame(const std::shared_ptr<Conn>& c, const FrameHeader& h, Payload payload);
  void enqueue_raw(const std::shared_ptr<Conn>& c, std::vector<std::byte> raw);
  void flush_and_arm(Conn& c);
  void send_shm(std::size_t peer_index, const FrameHeader& h, const Payload& payload);
  void send_tcp(std::size_t peer_index, const FrameHeader& h, const Payload& payload);
  void ring_doorbell(std::size_t member_index);
  std::shared_ptr<Conn> connect_to(ProcId peer);
  void register_conn_locked(const std::shared_ptr<Conn>& c);
  void writeq_watermarks(Conn& c);
  void set_ring_stalled(bool stalled);
  void recompute_pressure();

  RealTransport& host_;
  const ProcId id_;
  const std::size_t my_index_;
  SharedCounters* ctr_;
  Mailbox mailbox_;
  std::atomic<std::uint64_t> next_seq_{0};

  // SHM: outbound rings (this endpoint is the single producer) and
  // inbound ring consumers, both indexed by peer member index.
  std::vector<ShmRing> ring_to_;
  std::vector<std::shared_ptr<RingConsumer>> ring_from_;

  int epoll_fd_ = -1;
  int doorbell_fd_ = -1;  ///< owned by the host; this endpoint reads it
  int listen_fd_ = -1;    ///< owned by the host

  std::mutex conns_mutex_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< by fd
  std::vector<std::shared_ptr<Conn>> peer_conn_;          ///< by member index
  std::vector<std::deque<Parked>> pending_out_;           ///< pre-handshake sends

  std::thread io_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> pressure_{false};
  std::mutex pressure_mutex_;
  std::size_t pressured_conns_ = 0;
  bool ring_stalled_ = false;
};

RealEndpoint::RealEndpoint(RealTransport& host, ProcId id)
    : host_(host),
      id_(id),
      my_index_(host.index_of(id)),
      ctr_(host.shared_),
      ring_to_(host.members_.size()),
      ring_from_(host.members_.size()),
      peer_conn_(host.members_.size()),
      pending_out_(host.members_.size()) {
  const std::size_t n = host_.members_.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (j == my_index_) continue;
    if (ShmRing out = host_.ring(my_index_, j)) ring_to_[j] = out;
    if (ShmRing in = host_.ring(j, my_index_))
      ring_from_[j] = std::make_shared<RingConsumer>(in);
  }
  doorbell_fd_ = host_.doorbell_[my_index_];
  listen_fd_ = host_.listen_fd_[my_index_];

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  CCF_CHECK(epoll_fd_ >= 0, "epoll_create1 failed: " << std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = doorbell_fd_;
  CCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, doorbell_fd_, &ev) == 0,
            "epoll_ctl(doorbell) failed: " << std::strerror(errno));
  if (listen_fd_ >= 0) {
    ev.data.fd = listen_fd_;
    CCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
              "epoll_ctl(listener) failed: " << std::strerror(errno));
  }
}

void RealEndpoint::start() {
  // The lower proc id initiates each cross-node connection; the listener
  // was bound before any member started, so connect succeeds even if the
  // peer has not attached yet (the kernel backlog holds it).
  const std::size_t n = host_.members_.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (j == my_index_) continue;
    const ProcId peer = host_.members_[j];
    if (host_.same_node(id_, peer) || id_ >= peer) continue;
    auto c = connect_to(peer);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    register_conn_locked(c);
    peer_conn_[j] = c;
  }
  io_thread_ = std::thread([this] { io_loop(); });
}

RealEndpoint::~RealEndpoint() {
  // Flush pending TCP writes before tearing down: a peer may still need
  // frames this process sent just before finishing. Bounded wait; the
  // event loop drains the queues via EPOLLOUT.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    if (stop_.load(std::memory_order_acquire) || host_.shared_->closed.load() != 0) break;
    std::size_t queued = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      for (auto& [fd, c] : conns_) {
        std::lock_guard<std::mutex> wlock(c->write_mutex);
        if (!c->dead) queued += c->writeq.bytes();
      }
    }
    if (queued == 0 || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  request_stop();
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [fd, c] : conns_)
      if (c->fd >= 0) ::close(c->fd);
    conns_.clear();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void RealEndpoint::request_stop() {
  stop_.store(true, std::memory_order_release);
  mailbox_.close();
  write_doorbell(doorbell_fd_, ctr_);
}

// -- Send paths -------------------------------------------------------------

void RealEndpoint::send(Message m) {
  CCF_REQUIRE(m.src == id_, "endpoint " << id_ << " sending with src " << m.src);
  const std::size_t peer_index = host_.index_of(m.dst);
  m.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);

  const FrameHeader h = make_frame_header(m);
  ctr_->frames_sent.fetch_add(1, std::memory_order_relaxed);
  ctr_->bytes_framed.fetch_add(frame_bytes(m.payload.size()), std::memory_order_relaxed);

  if (m.dst == id_) {
    // Self-sends short-circuit the fabric entirely (there is no ring to
    // self); the mailbox gives the same ordered delivery.
    ctr_->frames_received.fetch_add(1, std::memory_order_relaxed);
    mailbox_.deliver(std::move(m));
    return;
  }
  if (ring_to_[peer_index]) {
    send_shm(peer_index, h, m.payload);
  } else {
    send_tcp(peer_index, h, m.payload);
  }
}

void RealEndpoint::ring_doorbell(std::size_t member_index) {
  // Coalesced doorbell: only the producer that wins the SLEEPING -> AWAKE
  // edge pays the eventfd write; every further record in the burst sees
  // the consumer already awake (it re-arms SLEEPING just before its next
  // epoll_wait, after re-checking the rings). The fence orders the ring's
  // head publish before the gate load — without it the consumer could
  // declare itself asleep between our publish and a stale AWAKE read.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::atomic<std::uint32_t>* door = host_.door_state(member_index);
  if (door->load(std::memory_order_seq_cst) == kDoorSleeping &&
      door->exchange(kDoorAwake, std::memory_order_seq_cst) == kDoorSleeping) {
    write_doorbell(host_.doorbell_[member_index], ctr_);
    ctr_->shm_doorbell_writes.fetch_add(1, std::memory_order_relaxed);
  }
}

void RealEndpoint::send_shm(std::size_t peer_index, const FrameHeader& h,
                            const Payload& payload) {
  ShmRing& ring = ring_to_[peer_index];
  bool stalled = false;
  while (!ring.try_push2(&h, sizeof h, payload.data(), payload.size())) {
    if (!stalled) {
      stalled = true;
      ctr_->shm_producer_stalls.fetch_add(1, std::memory_order_relaxed);
      set_ring_stalled(true);
    }
    if (host_.shared_->closed.load(std::memory_order_acquire) != 0 ||
        stop_.load(std::memory_order_acquire))
      throw MailboxClosed();
    // Make sure the consumer is awake to free space, then back off.
    ring_doorbell(peer_index);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  if (stalled) set_ring_stalled(false);
  ctr_->shm_frames.fetch_add(1, std::memory_order_relaxed);
  ring_doorbell(peer_index);
}

void RealEndpoint::send_tcp(std::size_t peer_index, const FrameHeader& h,
                            const Payload& payload) {
  ctr_->tcp_frames.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<Conn> c;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    c = peer_conn_[peer_index];
    if (c == nullptr) {
      // Acceptor side, peer not yet connected: park the frame (header by
      // value, payload by view — no flattening copy); the handshake
      // completion moves it onto the connection in order.
      pending_out_[peer_index].push_back(Parked{h, payload});
      return;
    }
  }
  enqueue_frame(c, h, payload);
}

void RealEndpoint::enqueue_frame(const std::shared_ptr<Conn>& c, const FrameHeader& h,
                                 Payload payload) {
  std::lock_guard<std::mutex> lock(c->write_mutex);
  if (c->dead) return;  // peer gone; protocol-level timeouts handle the loss
  ctr_->tcp_bytes.fetch_add(kFrameHeaderBytes + payload.size(), std::memory_order_relaxed);
  c->writeq.push_frame(h, std::move(payload));
  flush_and_arm(*c);
}

void RealEndpoint::enqueue_raw(const std::shared_ptr<Conn>& c, std::vector<std::byte> raw) {
  std::lock_guard<std::mutex> lock(c->write_mutex);
  if (c->dead) return;
  ctr_->tcp_bytes.fetch_add(raw.size(), std::memory_order_relaxed);
  c->writeq.push_raw(std::move(raw));
  flush_and_arm(*c);
}

void RealEndpoint::flush_and_arm(Conn& c) {
  // Called with c.write_mutex held. One sendmsg drains the whole queue —
  // iovec chains over every queued header and payload view — and a
  // partial write simply leaves the queue resumable mid-iovec.
  constexpr std::size_t kMaxIov = 64;  // well under IOV_MAX; loops if deeper
  while (!c.writeq.empty()) {
    iovec iov[kMaxIov];
    const std::size_t count = c.writeq.gather(iov, kMaxIov);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    ctr_->tcp_write_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c.dead = true;  // reaped on the next readable/EOF event
      return;
    }
    c.writeq.consume(static_cast<std::size_t>(n));
  }
  const bool want_epollout = !c.writeq.empty();
  if (want_epollout != c.epollout_armed) {
    c.epollout_armed = want_epollout;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_epollout ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }
  writeq_watermarks(c);
}

// -- Backpressure -----------------------------------------------------------

void RealEndpoint::writeq_watermarks(Conn& c) {
  // Called with c.write_mutex held. Hysteresis: raise above high, clear
  // below low, so pressure does not flap at the boundary.
  if (!c.counted_pressure && c.writeq.bytes() > host_.options_.tcp_writeq_high_bytes) {
    c.counted_pressure = true;
    std::lock_guard<std::mutex> lock(pressure_mutex_);
    ++pressured_conns_;
    recompute_pressure();
  } else if (c.counted_pressure && c.writeq.bytes() < host_.options_.tcp_writeq_low_bytes) {
    c.counted_pressure = false;
    std::lock_guard<std::mutex> lock(pressure_mutex_);
    --pressured_conns_;
    recompute_pressure();
  }
}

void RealEndpoint::set_ring_stalled(bool stalled) {
  std::lock_guard<std::mutex> lock(pressure_mutex_);
  if (ring_stalled_ == stalled) return;
  ring_stalled_ = stalled;
  recompute_pressure();
}

void RealEndpoint::recompute_pressure() {
  // Called with pressure_mutex_ held.
  const bool now = pressured_conns_ > 0 || ring_stalled_;
  if (now == pressure_.load(std::memory_order_relaxed)) return;
  pressure_.store(now, std::memory_order_release);
  auto& edge = now ? ctr_->backpressure_raises : ctr_->backpressure_clears;
  edge.fetch_add(1, std::memory_order_relaxed);
}

// -- Connection setup -------------------------------------------------------

std::shared_ptr<RealEndpoint::Conn> RealEndpoint::connect_to(ProcId peer) {
  auto [host, port] = host_.peer_address(peer);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CCF_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  CCF_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
            "bad transport host address '" << host << "'");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    CCF_CHECK(false, "connect to proc " << peer << " at " << host << ":" << port
                                        << " failed: " << std::strerror(err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  Handshake hello;
  hello.magic = kHelloMagic;
  hello.src = id_;
  hello.dst = peer;
  hello.identity = host_.options_.identity_of(id_);
  const std::vector<std::byte> wire = encode_handshake(hello);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    ctr_->tcp_write_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (n < 0 && errno == EINTR) continue;
    CCF_CHECK(n > 0, "handshake send to proc " << peer
                                               << " failed: " << std::strerror(errno));
    sent += static_cast<std::size_t>(n);
  }
  ctr_->tcp_bytes.fetch_add(wire.size(), std::memory_order_relaxed);
  set_nonblocking(fd);

  auto c = std::make_shared<Conn>(host_.options_.max_frame_payload_bytes,
                                  host_.options_.tcp_recv_block_bytes,
                                  host_.options_.shm_inline_bytes);
  c->fd = fd;
  c->peer = peer;
  c->initiator = true;
  return c;
}

void RealEndpoint::register_conn_locked(const std::shared_ptr<Conn>& c) {
  conns_.emplace(c->fd, c);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = c->fd;
  CCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->fd, &ev) == 0,
            "epoll_ctl(conn) failed: " << std::strerror(errno));
}

void RealEndpoint::accept_pending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto c = std::make_shared<Conn>(host_.options_.max_frame_payload_bytes,
                                    host_.options_.tcp_recv_block_bytes,
                                    host_.options_.shm_inline_bytes);
    c->fd = fd;  // peer unknown until its HELLO arrives
    std::lock_guard<std::mutex> lock(conns_mutex_);
    register_conn_locked(c);
  }
}

void RealEndpoint::complete_handshake(const std::shared_ptr<Conn>& c, const Handshake& hs) {
  if (c->initiator) {
    // WELCOME from the peer we connected to.
    if (hs.src != c->peer || hs.dst != id_)
      throw FramingError("WELCOME from unexpected peer");
    const std::string expect = host_.options_.identity_of(hs.src);
    if (hs.identity != expect)
      throw FramingError("WELCOME identity mismatch: got '" + hs.identity +
                         "', expected '" + expect + "'");
    c->handshake_done = true;
    ctr_->tcp_connections.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // HELLO on an accepted connection: learn and verify who is calling.
  if (hs.dst != id_) throw FramingError("HELLO addressed to another proc");
  if (host_.member_index_.find(hs.src) == host_.member_index_.end())
    throw FramingError("HELLO from unknown proc " + std::to_string(hs.src));
  if (host_.same_node(hs.src, id_))
    throw FramingError("HELLO from same-node proc " + std::to_string(hs.src) +
                       " (should use the SHM ring)");
  const std::string expect = host_.options_.identity_of(hs.src);
  if (hs.identity != expect)
    throw FramingError("HELLO identity mismatch: got '" + hs.identity + "', expected '" +
                       expect + "'");
  const std::size_t peer_index = host_.index_of(hs.src);
  Handshake welcome;
  welcome.magic = kWelcomeMagic;
  welcome.src = id_;
  welcome.dst = hs.src;
  welcome.identity = host_.options_.identity_of(id_);
  std::vector<std::byte> wire = encode_handshake(welcome);
  // Publish the connection only once the WELCOME and every parked frame
  // are queued on it, all in one critical section: a send that finds
  // peer_conn_ set must queue behind them. A frame that overtook the
  // WELCOME would make the initiator reject the stream and drop the
  // connection, and a frame parked after the backlog moved would strand.
  // The whole backlog then leaves in a single vectored syscall.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  if (peer_conn_[peer_index] != nullptr)
    throw FramingError("duplicate connection from proc " + std::to_string(hs.src));
  std::lock_guard<std::mutex> wlock(c->write_mutex);
  if (c->dead) return;
  c->peer = hs.src;
  c->handshake_done = true;
  ctr_->tcp_connections.fetch_add(1, std::memory_order_relaxed);
  ctr_->tcp_bytes.fetch_add(wire.size(), std::memory_order_relaxed);
  c->writeq.push_raw(std::move(wire));
  for (auto& p : pending_out_[peer_index]) {
    ctr_->tcp_bytes.fetch_add(kFrameHeaderBytes + p.payload.size(), std::memory_order_relaxed);
    c->writeq.push_frame(p.header, std::move(p.payload));
  }
  pending_out_[peer_index].clear();
  peer_conn_[peer_index] = c;
  flush_and_arm(*c);
}

void RealEndpoint::close_conn(const std::shared_ptr<Conn>& c, bool count_decode_error) {
  if (count_decode_error) ctr_->decode_errors.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> wlock(c->write_mutex);
    if (c->dead) return;
    c->dead = true;
    if (c->counted_pressure) {
      c->counted_pressure = false;
      std::lock_guard<std::mutex> lock(pressure_mutex_);
      --pressured_conns_;
      recompute_pressure();
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conns_.erase(c->fd);
  ::close(c->fd);
  c->fd = -1;
  if (c->peer != kAnyProc) {
    const std::size_t peer_index = host_.index_of(c->peer);
    if (peer_conn_[peer_index] == c) peer_conn_[peer_index] = nullptr;
  }
}

// -- Event loop -------------------------------------------------------------

void RealEndpoint::io_loop() {
  epoll_event events[64];
  std::atomic<std::uint32_t>* door = host_.door_state(my_index_);
  for (;;) {
    if (stop_.load(std::memory_order_acquire) ||
        host_.shared_->closed.load(std::memory_order_acquire) != 0)
      break;
    // Doorbell gate: declare SLEEPING, then re-check the rings. A record
    // published before the store is caught by the re-check (poll with
    // timeout 0); one published after it sees SLEEPING and rings the
    // eventfd. Either way no wakeup is lost, and a burst into an awake
    // loop costs its producer zero doorbell syscalls. The 100ms timeout
    // stays as a belt-and-braces fallback.
    door->store(kDoorSleeping, std::memory_order_seq_cst);
    int timeout = 100;
    if (rings_have_data()) {
      door->store(kDoorAwake, std::memory_order_seq_cst);
      timeout = 0;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
    door->store(kDoorAwake, std::memory_order_seq_cst);
    ctr_->epoll_waits.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == doorbell_fd_) {
        std::uint64_t count = 0;
        while (::read(doorbell_fd_, &count, sizeof count) > 0) {}
        continue;  // rings are drained below regardless
      }
      if (fd == listen_fd_) {
        accept_pending();
        continue;
      }
      std::shared_ptr<Conn> c;
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        auto it = conns_.find(fd);
        if (it != conns_.end()) c = it->second;
      }
      if (c == nullptr) continue;
      if (events[i].events & EPOLLOUT) flush_writeq(c);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) handle_readable(c);
    }
    try {
      drain_rings();
    } catch (const util::ProtocolViolation&) {
      // A torn ring record means a peer died mid-write; there is nothing
      // trustworthy left on that ring. Fail this endpoint loudly.
      ctr_->decode_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  mailbox_.close();
}

bool RealEndpoint::rings_have_data() const {
  // Ordered after the SLEEPING store by its seq_cst; pairs with the
  // producer's fence in ring_doorbell().
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (const auto& consumer : ring_from_)
    if (consumer != nullptr && consumer->has_pending()) return true;
  return false;
}

void RealEndpoint::drain_rings() {
  for (std::size_t j = 0; j < ring_from_.size(); ++j) {
    const auto& consumer = ring_from_[j];
    if (consumer == nullptr) continue;
    // Inline records drained back-to-back fold into one release interval;
    // the merged release at the end is the drain's only tail store.
    ReleaseBatch batch;
    while (auto rec = consumer->next()) deliver_record(j, *rec, batch);
    if (batch.active) consumer->release(batch.begin, batch.end);
  }
}

void RealEndpoint::deliver_record(std::size_t producer_index,
                                  const RingConsumer::Record& rec, ReleaseBatch& batch) {
  const auto& consumer = ring_from_[producer_index];
  CCF_CHECK(rec.size >= kFrameHeaderBytes, "SHM record smaller than a frame header");
  const FrameHeader h = read_frame_header(rec.data);
  validate_frame_header(h, consumer->ring().capacity());
  CCF_CHECK(rec.size == frame_bytes(static_cast<std::size_t>(h.payload_bytes)),
            "SHM record size disagrees with its frame header");

  Message m;
  m.src = h.src;
  m.dst = h.dst;
  m.tag = h.tag;
  m.seq = h.seq;
  const std::byte* payload = rec.data + kFrameHeaderBytes;
  const std::size_t payload_bytes = static_cast<std::size_t>(h.payload_bytes);
  if (payload_bytes <= host_.options_.shm_inline_bytes) {
    // Small control frames: copy out and release within this drain so
    // long-held messages never pin ring space. Contiguous inline records
    // extend the batch; a gap (a zero-copy record in between) flushes it.
    m.payload = make_payload(std::vector<std::byte>(payload, payload + payload_bytes));
    if (batch.active && batch.end == rec.begin) {
      batch.end = rec.end;
    } else {
      if (batch.active) consumer->release(batch.begin, batch.end);
      batch.begin = rec.begin;
      batch.end = rec.end;
      batch.active = true;
    }
    ctr_->shm_inline_copies.fetch_add(1, std::memory_order_relaxed);
    ctr_->shm_inline_bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  } else {
    // Zero copy: the payload aliases the ring pages; the slot is released
    // when the last view (however far it was forwarded) dies.
    auto hold = std::make_shared<RecordHold>();
    hold->mapping_keepalive = host_.weak_from_this().lock();
    hold->consumer = consumer;
    hold->begin = rec.begin;
    hold->end = rec.end;
    m.payload = PayloadView(std::shared_ptr<const void>(hold, payload), payload,
                            payload_bytes);
    ctr_->shm_zero_copy_deliveries.fetch_add(1, std::memory_order_relaxed);
    ctr_->shm_zero_copy_bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  ctr_->frames_received.fetch_add(1, std::memory_order_relaxed);
  mailbox_.deliver(std::move(m));
}

void RealEndpoint::handle_readable(const std::shared_ptr<Conn>& c) {
  for (;;) {
    try {
      std::byte* dst;
      std::size_t space;
      std::byte prebuf[4096];
      if (!c->handshake_done) {
        // Pre-handshake bytes go through a bounded stack buffer: nothing
        // on this connection is trusted until the identity checks out.
        dst = prebuf;
        space = sizeof prebuf;
      } else {
        // Batched receive: the read lands directly in the decoder's
        // refcounted block, sized to finish the current partial frame in
        // one syscall; every complete frame in the block is parsed below
        // without another read.
        std::tie(dst, space) = c->decoder.recv_buffer();
      }
      const ssize_t n = ::recv(c->fd, dst, space, 0);
      ctr_->tcp_read_syscalls.fetch_add(1, std::memory_order_relaxed);
      if (n > 0) {
        ctr_->tcp_bytes.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
        if (c->handshake_done) {
          c->decoder.bytes_received(static_cast<std::size_t>(n));
        } else if (!handle_handshake_bytes(c, prebuf, static_cast<std::size_t>(n))) {
          continue;  // handshake still incomplete; read more
        }
        deliver_frames(c);
        continue;
      }
      if (n == 0) {
        // EOF. Mid-frame (or mid-handshake) means the stream was truncated.
        const bool truncated = c->decoder.pending() != 0 || !c->handshake_done;
        close_conn(c, truncated);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(c, /*count_decode_error=*/false);
      return;
    } catch (const FramingError&) {
      // Hostile or corrupt stream: after one bad byte there is no
      // trustworthy framing left, so drop the connection.
      close_conn(c, /*count_decode_error=*/true);
      return;
    }
  }
}

/// Accumulates handshake bytes; returns true once the handshake completed
/// (leftover coalesced frame bytes are handed to the frame decoder).
bool RealEndpoint::handle_handshake_bytes(const std::shared_ptr<Conn>& c,
                                          const std::byte* data, std::size_t n) {
  c->hsbuf.insert(c->hsbuf.end(), data, data + n);
  Handshake hs;
  std::size_t consumed = 0;
  if (!decode_handshake(c->hsbuf.data(), c->hsbuf.size(),
                        c->initiator ? kWelcomeMagic : kHelloMagic, hs, consumed)) {
    // A maximal handshake fits in prelude + identity cap; anything that
    // still fails to decode past that point is hostile, not incomplete.
    // (The buffer may legitimately hold far more than a handshake: the
    // peer's first frames often coalesce into the same recv chunk.)
    if (c->hsbuf.size() >= sizeof(HandshakePrelude) + kMaxIdentityBytes)
      throw FramingError("handshake rejected: oversized");
    return false;  // need more bytes
  }
  complete_handshake(c, hs);
  if (consumed < c->hsbuf.size())
    c->decoder.feed(c->hsbuf.data() + consumed, c->hsbuf.size() - consumed);
  c->hsbuf.clear();
  c->hsbuf.shrink_to_fit();
  return true;
}

void RealEndpoint::deliver_frames(const std::shared_ptr<Conn>& c) {
  Message m;
  while (c->decoder.next(m)) {
    if (m.dst != id_ || m.src != c->peer)
      throw FramingError("frame addressed to proc " + std::to_string(m.dst) +
                         " from proc " + std::to_string(m.src) +
                         " on the wrong connection");
    ctr_->frames_received.fetch_add(1, std::memory_order_relaxed);
    mailbox_.deliver(std::move(m));
  }
  // Fold the decoder's block/zero-copy accounting into the shared
  // counters (delta since the last sync; stats only ever grow).
  const BlockDecoder::Stats& s = c->decoder.stats();
  ctr_->tcp_rx_blocks.fetch_add(s.blocks_allocated - c->synced.blocks_allocated,
                                std::memory_order_relaxed);
  ctr_->tcp_zero_copy_deliveries.fetch_add(
      s.zero_copy_deliveries - c->synced.zero_copy_deliveries, std::memory_order_relaxed);
  ctr_->tcp_zero_copy_bytes.fetch_add(s.zero_copy_bytes - c->synced.zero_copy_bytes,
                                      std::memory_order_relaxed);
  c->synced = s;
}

void RealEndpoint::flush_writeq(const std::shared_ptr<Conn>& c) {
  std::lock_guard<std::mutex> lock(c->write_mutex);
  if (c->dead) return;
  flush_and_arm(*c);
}

// ---------------------------------------------------------------------------
// RealTransport

RealTransport::RealTransport(TransportOptions options, std::vector<ProcId> members)
    : options_(std::move(options)), members_(std::move(members)) {
  CCF_REQUIRE(!members_.empty(), "real transport with no members");
  CCF_REQUIRE(options_.shm_ring_bytes >= 4096 && options_.shm_ring_bytes % 8 == 0,
              "shm_ring_bytes must be a multiple of 8 and >= 4096, got "
                  << options_.shm_ring_bytes);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const bool inserted = member_index_.emplace(members_[i], i).second;
    CCF_REQUIRE(inserted, "duplicate transport member " << members_[i]);
  }

  // Shared mapping: counters, the per-member doorbell gates, then one
  // ring per directed same-node pair.
  const std::size_t n = members_.size();
  const std::size_t ring_slot = align64(ShmRing::bytes_required(options_.shm_ring_bytes));
  ring_offset_.assign(n * n, SIZE_MAX);
  const std::size_t door_offset = align64(sizeof(SharedCounters));
  std::size_t bytes = align64(door_offset + n * sizeof(std::atomic<std::uint32_t>));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || !same_node(members_[i], members_[j])) continue;
      ring_offset_[i * n + j] = bytes;
      bytes += ring_slot;
    }
  }
  shm_bytes_ = bytes;
  shm_ = ::mmap(nullptr, shm_bytes_, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  CCF_CHECK(shm_ != MAP_FAILED,
            "mmap of " << shm_bytes_ << " transport bytes failed: "
                       << std::strerror(errno));
  shared_ = new (shm_) SharedCounters();
  door_state_ = reinterpret_cast<std::atomic<std::uint32_t>*>(
      static_cast<std::byte*>(shm_) + door_offset);
  // Members start SLEEPING: a producer that races a not-yet-attached
  // consumer rings the eventfd, whose count survives until the first
  // epoll_wait.
  for (std::size_t i = 0; i < n; ++i)
    new (door_state_ + i) std::atomic<std::uint32_t>(kDoorSleeping);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (ring_offset_[i * n + j] != SIZE_MAX)
        ShmRing::create(static_cast<std::byte*>(shm_) + ring_offset_[i * n + j],
                        options_.shm_ring_bytes);

  // One doorbell per member; producers ring it, the member's loop sleeps
  // on it. Created before fork so both sides inherit the same fds.
  doorbell_.resize(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    doorbell_[i] = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    CCF_CHECK(doorbell_[i] >= 0, "eventfd failed: " << std::strerror(errno));
  }

  // TCP listeners for members with at least one cross-node peer, bound
  // before fork so connects never race the accept side coming up.
  listen_fd_.resize(n, -1);
  port_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    bool remote = false;
    for (std::size_t j = 0; j < n && !remote; ++j)
      remote = i != j && !same_node(members_[i], members_[j]);
    if (!remote) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    CCF_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // ephemeral; the rendezvous file publishes it
    CCF_CHECK(::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) == 1,
              "bad transport host address '" << options_.host << "'");
    CCF_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
              "bind on " << options_.host << " failed: " << std::strerror(errno));
    CCF_CHECK(::listen(fd, 64) == 0, "listen failed: " << std::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    CCF_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
              "getsockname failed: " << std::strerror(errno));
    set_nonblocking(fd);
    listen_fd_[i] = fd;
    port_[i] = ntohs(bound.sin_port);
  }

  // Rendezvous file: `<proc> <host> <port>` per listener. Members resolve
  // peer addresses from it at attach, exactly as a distributed launch
  // would (here every process inherits the path pre-fork).
  bool any_listener = false;
  for (std::size_t i = 0; i < n; ++i) any_listener |= listen_fd_[i] >= 0;
  if (any_listener) {
    rendezvous_path_ = options_.rendezvous_path;
    if (rendezvous_path_.empty()) {
      char tmpl[] = "/tmp/ccf_rendezvous_XXXXXX";
      const int fd = ::mkstemp(tmpl);
      CCF_CHECK(fd >= 0, "mkstemp for rendezvous file failed: " << std::strerror(errno));
      ::close(fd);
      rendezvous_path_ = tmpl;
      owns_rendezvous_file_ = true;
    }
    std::ofstream out(rendezvous_path_, std::ios::trunc);
    CCF_CHECK(out.good(), "cannot write rendezvous file " << rendezvous_path_);
    out << "# ccf transport rendezvous: proc host port\n";
    for (std::size_t i = 0; i < n; ++i)
      if (listen_fd_[i] >= 0)
        out << members_[i] << ' ' << options_.host << ' ' << port_[i] << '\n';
  }
}

RealTransport::~RealTransport() {
  shutdown();
  for (int fd : doorbell_)
    if (fd >= 0) ::close(fd);
  for (int fd : listen_fd_)
    if (fd >= 0) ::close(fd);
  if (shm_ != nullptr) ::munmap(shm_, shm_bytes_);
  if (owns_rendezvous_file_) ::unlink(rendezvous_path_.c_str());
}

std::size_t RealTransport::index_of(ProcId id) const {
  auto it = member_index_.find(id);
  CCF_REQUIRE(it != member_index_.end(), "proc " << id << " is not a transport member");
  return it->second;
}

ShmRing RealTransport::ring(std::size_t producer_index, std::size_t consumer_index) const {
  const std::size_t off = ring_offset_[producer_index * members_.size() + consumer_index];
  if (off == SIZE_MAX) return ShmRing();
  return ShmRing::open(static_cast<std::byte*>(shm_) + off);
}

std::pair<std::string, std::uint16_t> RealTransport::peer_address(ProcId peer) const {
  // Prefer the rendezvous file — the same lookup a distributed launcher
  // performs — falling back to the inherited port table.
  if (!rendezvous_path_.empty()) {
    const auto map = load_rendezvous(rendezvous_path_);
    auto it = map.find(peer);
    if (it != map.end()) return it->second;
  }
  const std::size_t j = index_of(peer);
  CCF_CHECK(listen_fd_[j] >= 0, "proc " << peer << " has no TCP listener");
  return {options_.host, port_[j]};
}

std::shared_ptr<Endpoint> RealTransport::attach(ProcId id) {
  std::shared_ptr<RealEndpoint> ep;
  {
    std::lock_guard<std::mutex> lock(attach_mutex_);
    CCF_REQUIRE(attached_.insert(id).second,
                "proc " << id << " attached twice in this process");
    ep = std::make_shared<RealEndpoint>(*this, id);
    local_endpoints_.push_back(ep);
  }
  ep->start();
  return ep;
}

void RealTransport::shutdown() {
  shared_->closed.store(1, std::memory_order_release);
  // Wake every member's event loop — including those in forked siblings —
  // so blocked receivers everywhere see their mailbox close.
  for (int fd : doorbell_)
    if (fd >= 0) write_doorbell(fd, shared_);
  std::vector<std::shared_ptr<RealEndpoint>> local;
  {
    std::lock_guard<std::mutex> lock(attach_mutex_);
    for (auto& weak : local_endpoints_)
      if (auto ep = weak.lock()) local.push_back(std::move(ep));
  }
  for (auto& ep : local) ep->request_stop();
}

TransportCounters RealTransport::counters() const {
  TransportCounters c;
  const SharedCounters& s = *shared_;
  c.frames_sent = s.frames_sent.load();
  c.frames_received = s.frames_received.load();
  c.bytes_framed = s.bytes_framed.load();
  c.shm_frames = s.shm_frames.load();
  c.shm_zero_copy_deliveries = s.shm_zero_copy_deliveries.load();
  c.shm_zero_copy_bytes = s.shm_zero_copy_bytes.load();
  c.shm_inline_copies = s.shm_inline_copies.load();
  c.shm_inline_bytes = s.shm_inline_bytes.load();
  c.shm_producer_stalls = s.shm_producer_stalls.load();
  c.shm_doorbell_writes = s.shm_doorbell_writes.load();
  c.tcp_frames = s.tcp_frames.load();
  c.tcp_bytes = s.tcp_bytes.load();
  c.tcp_read_syscalls = s.tcp_read_syscalls.load();
  c.tcp_write_syscalls = s.tcp_write_syscalls.load();
  c.tcp_connections = s.tcp_connections.load();
  c.tcp_rx_blocks = s.tcp_rx_blocks.load();
  c.tcp_zero_copy_deliveries = s.tcp_zero_copy_deliveries.load();
  c.tcp_zero_copy_bytes = s.tcp_zero_copy_bytes.load();
  c.decode_errors = s.decode_errors.load();
  c.epoll_waits = s.epoll_waits.load();
  c.doorbells = s.doorbells.load();
  c.backpressure_raises = s.backpressure_raises.load();
  c.backpressure_clears = s.backpressure_clears.load();
  return c;
}

std::unordered_map<ProcId, std::pair<std::string, std::uint16_t>> load_rendezvous(
    const std::string& path) {
  std::unordered_map<ProcId, std::pair<std::string, std::uint16_t>> out;
  std::ifstream in(path);
  CCF_REQUIRE(in.good(), "cannot read rendezvous file " << path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    long long proc = 0;
    std::string host;
    int port = 0;
    CCF_REQUIRE(static_cast<bool>(fields >> proc >> host >> port) && port > 0 &&
                    port <= 65535,
                "malformed rendezvous line '" << line << "' in " << path);
    out[static_cast<ProcId>(proc)] = {host, static_cast<std::uint16_t>(port)};
  }
  return out;
}

}  // namespace ccf::transport::real

namespace ccf::transport {

std::shared_ptr<Transport> make_transport(const TransportOptions& options,
                                          const std::vector<ProcId>& members) {
  switch (options.kind) {
    case TransportKind::InMemory:
      return std::make_shared<FabricTransport>(members);
    case TransportKind::Real:
      return std::make_shared<real::RealTransport>(options, members);
  }
  CCF_CHECK(false, "unknown TransportKind");
}

}  // namespace ccf::transport
