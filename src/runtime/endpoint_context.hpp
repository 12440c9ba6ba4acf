// The wall-clock execution modes' shared half: the process context a body
// runs against, and the launcher state around it.
//
// ThreadCluster (one thread per process) and ProcessCluster (one forked
// OS process per process) differ only in how they start bodies and
// collect their outcomes. Both give every body an EndpointContext over
// its transport endpoint, so the modes stay interchangeable: the same
// send/recv/clock semantics on either side of a process boundary.
#pragma once

#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "runtime/cluster.hpp"
#include "transport/transport.hpp"

namespace ccf::runtime {

using WallClock = std::chrono::steady_clock;

/// Wall-clock context over a transport endpoint: now() is seconds since
/// the cluster epoch, compute() spins, copy() is a plain memcpy (the real
/// operation already takes real time, so no modeled cost is charged).
class EndpointContext final : public ProcessContext {
 public:
  EndpointContext(std::shared_ptr<transport::Endpoint> endpoint, WallClock::time_point epoch);

  ProcId id() const override { return id_; }
  void send(ProcId dst, Tag tag, Payload payload) override;
  Message recv(const MatchSpec& spec) override { return endpoint_->inbox().receive(spec); }
  std::optional<Message> try_recv(const MatchSpec& spec) override {
    return endpoint_->inbox().try_receive(spec);
  }
  std::optional<Message> recv_until(const MatchSpec& spec, double deadline) override;
  double now() const override;
  void compute(double seconds) override;
  void copy(void* dst, const void* src, std::size_t bytes) override;
  bool transport_pressure() const override { return endpoint_->under_pressure(); }

 private:
  ProcId id_;
  std::shared_ptr<transport::Endpoint> endpoint_;
  WallClock::time_point epoch_;
};

/// Registration, transport construction and end time, shared by the two
/// wall-clock backends; each supplies only run().
class WallClockCluster : public Cluster {
 public:
  void add_process(ProcId id, ProcessBody body) override;
  void add_process(ProcId id, ProcessBody body, ResultChannel channel) override;
  double end_time() const override { return end_time_; }
  transport::TransportCounters transport_counters() const override;

 protected:
  explicit WallClockCluster(ClusterOptions options) : options_(std::move(options)) {}

  struct Registration {
    ProcId id;
    ProcessBody body;
    ResultChannel channel;  ///< encode/decode may both be null
  };

  /// Marks the cluster as run and builds the transport over the complete
  /// membership (kept in transport_ so counters survive the run). Returns
  /// what bodies attach to: the backend itself, or a FaultTransport over
  /// it when options_.faults is set.
  std::shared_ptr<transport::Transport> start();

  ClusterOptions options_;
  std::vector<Registration> registrations_;
  std::shared_ptr<transport::Transport> transport_;
  double end_time_ = 0.0;

 private:
  std::set<ProcId> ids_;
  bool ran_ = false;
};

}  // namespace ccf::runtime
