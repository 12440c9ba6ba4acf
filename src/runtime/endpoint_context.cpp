#include "runtime/endpoint_context.hpp"

#include <cstring>
#include <utility>

#include "transport/fault_transport.hpp"
#include "util/check.hpp"
#include "util/work.hpp"

namespace ccf::runtime {

EndpointContext::EndpointContext(std::shared_ptr<transport::Endpoint> endpoint,
                                 WallClock::time_point epoch)
    : id_(endpoint->id()), endpoint_(std::move(endpoint)), epoch_(epoch) {}

void EndpointContext::send(ProcId dst, Tag tag, Payload payload) {
  Message m;
  m.src = id_;
  m.dst = dst;
  m.tag = tag;
  m.payload = payload ? std::move(payload) : transport::empty_payload();
  endpoint_->send(std::move(m));
}

std::optional<Message> EndpointContext::recv_until(const MatchSpec& spec, double deadline) {
  const auto abs_deadline = epoch_ + std::chrono::duration_cast<WallClock::duration>(
                                         std::chrono::duration<double>(deadline));
  return endpoint_->inbox().receive_until(spec, abs_deadline);
}

double EndpointContext::now() const {
  return std::chrono::duration<double>(WallClock::now() - epoch_).count();
}

void EndpointContext::compute(double seconds) { util::spin_for_us(seconds * 1e6); }

void EndpointContext::copy(void* dst, const void* src, std::size_t bytes) {
  std::memcpy(dst, src, bytes);
}

void WallClockCluster::add_process(ProcId id, ProcessBody body) {
  add_process(id, std::move(body), ResultChannel{});
}

void WallClockCluster::add_process(ProcId id, ProcessBody body, ResultChannel channel) {
  CCF_REQUIRE(!ran_, "cannot add processes after run()");
  CCF_REQUIRE(body != nullptr, "process body must be callable");
  CCF_REQUIRE(id >= 0, "process id must be non-negative, got " << id);
  CCF_REQUIRE(ids_.insert(id).second, "process id " << id << " already registered");
  registrations_.push_back({id, std::move(body), std::move(channel)});
}

std::shared_ptr<transport::Transport> WallClockCluster::start() {
  CCF_REQUIRE(!ran_, "run() called twice");
  CCF_REQUIRE(!registrations_.empty(), "no processes registered");
  ran_ = true;
  transport_ = transport::make_transport(options_.transport,
                                         std::vector<ProcId>(ids_.begin(), ids_.end()));
  if (options_.faults == nullptr) return transport_;
  return std::make_shared<transport::FaultTransport>(transport_, options_.faults);
}

transport::TransportCounters WallClockCluster::transport_counters() const {
  return transport_ == nullptr ? transport::TransportCounters{} : transport_->counters();
}

}  // namespace ccf::runtime
