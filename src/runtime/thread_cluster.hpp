// Real-thread execution backend: one OS thread per simulated process over
// a Transport (the in-memory fabric by default, or the real SHM+TCP
// backend), with wall-clock timing and real memcpys.
#pragma once

#include "runtime/endpoint_context.hpp"

namespace ccf::runtime {

class ThreadCluster final : public WallClockCluster {
 public:
  explicit ThreadCluster(ClusterOptions options) : WallClockCluster(std::move(options)) {}

  void run() override;
};

}  // namespace ccf::runtime
