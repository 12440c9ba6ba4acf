// Multi-process execution backend: one forked OS process per simulated
// process over the real SHM+TCP transport.
//
// The launcher builds the RealTransport first (shared rings, doorbells,
// TCP listeners, rendezvous file), then forks one child per registered
// body. Children attach their endpoint, run the body against the same
// EndpointContext ThreadCluster uses, and ship their results back over
// a per-child pipe using the registration's ResultChannel (bodies are
// closures writing into launcher-side slots; under fork those writes land
// in copy-on-write memory, so the child re-encodes them explicitly).
//
// Failure handling: the first child that reports an error triggers a
// transport shutdown through the shared mapping (closed flag + doorbells),
// which closes every sibling's mailbox and lets them unwind as on the
// thread backend; the launcher then rethrows the first error.
#pragma once

#include "runtime/endpoint_context.hpp"

namespace ccf::runtime {

class ProcessCluster final : public WallClockCluster {
 public:
  explicit ProcessCluster(ClusterOptions options);

  void run() override;
};

}  // namespace ccf::runtime
