// Execution-mode-independent process interface.
//
// All framework code (collectives, redistribution, the coupling runtime,
// the simulation components) is written against ProcessContext, so the same
// program bodies run in every execution mode: under the deterministic
// virtual-time executor (VirtualTimeCluster — the paper's timing
// experiments), on real threads (ThreadCluster) or as forked OS processes
// (ProcessCluster), the last two with a real clock through one
// EndpointContext. See DESIGN.md §5.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>

#include "transport/latency.hpp"
#include "transport/message.hpp"

namespace ccf::runtime {

using transport::CopyCostModel;
using transport::kAnyProc;
using transport::kAnyTag;
using transport::MatchSpec;
using transport::Message;
using transport::Payload;
using transport::ProcId;
using transport::Tag;

class ProcessContext {
 public:
  virtual ~ProcessContext() = default;

  /// Cluster-global id of this process.
  virtual ProcId id() const = 0;

  /// Non-blocking, ordered, reliable point-to-point send.
  virtual void send(ProcId dst, Tag tag, Payload payload) = 0;

  /// Blocking tagged receive (wildcards allowed).
  virtual Message recv(const MatchSpec& spec) = 0;

  /// Non-blocking receive.
  virtual std::optional<Message> try_recv(const MatchSpec& spec) = 0;

  /// Blocking receive with a deadline in now()-seconds; nullopt on timeout.
  virtual std::optional<Message> recv_until(const MatchSpec& spec, double deadline) = 0;

  /// Seconds since cluster start — virtual or real depending on the mode.
  virtual double now() const = 0;

  /// Performs `seconds` of application computation (spins in real mode,
  /// advances the virtual clock in virtual mode).
  virtual void compute(double seconds) = 0;

  /// Copies `bytes` from src to dst *and* charges the modeled buffering
  /// cost in virtual mode. This is the operation buddy-help elides.
  virtual void copy(void* dst, const void* src, std::size_t bytes) = 0;

  /// Advisory: true while the transport's egress for this process is
  /// congested (real backend only — TCP write queue over its high
  /// watermark or an SHM ring persistently full). The coupling runtime
  /// folds this into the collective BufferPressure protocol exactly like
  /// local memory pressure. Always false on modeled fabrics.
  virtual bool transport_pressure() const { return false; }
};

using ProcessBody = std::function<void(ProcessContext&)>;

}  // namespace ccf::runtime
