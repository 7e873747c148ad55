// RPC core types.
//
// Every metadata service (LocoFS's DMS/FMS and all baseline services) is an
// RpcHandler: a request handler keyed by (opcode, payload bytes).  Clients
// reach servers through a Channel.  Three Channel implementations exist:
//
//   * net::InProcTransport — executes handlers on the calling thread (or
//     with real injected latency), used by the examples and the
//     multi-threaded integration tests;
//   * sim::SimTransport    — schedules the exchange on the discrete-event
//     simulator's virtual clock, used by every paper experiment;
//   * net::TcpChannel      — real sockets against net::TcpServer daemons
//     (see net/tcp.h and docs/NET.md).
//
// Channel is deliberately asynchronous (completion callback) so the same
// client code — written as coroutines over Channel — runs unchanged on all.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace loco::net {

// Identifies a server node within a cluster.
using NodeId = std::uint32_t;

constexpr NodeId kInvalidNode = ~NodeId{0};

struct RpcResponse {
  ErrCode code = ErrCode::kOk;
  std::string payload;
  // Virtual time the handler spent on modeled hardware the host cannot
  // execute (storage device I/O, journal flushes).  The simulator adds this
  // to the service time; net::TcpServer charges it as a real sleep on the
  // dispatching worker thread; the in-process transport ignores it.
  common::Nanos extra_service_ns = 0;

  bool ok() const noexcept { return code == ErrCode::kOk; }
};

// Transport-provided context for one request.  Only transports with a wire
// identity fill it in: net::TcpServer passes the client id learned from the
// connection's hello (0 for v1 peers or anonymous clients) so handlers can
// attribute requests — e.g. the DMS excludes the mutating client from its
// own lease invalidations.
struct HandlerContext {
  std::uint64_t client_id = 0;
  std::uint64_t trace_id = 0;
};

// Server-side request handler.
class RpcHandler {
 public:
  virtual ~RpcHandler() = default;
  virtual RpcResponse Handle(std::uint16_t opcode, std::string_view payload) = 0;

  // Context-aware entry point; transports that know who is calling use this.
  // Defaults to the context-free Handle so existing handlers work unchanged.
  // Wrapping handlers (mux routers, fault decorators) MUST forward this
  // overload too or the context is silently dropped.
  virtual RpcResponse HandleCtx(std::uint16_t opcode, std::string_view payload,
                                const HandlerContext& ctx) {
    (void)ctx;
    return Handle(opcode, payload);
  }
};

// Priority class of a call (mirrors wire::kPriority*): foreground is the
// serving hot path, background marks housekeeping traffic (GC liveness
// probes, fsck scans, session keepalives) a saturated server sheds first,
// control marks admin RPCs that must get through an overload.
enum class Priority : std::uint8_t {
  kForeground = 0,
  kBackground = 1,
  kControl = 2,
};

// Per-call metadata carried alongside a request.  Transports that speak a
// real wire format (net::TcpChannel) put the trace id, remaining deadline
// budget and priority in the frame header and enforce the deadline; the
// in-process and simulated transports ignore these fields.
struct CallMeta {
  // Correlates every RPC issued on behalf of one client operation (the
  // ROADMAP tracing groundwork).  0 means "unassigned": net::Call stamps a
  // fresh process-unique id, so by the time a transport sees the meta the id
  // is always set.
  std::uint64_t trace_id = 0;
  // Per-call deadline; 0 selects the transport's default.
  common::Nanos deadline_ns = 0;
  // Priority class stamped on the wire (docs/OVERLOAD.md).
  Priority priority = Priority::kForeground;
};

// Process-unique, monotonically increasing trace id (never returns 0).
std::uint64_t NextTraceId() noexcept;

// Client-side capability to issue calls.
class Channel {
 public:
  virtual ~Channel() = default;

  // Issue one call; `done` is invoked exactly once with the response.
  // `done` MAY be invoked before CallAsync returns (synchronous transports).
  virtual void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                         std::function<void(RpcResponse)> done) = 0;

  // CallAsync with per-call metadata.  The default forwards to CallAsync,
  // dropping the meta — correct for transports with no wire representation
  // for it.  This is what the net::Call awaiters invoke.
  virtual void CallAsyncMeta(NodeId server, std::uint16_t opcode,
                             std::string payload, const CallMeta& meta,
                             std::function<void(RpcResponse)> done);

  // Issue the same call to many servers concurrently; `done` receives the
  // responses in `servers` order once all have completed.  The default
  // implementation issues them back-to-back; the simulator overlaps them in
  // virtual time (one round trip total, as a real client would).
  virtual void CallManyAsync(const std::vector<NodeId>& servers,
                             std::uint16_t opcode, std::string payload,
                             std::function<void(std::vector<RpcResponse>)> done);

  // Fan-out variant that shares one CallMeta (same trace id, same deadline)
  // across every leg; routed through CallAsyncMeta so metadata-aware
  // transports see it per call.
  void CallManyAsyncMeta(const std::vector<NodeId>& servers,
                         std::uint16_t opcode, std::string payload,
                         const CallMeta& meta,
                         std::function<void(std::vector<RpcResponse>)> done);
};

}  // namespace loco::net
