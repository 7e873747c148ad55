// Real TCP transport (docs/NET.md).
//
// TcpServer hosts one RpcHandler behind an epoll-driven event loop
// (level-triggered; a self-pipe still wakes the loop for cross-thread
// nudges).  Each connection is registered once with EPOLLIN and its EPOLLOUT
// interest toggled only when buffered output appears or drains, so the loop
// never rebuilds a descriptor array per wakeup the way the old poll() loop
// did.  Responses are queued as whole encoded frames (one std::string per
// frame, moved — never memcpy'd — into a per-connection deque) and flushed
// with scatter-gather writev; drained frame buffers are recycled through a
// loop-thread-only arena that the inline-execution, hello, and notify encode
// paths draw from (rpc.tcp_server.bufpool.* counters).  Frames
// are decoded incrementally (net/wire.h) on the loop thread; with
// Options::workers == 0 the handler runs inline on that thread (the original
// single-threaded mode), with workers > 0 decoded requests are dispatched to
// a pool of worker threads and may execute in any order — even requests from
// the same connection.  Responses are still written back **in decode order
// per connection** (a per-connection sequence number reorders completions),
// so a pipelining client can match responses positionally as well as by the
// echoed request id.  Handlers behind a multi-worker server must be
// thread-safe (DMS, FMS, and the object store all are).  A handler's
// RpcResponse::extra_service_ns (modeled device time) is charged by sleeping
// before the response is released, mirroring the simulator's virtual-time
// accounting.  Malformed streams drop the connection; they never crash the
// daemon or wedge the loop.
//
// TcpChannel is the client side: a net::Channel whose NodeIds map to
// host:port endpoints.  Each endpoint keeps a small set of connections and
// **pipelines** up to Options::max_pipeline concurrent calls on each one,
// correlating responses by the wire header's request id (responses may
// arrive out of order).  The receive side is event-driven: every pooled
// connection is registered with the channel's net::Reactor, whose single
// thread drains readable sockets (one recv sweep per readable socket, so a
// pipelined burst of N responses costs one syscall, not N) and completes
// each response's waiter by request id — waking only the owning caller,
// never the whole pool.  The channel enforces a per-call deadline, retries refused
// connects a bounded number of times with exponential backoff, and surfaces
// failures exactly like the in-process transport does — kUnavailable for
// unreachable/dead peers, kTimeout for an expired deadline, kCorruption for
// framing violations — so the client-side FMS-outage fallbacks work
// unchanged over real sockets.  Calls complete inline (the transport blocks
// the calling thread), which keeps net::RunInline-driven code working.
//
// Both sides record per-opcode metrics through common::RpcMetricsTable:
// rpc.tcp.* on the channel (round-trip view) and rpc.tcp_server.* on the
// server (service view), both in wall-clock nanoseconds.  The server also
// exposes rpc.tcp_server.workers / .queue_depth / .worker<i>.busy gauges and
// the channel records the rpc.tcp.pipeline_depth histogram (docs/METRICS.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/dedup.h"
#include "net/fault.h"
#include "net/notify.h"
#include "net/reactor.h"
#include "net/rpc.h"
#include "net/wire.h"

namespace loco::net {

// Split "host:port" ("127.0.0.1:9000"); false on malformed input.
bool ParseHostPort(std::string_view spec, std::string* host,
                   std::uint16_t* port);

// One bounded non-blocking connect attempt (resolve, connect, poll until the
// absolute steady-clock deadline, self-connect check, TCP_NODELAY); returns
// the connected fd or -1.  Exposed for net::NotifyListener's dedicated
// stream connection.
int DialTcp(const std::string& host, std::uint16_t port,
            common::Nanos deadline_abs);

// True when a connected socket's local and peer addresses are identical —
// the TCP simultaneous-open self-connection a loopback connect() to a dead
// port in the ephemeral range can produce.  Such a socket echoes every
// request back verbatim; the channel treats it as a connection failure.
bool IsSelfConnected(int fd);

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

// wire::kCtlLoadStatus reply payload: a point-in-time view of one server's
// admission state (docs/OVERLOAD.md).  Answered inline by the event loop,
// so it works against every daemon regardless of handler.
struct LoadStatus {
  std::uint32_t workers = 0;
  std::uint32_t queued_foreground = 0;
  std::uint32_t queued_background = 0;
  std::uint32_t queued_control = 0;
  std::uint64_t shed = 0;             // admission rejections + evictions
  std::uint64_t expired_dropped = 0;  // expired work dropped at dequeue
  std::uint64_t queue_delay_ewma_ns = 0;
  std::uint64_t read_stalls = 0;             // slow readers paused
  std::uint64_t slow_client_disconnects = 0; // slow readers dropped
};

std::string EncodeLoadStatus(const LoadStatus& status);
Status DecodeLoadStatus(std::string_view payload, LoadStatus* out);

class TcpServer : public Notifier {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-assigned; read port() after Start
    int backlog = 128;
    std::uint32_t max_payload_bytes = wire::kMaxPayloadBytes;
    // Worker threads executing handler calls.  0 = run handlers inline on
    // the loop thread; N > 0 requires a thread-safe handler.
    int workers = 0;
    // Optional fault plane (--fault-spec): decoded request frames may be
    // dropped, duplicated, delayed, or answered with a torn response, and the
    // process may _exit mid-stream.  Not owned; must outlive the server.
    FaultInjector* fault = nullptr;
    // Optional idempotent-replay window: eligible mutations executed once,
    // duplicates answered from the cached response.  Not owned; shared by a
    // daemon across restarts of its server object.
    DedupWindow* dedup = nullptr;
    // Feature bits granted to clients in the hello exchange (a client only
    // gets bits both sides advertise).  Daemons keep the default; tests can
    // clear bits to exercise the degrade path.
    std::uint64_t features = wire::kFeatureNotify | wire::kFeatureDeadline;
    // Server incarnation reported in hello replies.  Daemons persist a
    // counter in --store-dir and bump it per start, so clients can tell a
    // restart from a plain reconnect.
    std::uint64_t epoch = 0;
    // Housekeeping hooks, both invoked on the loop thread with no server
    // lock held (safe to call PushNotify etc., but keep them quick — the
    // event loop is stalled while they run).  on_notify_disconnect fires
    // when a client's notify session is torn down (its push stream is gone:
    // the DMS drops the client's lease watches immediately instead of
    // waiting out the expiry sweep).  on_client_disconnect fires when the
    // *last* connection that said hello as `client_id` closes (the client
    // process is gone: the FMS prunes its file sessions).  Not fired by
    // server Stop() — shutdown is not a client crash.
    std::function<void(std::uint64_t client_id)> on_notify_disconnect;
    std::function<void(std::uint64_t client_id)> on_client_disconnect;
    // Admission control (docs/OVERLOAD.md): cap on queued-but-unstarted
    // requests across the foreground and background classes together
    // (control traffic is exempt; 0 = unbounded).  At the cap a background
    // arrival is shed with ErrCode::kOverloaded + a retry-after hint; a
    // foreground arrival first evicts the oldest queued background request
    // (which is shed the same way) and is only refused when none is queued.
    // Worker mode only — inline mode has no queue to bound.
    std::size_t max_queue = 4096;
    // Per-connection cap on buffered response bytes.  Above this soft cap
    // the server stops reading the connection (a slow reader stalls itself,
    // not the daemon); above twice the cap the connection is dropped.
    // 0 = uncapped.
    std::size_t max_conn_output_bytes = 8u << 20;
  };

  explicit TcpServer(RpcHandler* handler) : TcpServer(handler, Options{}) {}
  TcpServer(RpcHandler* handler, Options options);
  ~TcpServer() override;
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Notifier: queue a kNotify frame for one client's notify session (or all
  // of them).  Thread-safe; the frame is written by the loop thread.  Pushes
  // are fire-and-forget — a dead session drops them, and the client-side
  // sequence check turns any loss into a resync.
  bool PushNotify(std::uint64_t client_id, std::uint16_t opcode,
                  std::string payload) override;
  std::size_t BroadcastNotify(std::uint16_t opcode,
                              std::string payload) override;
  // Notify sessions currently registered (tests).
  std::size_t notify_sessions() const;

  // Bind, listen and spawn the event-loop (and worker) threads.  One Start
  // per instance.
  Status Start();
  // Close the listening socket and every connection, then join the loop and
  // the workers (queued-but-unstarted requests are dropped).  Idempotent;
  // also run by the destructor.
  void Stop();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const noexcept { return port_; }
  const std::string& host() const noexcept { return options_.host; }
  int workers() const noexcept { return options_.workers; }
  // Requests executed by the handler so far (tests / daemon stats).
  std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  // Recent admission-queue delay (EWMA over worker dequeues, nanoseconds) —
  // the serving-load signal housekeeping subscribes to for adaptive pacing
  // (core::GcManager::SetLoadSignal).  Thread-safe.
  common::Nanos RecentQueueDelayNs() const noexcept {
    return queue_delay_ewma_ns_.load(std::memory_order_relaxed);
  }
  // Requests shed with kOverloaded / expired work dropped at dequeue, this
  // server instance only (the rpc.tcp_server.* counters are process-wide).
  std::uint64_t shed_count() const noexcept {
    return shed_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t expired_dropped_count() const noexcept {
    return expired_total_.load(std::memory_order_relaxed);
  }
  // Slow-reader backpressure, this instance only: reads paused at the soft
  // output cap / connections dropped at the hard cap.
  std::uint64_t read_stall_count() const noexcept {
    return read_stall_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_client_disconnect_count() const noexcept {
    return slow_disconnect_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  // One decoded request headed for the worker pool.  The payload is a view
  // into the connection's receive arena; `pin` keeps the backing chunk alive
  // until the worker finishes (zero-copy decode, docs/NET.md).
  struct Work {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;  // per-connection decode order
    std::uint64_t client_id = 0;  // from the connection's hello; 0 = unknown
    wire::FrameHeader header;
    std::string_view payload;
    std::shared_ptr<const std::string> pin;
    common::Nanos delay_ns = 0;    // injected stall before service
    common::Nanos enqueue_ns = 0;  // admission time (queue-delay measurement)
    // Absolute expiry from the wire deadline budget; 0 = none.  Workers drop
    // expired work at dequeue instead of executing for an absent caller.
    common::Nanos expire_ns = 0;
  };
  // One encoded response headed back to the loop thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string bytes;
  };
  // One queued push (loop thread turns it into a kNotify frame).
  struct PendingNotify {
    std::uint64_t client_id = 0;  // 0 = broadcast to every notify session
    std::uint16_t opcode = 0;
    std::string payload;
  };

  void Loop();
  void WorkerMain(std::size_t index);
  // Run the handler for one request: metrics, execution, extra_service_ns
  // charge, response encoding.  The frame is encoded into `buf` (cleared
  // first) so the loop thread can hand Execute an arena-recycled buffer;
  // workers pass a fresh string.
  std::string Execute(const wire::FrameHeader& req, std::string_view payload,
                      std::uint64_t client_id, std::string buf);
  // Decode every complete frame buffered on `conn` and execute (inline mode)
  // or enqueue (worker mode) each; returns false when the connection must be
  // dropped (framing violation).
  bool DrainFrames(Conn* conn);
  // Answer a kCtlHello inline on the loop thread (negotiation must precede
  // any dispatch) and register the notify session when granted.
  bool HandleHello(Conn* conn, const wire::PinnedFrame& frame);
  // Answer a kCtlLoadStatus inline on the loop thread (the loop owns the
  // admission queues; no handler dispatch, works under full saturation).
  bool HandleLoadStatus(Conn* conn, const wire::PinnedFrame& frame);
  // Worker-mode admission: enqueue the decoded request or shed it (and
  // possibly an older background request) with kOverloaded.  The caller has
  // already charged conn->inflight and minted `seq`.
  void AdmitWork(Conn* conn, Work&& work);
  // Answer request `seq` on `conn_id` with `code` (no handler execution) via
  // the completion path: shed and expired work still releases its slot in
  // the per-connection response order.  Loop or worker thread.
  void CompleteWithError(std::uint64_t conn_id, std::uint64_t seq,
                         const wire::FrameHeader& req, ErrCode code,
                         std::string payload);
  // Encode the kOverloaded retry-after hint payload (EWMA queue delay).
  std::string RetryAfterPayload() const;
  // Flush pending response bytes; returns false on a dead peer.
  bool FlushWrites(Conn* conn);
  // Queue one encoded response on `conn`, applying the injected short-write
  // fault (truncate mid-frame, flush what fits, then drop the connection).
  // Returns false when the connection must be dropped.
  bool AppendResponse(Conn* conn, std::string&& bytes);
  // Queue `bytes` as response number `seq`, holding it back until every
  // earlier response has been queued (worker mode keeps per-connection
  // decode order).  Returns false when the connection must be dropped.
  bool ReleaseOrdered(Conn* conn, std::uint64_t seq, std::string&& bytes);
  // Move finished worker results into their connections' output buffers in
  // per-connection decode order.
  void DeliverCompletions(
      const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns);
  // Turn queued pushes into kNotify frames on their sessions' connections.
  void DrainNotify(
      const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns);
  // Append one sequence-numbered kNotify frame (fault plane may drop or
  // duplicate it).
  void SendNotifyFrame(Conn* conn, std::uint16_t opcode,
                       const std::string& payload);
  // Drop `conn`'s notify session if it still points at this connection.
  void ForgetNotifySession(const Conn& conn);
  // Reconcile the connection's EPOLLOUT interest with whether it has
  // buffered output (EPOLL_CTL_MOD only on transitions).
  void SyncWriteInterest(Conn* conn);
  // Unregister, close and erase one connection, recycling its queued output
  // buffers into the arena.
  void CloseConn(std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>* conns,
                 std::uint64_t id);
  // Loop-thread-only response-buffer arena: GetBuffer() reuses a drained
  // frame buffer when one is pooled, RecycleBuffer() returns one after the
  // socket accepted its bytes.  Bounded in count and per-buffer capacity so
  // a burst of huge responses cannot pin memory.
  std::string GetBuffer();
  void RecycleBuffer(std::string&& buf);

  RpcHandler* handler_;
  Options options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Stop()/workers wake the event loop
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> requests_{0};

  // Worker pool (empty in inline mode).  Admission queues are bounded and
  // per-priority (dequeue order control > foreground > background; see
  // Options::max_queue for the shed policy).
  std::vector<std::thread> workers_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queues_[wire::kPriorityCount];
  bool queue_stop_ = false;
  std::mutex comp_mu_;
  std::vector<Completion> completions_;
  std::deque<std::atomic<bool>> busy_;  // one flag per worker (gauges)
  std::vector<common::MetricsRegistry::GaugeHandle> gauges_;

  // Notify plane: client_id → conn id of its (single) notify session, plus
  // pushes queued for the loop thread.
  mutable std::mutex notify_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> notify_sessions_;
  std::vector<PendingNotify> pending_notify_;

  // client_id → number of live connections that said hello as that id.
  // Loop thread only: maintained by HandleHello/CloseConn, consulted to fire
  // Options::on_client_disconnect when a client's last connection dies.
  std::unordered_map<std::uint64_t, std::uint64_t> client_conns_;

  // Arena of recycled response buffers (loop thread only — workers hand
  // their encoded frames over via completions and the loop recycles them
  // once flushed).
  std::vector<std::string> buf_pool_;
  common::Counter* bufpool_reuses_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.bufpool.reuses");
  common::Counter* bufpool_allocs_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.bufpool.allocs");
  // Requests whose payload was dispatched as a view pinned into the receive
  // arena (no decode-time copy); .copies counts the chunk-straddlers.
  common::Counter* zerocopy_hits_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.bufpool.zerocopy_hits");
  common::Counter* zerocopy_copies_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.bufpool.zerocopy_copies");

  // Overload-control state (docs/OVERLOAD.md).  Per-instance totals back
  // the LoadStatus reply; the rpc.tcp_server.* counters are process-wide.
  std::atomic<common::Nanos> queue_delay_ewma_ns_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> expired_total_{0};
  std::atomic<std::uint64_t> read_stall_total_{0};
  std::atomic<std::uint64_t> slow_disconnect_total_{0};
  common::Counter* shed_metric_ =
      &common::MetricsRegistry::Default().GetCounter("rpc.tcp_server.shed");
  common::Counter* expired_metric_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.expired_dropped");
  common::Counter* read_stall_metric_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.read_stalls");
  common::Counter* slow_disconnect_metric_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.slow_client_disconnects");
  common::LatencyHistogram* queue_delay_hist_ =
      &common::MetricsRegistry::Default().GetHistogram(
          "rpc.tcp_server.queue_delay", "wall_ns");

  common::RpcMetricsTable metrics_{&common::MetricsRegistry::Default(),
                                   "tcp_server", "wall_ns"};
};

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct TcpChannelOptions {
  // Default per-call deadline (send + receive, including connect time);
  // CallMeta::deadline_ns overrides per call.
  common::Nanos call_deadline_ns = 5 * common::kSecond;
  // Bounded retry on connect failure: total attempts per call.
  int connect_attempts = 3;
  // Backoff before attempt N+1; doubles each retry.
  common::Nanos connect_backoff_ns = 20 * common::kMilli;
  // Cap on a single connect() wait (also bounded by the call deadline).
  common::Nanos connect_timeout_ns = common::kSecond;
  std::uint32_t max_payload_bytes = wire::kMaxPayloadBytes;
  // Outstanding calls multiplexed on one connection before the channel opens
  // another.
  std::uint32_t max_pipeline = 32;
  // Optional client-side fault plane: stalls requests before they are sent
  // (the delay=/delay_ms= knobs of the spec).  Not owned.
  FaultInjector* fault = nullptr;
  // Mount identity announced in a fire-and-forget hello on every fresh
  // connection (request id 0 — never used by calls, so the reply is read
  // and discarded by whichever caller holds the reader role).  The server
  // attributes requests on the connection to this id (HandlerContext), which
  // is how the DMS knows not to invalidate the mutating client's own lease.
  // 0 skips the hello entirely (anonymous, v1-identical behaviour).
  std::uint64_t client_id = 0;
  // Feature bits advertised in that hello.  Pooled RPC connections should
  // NOT advertise kFeatureNotify — the notify stream belongs on the
  // NotifyListener's dedicated connection.  kFeatureDeadline is advertised
  // by default: once the server's hello reply grants it, calls carry their
  // remaining deadline budget and priority class on the wire
  // (docs/OVERLOAD.md); against an old server the channel keeps emitting
  // v1 frames.
  std::uint64_t features = wire::kFeatureDeadline;
};

class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(TcpChannelOptions options = {});
  ~TcpChannel() override;

  // Map `id` to an endpoint.  Like InProcTransport::Register: perform all
  // registrations before serving traffic.
  void Register(NodeId id, std::string host, std::uint16_t port);
  // Same, from a "host:port" spec; false on malformed input.
  bool Register(NodeId id, std::string_view host_port);

  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override;
  void CallAsyncMeta(NodeId server, std::uint16_t opcode, std::string payload,
                     const CallMeta& meta,
                     std::function<void(RpcResponse)> done) override;

  // Issue every (opcode, payload) in `calls` back-to-back on one pipelined
  // connection and wait for all responses; results are in `calls` order
  // (matched by request id — the server may complete them out of order).
  // The whole burst shares one CallMeta (trace id + deadline).  Unlike
  // single calls, bursts never retry on a stale pooled connection.
  std::vector<RpcResponse> CallPipelined(
      NodeId server,
      const std::vector<std::pair<std::uint16_t, std::string>>& calls,
      const CallMeta& meta = {});

  // Drop every pooled connection (tests; forces fresh connects).  Calls in
  // flight keep their connection alive until they complete.
  void DisconnectAll();

  // Force the endpoint's request-id counter (tests: exercises the counter
  // wrap / id-reuse window without issuing 2^64 calls).
  void SetNextRequestIdForTest(NodeId server, std::uint64_t value);

  // The channel's I/O reactor (core::Connect hands it to the NotifyListener
  // so the whole mount shares one event thread).
  Reactor& reactor() noexcept { return reactor_; }

 private:
  // One caller blocked on a pipelined response.  Each waiter has its own
  // condition variable so the reactor wakes exactly the owning caller.
  struct Waiter {
    wire::Frame frame;
    bool done = false;
    ErrCode fail = ErrCode::kOk;
    std::condition_variable cv;  // paired with the connection's mu
  };

  // A connection multiplexing many concurrent calls.  Shared by reference
  // count: the endpoint list holds one reference, every active call another;
  // the socket closes when the last reference drops.
  struct PipeConn {
    PipeConn(int fd_in, std::uint32_t max_payload)
        : fd(fd_in), reader(max_payload) {}
    ~PipeConn();

    const int fd;
    std::atomic<bool> dead{false};       // failed; skipped and pruned
    std::atomic<std::uint32_t> inflight{0};  // reservations (load balancing)
    // Feature bits the server granted in its hello reply (the reactor
    // captures the request-id-0 response).  0 until the reply arrives, so
    // early calls degrade to v1 frames; once kFeatureDeadline shows up the
    // channel stamps the deadline budget + priority extension.
    std::atomic<std::uint64_t> peer_features{0};
    std::mutex write_mu;  // serializes request bytes onto the socket
    std::mutex mu;        // guards everything below (except `reader`)
    wire::FrameReader reader;  // reactor thread only
    std::unordered_map<std::uint64_t, Waiter*> waiting;
    // Request ids whose caller timed out while the request was still
    // outstanding on the wire.  The server WILL answer them eventually; until
    // that late response arrives (and is discarded) the id must not be
    // handed to a new call on this connection, or the old response would
    // complete the new call.  Ids leave the set when their response shows up
    // or the connection dies.
    std::unordered_set<std::uint64_t> abandoned;
    // DisconnectAll dropped this conn from the endpoint pool while calls were
    // in flight: the reactor keeps reading until the last waiter is answered,
    // then drops its (final) reference.
    bool orphaned = false;
    ErrCode broken = ErrCode::kOk;  // terminal failure code
  };

  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
    std::mutex mu;
    std::vector<std::shared_ptr<PipeConn>> conns;
    std::atomic<std::uint64_t> next_request_id{1};
  };

  RpcResponse DoCall(Endpoint& ep, std::uint16_t opcode,
                     std::string_view payload, const CallMeta& meta);
  // Connect with bounded retry + exponential backoff; -1 on failure
  // (`timed_out` reports whether the call deadline, not the peer, gave up).
  int Connect(const Endpoint& ep, common::Nanos deadline_abs, bool* timed_out);
  // Pick (or dial) a connection and reserve one inflight slot on it.
  // `reused` reports whether the connection predates this call — only those
  // are eligible for the stale-connection retry.  nullptr on connect
  // failure, with *err set.
  std::shared_ptr<PipeConn> AcquireConn(Endpoint& ep,
                                        common::Nanos deadline_abs,
                                        bool* reused, ErrCode* err);
  enum class RegisterResult {
    kOk,
    kBroken,   // connection already failed
    kIdInUse,  // id collides with an in-flight or abandoned request: re-mint
  };
  // Add `w` to the conn's waiter table under `request_id`.  Refuses an id
  // that is still in flight or abandoned on this connection — after a
  // counter wrap, reusing such an id would let the *old* call's late
  // response complete the *new* call.
  RegisterResult RegisterWaiter(PipeConn& conn, std::uint64_t request_id,
                                Waiter* w);
  // Block until `w` completes or `deadline_abs` passes.  Completion arrives
  // from the reactor thread, which reads frames and signals the waiter's cv.
  void AwaitWaiter(PipeConn& conn, std::uint64_t request_id, Waiter& w,
                   common::Nanos deadline_abs);
  // Reactor callback: drain the socket, dispatch complete response frames to
  // their waiters by request id.  Returns false (deregister) when the
  // connection died or an orphaned connection ran out of waiters.
  bool OnReadable(const std::shared_ptr<PipeConn>& conn);
  // Mint the next request id for `ep`, skipping 0 (reserved for the hello).
  static std::uint64_t NextRequestId(Endpoint& ep);
  // Mark the connection dead and fail every registered waiter (conn.mu held).
  static void FailConnLocked(PipeConn& conn, ErrCode code);

  TcpChannelOptions options_;
  std::unordered_map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
  common::RpcMetricsTable metrics_{&common::MetricsRegistry::Default(),
                                   "tcp", "wall_ns"};
  // Waiters outstanding on the connection at each call issue (docs/METRICS.md).
  common::LatencyHistogram* pipeline_depth_;
  // Response frames the reactor matched to a waiter (docs/METRICS.md).
  common::Counter* reactor_frames_ =
      &common::MetricsRegistry::Default().GetCounter("rpc.tcp.reactor.frames");
  // Declared last so it is destroyed first: joining the reactor thread before
  // any other member dies guarantees no callback touches a dead channel.
  Reactor reactor_;
};

}  // namespace loco::net
