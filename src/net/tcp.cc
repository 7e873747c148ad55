#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "common/codec.h"
#include "common/rng.h"

namespace loco::net {

namespace {

constexpr std::size_t kIoChunk = 64 * 1024;
// Smallest receive window worth a recv() syscall; below this the reader
// rotates to a fresh arena chunk instead of filling the tail fragment.
constexpr std::size_t kMinRecvWindow = 4 * 1024;

// epoll_event.data.u64 tags for the two non-connection descriptors; real
// connection ids start at 1 and count up, so they can never collide.
constexpr std::uint64_t kListenTag = UINT64_MAX;
constexpr std::uint64_t kWakeTag = UINT64_MAX - 1;

// Scatter-gather flush width: frames gathered into one sendmsg() call.
constexpr int kMaxIov = 64;

// Buffer-arena bounds: at most this many pooled buffers, none retained once
// its capacity outgrows the cap (a one-off giant readdir reply must not pin
// megabytes for the connection's lifetime).
constexpr std::size_t kPoolMaxBuffers = 64;
constexpr std::size_t kPoolMaxBufferBytes = 256 * 1024;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Wait for `events` on `fd` until the absolute steady-clock deadline.
// Returns >0 when ready, 0 on deadline, <0 on poll error.
int PollUntil(int fd, short events, common::Nanos deadline_abs) {
  for (;;) {
    const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
    if (remaining <= 0) return 0;
    struct pollfd pfd{fd, events, 0};
    // Round up so a sub-millisecond remainder still waits.
    const int timeout_ms =
        static_cast<int>(std::min<common::Nanos>((remaining + common::kMilli - 1) /
                                                     common::kMilli,
                                                 60'000));
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return n;
    if (n < 0 && errno != EINTR) return -1;
  }
}

// One non-blocking connect attempt within the deadline; -1 on failure.
int ConnectOnce(const std::string& host, std::uint16_t port,
                common::Nanos deadline_abs) {
  struct addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      fd = -1;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS && PollUntil(fd, POLLOUT, deadline_abs) > 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0) {
        break;
      }
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0 && IsSelfConnected(fd)) {
    ::close(fd);
    return -1;
  }
  if (fd >= 0) SetNoDelay(fd);
  return fd;
}

// Write all of `data` before the deadline.
Status SendAll(int fd, std::string_view data, common::Nanos deadline_abs) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int r = PollUntil(fd, POLLOUT, deadline_abs);
      if (r == 0) return ErrStatus(ErrCode::kTimeout, "send deadline");
      if (r < 0) return ErrStatus(ErrCode::kUnavailable, "poll failed");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrStatus(ErrCode::kUnavailable, "peer closed mid-send");
  }
  return OkStatus();
}

// Encode a handler-free response frame (shed, expired, or otherwise refused
// requests): echoes the request's opcode / ids so the client's waiter matches.
std::string EncodeErrorReply(const wire::FrameHeader& req, ErrCode code,
                             std::string_view payload, std::string buf) {
  wire::FrameHeader reply;
  reply.type = wire::FrameType::kResponse;
  reply.opcode = req.opcode;
  reply.request_id = req.request_id;
  reply.trace_id = req.trace_id;
  reply.code = code;
  buf.clear();
  wire::EncodeFrameInto(reply, payload, &buf);
  return buf;
}

}  // namespace

std::string EncodeLoadStatus(const LoadStatus& status) {
  common::Writer w;
  w.PutU32(status.workers);
  w.PutU32(status.queued_foreground);
  w.PutU32(status.queued_background);
  w.PutU32(status.queued_control);
  w.PutU64(status.shed);
  w.PutU64(status.expired_dropped);
  w.PutU64(status.queue_delay_ewma_ns);
  w.PutU64(status.read_stalls);
  w.PutU64(status.slow_client_disconnects);
  return w.Take();
}

Status DecodeLoadStatus(std::string_view payload, LoadStatus* out) {
  common::Reader r(payload);
  out->workers = r.GetU32();
  out->queued_foreground = r.GetU32();
  out->queued_background = r.GetU32();
  out->queued_control = r.GetU32();
  out->shed = r.GetU64();
  out->expired_dropped = r.GetU64();
  out->queue_delay_ewma_ns = r.GetU64();
  out->read_stalls = r.GetU64();
  out->slow_client_disconnects = r.GetU64();
  if (!r.AtEnd()) {
    return ErrStatus(ErrCode::kCorruption, "bad load-status payload");
  }
  return OkStatus();
}

int DialTcp(const std::string& host, std::uint16_t port,
            common::Nanos deadline_abs) {
  return ConnectOnce(host, port, deadline_abs);
}

bool ParseHostPort(std::string_view spec, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return false;
  }
  const std::string_view port_str = spec.substr(colon + 1);
  unsigned value = 0;
  const auto [ptr, ec] =
      std::from_chars(port_str.data(), port_str.data() + port_str.size(), value);
  if (ec != std::errc{} || ptr != port_str.data() + port_str.size() ||
      value > 65535) {
    return false;
  }
  *host = std::string(spec.substr(0, colon));
  *port = static_cast<std::uint16_t>(value);
  return true;
}

// TCP simultaneous open lets a connect() to a loopback port with no
// listener succeed by connecting the socket to itself when the kernel
// happens to pick the destination port as the ephemeral source port.
// Such a socket echoes every request back verbatim as a "response".
bool IsSelfConnected(int fd) {
  struct sockaddr_storage local{};
  struct sockaddr_storage peer{};
  socklen_t local_len = sizeof(local);
  socklen_t peer_len = sizeof(peer);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&local),
                    &local_len) != 0 ||
      ::getpeername(fd, reinterpret_cast<struct sockaddr*>(&peer),
                    &peer_len) != 0) {
    return false;
  }
  return local_len == peer_len && std::memcmp(&local, &peer, local_len) == 0;
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

struct TcpServer::Conn {
  explicit Conn(int fd_in, std::uint64_t id_in, std::uint32_t max_payload)
      : fd(fd_in), id(id_in), reader(max_payload) {}
  int fd;
  std::uint64_t id;
  // Zero-copy decode: recv() lands in the reader's refcounted arena and
  // request payloads dispatch as views pinned into it (docs/NET.md).
  wire::PinnedFrameReader reader;
  // Pending output: whole encoded frames, moved in (never memcpy'd) and
  // flushed with writev.  out_off is the partial-send offset into the front
  // buffer; out_bytes the total unsent bytes across the queue.
  std::deque<std::string> outq;
  std::size_t out_off = 0;
  std::size_t out_bytes = 0;
  bool want_write = false;  // EPOLLOUT currently registered
  bool dead = false;        // write side failed; remove on the next pass
  // Output backlog exceeded the soft cap: EPOLLIN is dropped until the peer
  // drains its responses.
  bool read_stalled = false;
  // Hello state (loop thread only).
  std::uint64_t client_id = 0;   // announced identity; 0 = anonymous
  bool notify = false;           // this conn is its client's notify session
  std::uint64_t notify_seq = 0;  // last push sequence number sent
  // Worker mode: responses must leave in decode order even though workers
  // finish in any order.
  std::uint64_t next_seq = 0;    // assigned to the next decoded frame
  std::uint64_t next_flush = 0;  // next seq allowed into `out`
  std::uint64_t inflight = 0;    // dispatched, not yet delivered
  std::map<std::uint64_t, std::string> done;  // finished out-of-order
};

TcpServer::TcpServer(RpcHandler* handler, Options options)
    : handler_(handler), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return ErrStatus(ErrCode::kInvalid, "server already running");
  }
  struct addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* res = nullptr;
  const std::string service = std::to_string(options_.port);
  if (::getaddrinfo(options_.host.c_str(), service.c_str(), &hints, &res) != 0) {
    return ErrStatus(ErrCode::kInvalid, "cannot resolve " + options_.host);
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, options_.backlog) == 0 && SetNonBlocking(fd)) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    return ErrStatus(ErrCode::kUnavailable,
                     "cannot bind " + options_.host + ":" +
                         std::to_string(options_.port));
  }
  // Recover the kernel-assigned port for port=0 binds.
  struct sockaddr_storage addr{};
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &addr_len) ==
      0) {
    if (addr.ss_family == AF_INET) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
    } else if (addr.ss_family == AF_INET6) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
    }
  }
  if (::pipe(wake_fds_) != 0 || !SetNonBlocking(wake_fds_[0]) ||
      !SetNonBlocking(wake_fds_[1])) {
    ::close(fd);
    for (int& w : wake_fds_) {
      if (w >= 0) ::close(w);
      w = -1;
    }
    return ErrStatus(ErrCode::kIo, "cannot create wake pipe");
  }
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    ::close(fd);
    for (int& w : wake_fds_) {
      ::close(w);
      w = -1;
    }
    return ErrStatus(ErrCode::kIo, "cannot create epoll instance");
  }
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev);
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  queue_stop_ = false;
  for (auto& q : queues_) q.clear();
  completions_.clear();
  busy_.clear();
  running_.store(true, std::memory_order_release);
  // Fully populate busy_ before any worker indexes into it, and spawn the
  // poll loop last so it never observes a half-built pool.
  for (int i = 0; i < options_.workers; ++i) busy_.emplace_back(false);
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&TcpServer::WorkerMain, this,
                          static_cast<std::size_t>(i));
  }
  thread_ = std::thread(&TcpServer::Loop, this);
  auto& reg = common::MetricsRegistry::Default();
  gauges_.push_back(reg.RegisterGauge(
      "rpc.tcp_server.workers",
      [this] { return static_cast<double>(options_.workers); }));
  gauges_.push_back(reg.RegisterGauge("rpc.tcp_server.queue_depth", [this] {
    std::scoped_lock lock(queue_mu_);
    std::size_t depth = 0;
    for (const auto& q : queues_) depth += q.size();
    return static_cast<double>(depth);
  }));
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    gauges_.push_back(reg.RegisterGauge(
        "rpc.tcp_server.worker" + std::to_string(i) + ".busy",
        [this, i] {
          return busy_[i].load(std::memory_order_relaxed) ? 1.0 : 0.0;
        }));
  }
  return OkStatus();
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  {
    std::scoped_lock lock(queue_mu_);
    queue_stop_ = true;
    // Undelivered requests are dropped, like their connections.
    for (auto& q : queues_) q.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  for (int& w : wake_fds_) {
    if (w >= 0) ::close(w);
    w = -1;
  }
  buf_pool_.clear();
  // Releasing the handles retires the final gauge values into the registry,
  // so end-of-run --metrics-out dumps still carry the worker count.
  gauges_.clear();
  std::scoped_lock lock(notify_mu_);
  notify_sessions_.clear();
  pending_notify_.clear();
}

bool TcpServer::PushNotify(std::uint64_t client_id, std::uint16_t opcode,
                           std::string payload) {
  if (client_id == 0 || !running_.load(std::memory_order_acquire)) return false;
  {
    std::scoped_lock lock(notify_mu_);
    if (notify_sessions_.find(client_id) == notify_sessions_.end()) {
      common::MetricsRegistry::Default()
          .GetCounter("notify.server.no_session")
          .Add();
      return false;
    }
    pending_notify_.push_back(PendingNotify{client_id, opcode, std::move(payload)});
  }
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  return true;
}

std::size_t TcpServer::BroadcastNotify(std::uint16_t opcode,
                                       std::string payload) {
  if (!running_.load(std::memory_order_acquire)) return 0;
  std::size_t sessions = 0;
  {
    std::scoped_lock lock(notify_mu_);
    sessions = notify_sessions_.size();
    if (sessions == 0) return 0;
    pending_notify_.push_back(PendingNotify{0, opcode, std::move(payload)});
  }
  common::MetricsRegistry::Default()
      .GetCounter("notify.server.broadcasts")
      .Add();
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  return sessions;
}

std::size_t TcpServer::notify_sessions() const {
  std::scoped_lock lock(notify_mu_);
  return notify_sessions_.size();
}

std::string TcpServer::Execute(const wire::FrameHeader& req,
                               std::string_view payload,
                               std::uint64_t client_id, std::string buf) {
  const common::RpcMetricsTable::PerOp& m = metrics_.For(req.opcode);
  m.calls->Add();
  m.bytes_received->Add(payload.size());
  const common::CpuTimer timer;
  RpcResponse resp;
  bool replayed = false;
  std::string dedup_key;
  bool dedup_owner = false;
  if (options_.dedup != nullptr && options_.dedup->Eligible(req.opcode)) {
    // Idempotent replay: a retried or duplicated mutation must not apply
    // twice.  The first arrival executes; later arrivals (including ones
    // racing the first) get the cached response verbatim.
    dedup_key = DedupWindow::Key(req, payload);
    ErrCode cached_code = ErrCode::kOk;
    std::string cached;
    if (options_.dedup->Begin(dedup_key, &cached_code, &cached) ==
        DedupWindow::Outcome::kReplay) {
      resp.code = cached_code;
      resp.payload = std::move(cached);
      replayed = true;
    } else {
      dedup_owner = true;
    }
  }
  if (!replayed) {
    resp = handler_->HandleCtx(req.opcode, payload,
                               HandlerContext{client_id, req.trace_id});
    if (dedup_owner) options_.dedup->Complete(dedup_key, resp.code, resp.payload);
  }
  if (resp.extra_service_ns > 0) {
    // Charge modeled device time (journal flushes, object I/O) in real time,
    // the wall-clock analogue of the simulator's virtual-time accounting.
    std::this_thread::sleep_for(std::chrono::nanoseconds(resp.extra_service_ns));
  }
  if (!resp.ok()) m.errors->Add();
  m.bytes_sent->Add(resp.payload.size());
  m.latency->Record(timer.ElapsedNanos());
  requests_.fetch_add(1, std::memory_order_relaxed);
  wire::FrameHeader reply;
  reply.type = wire::FrameType::kResponse;
  reply.opcode = req.opcode;
  reply.request_id = req.request_id;
  reply.trace_id = req.trace_id;
  reply.code = resp.code;
  buf.clear();
  wire::EncodeFrameInto(reply, resp.payload, &buf);
  return buf;
}

bool TcpServer::HandleHello(Conn* conn, const wire::PinnedFrame& frame) {
  wire::Hello hello;
  wire::HelloReply reply;
  reply.proto_version = wire::kVersion;
  reply.epoch = options_.epoch;
  ErrCode code = ErrCode::kOk;
  if (wire::DecodeHello(frame.payload, &hello).ok()) {
    reply.features = hello.features & options_.features;
    if (conn->client_id != hello.client_id) {
      // Re-identifying a connection is legal (tests do); keep the per-client
      // connection counts honest across the switch.
      if (conn->client_id != 0) {
        auto it = client_conns_.find(conn->client_id);
        if (it != client_conns_.end() && --it->second == 0) {
          client_conns_.erase(it);
        }
      }
      if (hello.client_id != 0) ++client_conns_[hello.client_id];
    }
    conn->client_id = hello.client_id;
    if ((reply.features & wire::kFeatureNotify) != 0 && hello.client_id != 0) {
      // This connection becomes the client's notify session (latest wins —
      // a reconnecting listener replaces its predecessor's stale entry).
      conn->notify = true;
      std::scoped_lock lock(notify_mu_);
      notify_sessions_[hello.client_id] = conn->id;
    }
  } else {
    code = ErrCode::kInvalid;
  }
  wire::FrameHeader rh;
  rh.type = wire::FrameType::kResponse;
  rh.opcode = frame.header.opcode;
  rh.request_id = frame.header.request_id;
  rh.trace_id = frame.header.trace_id;
  rh.code = code;
  const std::string reply_payload =
      code == ErrCode::kOk ? wire::EncodeHelloReply(reply) : std::string();
  std::string bytes = GetBuffer();
  wire::EncodeFrameInto(rh, reply_payload, &bytes);
  // Negotiation is answered inline on the loop thread, but in worker mode
  // the reply must not overtake responses still in the pool: give it a slot
  // in the per-connection sequence and release it in order.
  if (options_.workers == 0) return AppendResponse(conn, std::move(bytes));
  return ReleaseOrdered(conn, conn->next_seq++, std::move(bytes));
}

bool TcpServer::HandleLoadStatus(Conn* conn, const wire::PinnedFrame& frame) {
  LoadStatus status;
  status.workers = static_cast<std::uint32_t>(std::max(options_.workers, 0));
  {
    std::scoped_lock lock(queue_mu_);
    status.queued_foreground = static_cast<std::uint32_t>(
        queues_[wire::kPriorityForeground].size());
    status.queued_background = static_cast<std::uint32_t>(
        queues_[wire::kPriorityBackground].size());
    status.queued_control =
        static_cast<std::uint32_t>(queues_[wire::kPriorityControl].size());
  }
  status.shed = shed_total_.load(std::memory_order_relaxed);
  status.expired_dropped = expired_total_.load(std::memory_order_relaxed);
  status.queue_delay_ewma_ns = static_cast<std::uint64_t>(
      queue_delay_ewma_ns_.load(std::memory_order_relaxed));
  status.read_stalls = read_stall_total_.load(std::memory_order_relaxed);
  status.slow_client_disconnects =
      slow_disconnect_total_.load(std::memory_order_relaxed);
  std::string bytes = EncodeErrorReply(frame.header, ErrCode::kOk,
                                       EncodeLoadStatus(status), GetBuffer());
  // Like the hello: answered inline, but never ahead of responses already in
  // the worker pool for this connection.
  if (options_.workers == 0) return AppendResponse(conn, std::move(bytes));
  return ReleaseOrdered(conn, conn->next_seq++, std::move(bytes));
}

std::string TcpServer::RetryAfterPayload() const {
  // Hint roughly one queue drain (the recent queue delay), floored so a shed
  // client never spins on a zero hint.
  common::Nanos hint = queue_delay_ewma_ns_.load(std::memory_order_relaxed);
  if (hint < common::kMilli) hint = common::kMilli;
  common::Writer w;
  w.PutU64(static_cast<std::uint64_t>(hint));
  return w.Take();
}

void TcpServer::CompleteWithError(std::uint64_t conn_id, std::uint64_t seq,
                                  const wire::FrameHeader& req, ErrCode code,
                                  std::string payload) {
  // Through the completion path so the refused request still releases its
  // slot in the per-connection response order — an evicted background
  // request may even belong to a different connection than the one whose
  // frames are being drained.
  std::string bytes = EncodeErrorReply(req, code, payload, std::string());
  {
    std::scoped_lock lock(comp_mu_);
    completions_.push_back(Completion{conn_id, seq, std::move(bytes)});
  }
  // Self-wake: the loop only drains completions at the top of a round.
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void TcpServer::AdmitWork(Conn* conn, Work&& work) {
  (void)conn;  // inflight already charged by the caller
  const std::uint8_t pri = work.header.priority < wire::kPriorityCount
                               ? work.header.priority
                               : wire::kPriorityForeground;
  const bool forced =
      options_.fault != nullptr && options_.fault->ForceQueueFull();
  bool shed_self = false;
  std::optional<Work> evicted;
  {
    std::scoped_lock lock(queue_mu_);
    // Control traffic is exempt from the cap: the load-status probe and its
    // kin must get through in the very overload they diagnose.
    const std::size_t bounded = queues_[wire::kPriorityForeground].size() +
                                queues_[wire::kPriorityBackground].size();
    const bool full =
        pri != wire::kPriorityControl &&
        (forced || (options_.max_queue > 0 && bounded >= options_.max_queue));
    if (!full) {
      queues_[pri].push_back(std::move(work));
    } else if (pri == wire::kPriorityForeground &&
               !queues_[wire::kPriorityBackground].empty()) {
      // Foreground displaces the oldest queued background request, which is
      // shed in its place.
      evicted = std::move(queues_[wire::kPriorityBackground].front());
      queues_[wire::kPriorityBackground].pop_front();
      queues_[pri].push_back(std::move(work));
    } else {
      shed_self = true;
    }
  }
  if (shed_self || evicted.has_value()) {
    shed_metric_->Add();
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    const Work& victim = shed_self ? work : *evicted;
    CompleteWithError(victim.conn_id, victim.seq, victim.header,
                      ErrCode::kOverloaded, RetryAfterPayload());
  }
  if (!shed_self) queue_cv_.notify_one();
}

bool TcpServer::DrainFrames(Conn* conn) {
  while (auto frame = conn->reader.Next()) {
    if (frame->header.type != wire::FrameType::kRequest) return false;
    if (frame->zero_copy) {
      zerocopy_hits_->Add();
    } else {
      zerocopy_copies_->Add();
    }
    if (frame->header.opcode == wire::kCtlHello) {
      // Connection control precedes the fault plane: hello is part of the
      // transport, not the workload under test.
      if (!HandleHello(conn, *frame)) return false;
      continue;
    }
    if (frame->header.opcode == wire::kCtlLoadStatus) {
      // Also transport-level, and deliberately ahead of the fault plane and
      // the admission queues: the probe must answer while the server is busy
      // shedding everything else.
      if (!HandleLoadStatus(conn, *frame)) return false;
      continue;
    }
    int copies = 1;
    common::Nanos delay_ns = 0;
    if (options_.fault != nullptr) {
      const FaultInjector::FrameFate fate = options_.fault->OnServerFrame();
      if (fate.crash) {
        // Simulate kill -9 between a KV write and its successor: no atexit
        // handlers, no stdio flush, connections torn mid-stream.
        std::_Exit(137);
      }
      if (fate.reset) return false;
      if (fate.drop) continue;
      if (fate.dup) copies = 2;
      delay_ns = fate.delay_ns;
    }
    // The wire deadline budget counts from decode: by the time the request
    // reaches a worker (or survives an injected delay) the caller may have
    // given up, and executing for an absent caller only deepens an overload.
    const common::Nanos decoded_ns = common::CpuTimer::Now();
    const common::Nanos expire_ns =
        frame->header.deadline_budget_ns > 0
            ? decoded_ns +
                  static_cast<common::Nanos>(frame->header.deadline_budget_ns)
            : 0;
    for (int copy = 0; copy < copies; ++copy) {
      if (options_.workers == 0) {
        if (delay_ns > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns));
        }
        if (expire_ns != 0 && common::CpuTimer::Now() > expire_ns) {
          expired_metric_->Add();
          expired_total_.fetch_add(1, std::memory_order_relaxed);
          if (!AppendResponse(conn,
                              EncodeErrorReply(frame->header, ErrCode::kTimeout,
                                               {}, GetBuffer()))) {
            return false;
          }
        } else if (!AppendResponse(conn,
                                   Execute(frame->header, frame->payload,
                                           conn->client_id, GetBuffer()))) {
          return false;
        }
      } else {
        // Duplicated frames share the payload view and its pin; Execute
        // only reads the bytes.
        Work work;
        work.conn_id = conn->id;
        work.seq = conn->next_seq++;
        work.client_id = conn->client_id;
        work.header = frame->header;
        work.payload = frame->payload;
        work.pin = frame->pin;
        work.delay_ns = delay_ns;
        work.enqueue_ns = decoded_ns;
        work.expire_ns = expire_ns;
        ++conn->inflight;
        AdmitWork(conn, std::move(work));
      }
    }
  }
  // A framing violation is unrecoverable: drop the connection.
  return conn->reader.status().ok();
}

bool TcpServer::FlushWrites(Conn* conn) {
  while (conn->out_bytes > 0) {
    // Gather up to kMaxIov queued frames into one scatter-gather send; the
    // front buffer may already be partially written (out_off).
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t skip = conn->out_off;
    for (const std::string& frame : conn->outq) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<char*>(frame.data()) + skip;
      iov[iovcnt].iov_len = frame.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    conn->out_bytes -= static_cast<std::size_t>(n);
    std::size_t sent = static_cast<std::size_t>(n);
    while (sent > 0) {
      std::string& front = conn->outq.front();
      const std::size_t remaining = front.size() - conn->out_off;
      if (sent < remaining) {
        conn->out_off += sent;
        break;
      }
      sent -= remaining;
      RecycleBuffer(std::move(front));
      conn->outq.pop_front();
      conn->out_off = 0;
    }
  }
  return true;
}

bool TcpServer::AppendResponse(Conn* conn, std::string&& bytes) {
  if (options_.fault != nullptr && options_.fault->ShortWriteResponse()) {
    // Torn response: deliver only the first half of the frame, push what the
    // socket accepts, then let the caller drop the connection.  The client
    // observes a desynchronized stream and must treat the call as failed.
    bytes.resize(bytes.size() / 2);
    if (!bytes.empty()) {
      conn->out_bytes += bytes.size();
      conn->outq.push_back(std::move(bytes));
    }
    FlushWrites(conn);
    return false;
  }
  if (!bytes.empty()) {
    if (options_.max_conn_output_bytes > 0 &&
        conn->out_bytes + bytes.size() > 2 * options_.max_conn_output_bytes) {
      // Twice the soft cap of undrained responses: the peer stopped reading
      // long ago (the soft cap already paused its requests).  Cut it loose
      // rather than buffer without bound.
      slow_disconnect_metric_->Add();
      slow_disconnect_total_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    conn->out_bytes += bytes.size();
    conn->outq.push_back(std::move(bytes));
  }
  return true;
}

void TcpServer::WorkerMain(std::size_t index) {
  for (;;) {
    Work w;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        if (queue_stop_) return true;
        for (const auto& q : queues_) {
          if (!q.empty()) return true;
        }
        return false;
      });
      if (queue_stop_) return;
      // Strict priority dequeue: control, then foreground, then background.
      std::deque<Work>* src = &queues_[wire::kPriorityControl];
      if (src->empty()) src = &queues_[wire::kPriorityForeground];
      if (src->empty()) src = &queues_[wire::kPriorityBackground];
      w = std::move(src->front());
      src->pop_front();
    }
    busy_[index].store(true, std::memory_order_relaxed);
    const common::Nanos dequeued_ns = common::CpuTimer::Now();
    if (w.enqueue_ns > 0 && dequeued_ns > w.enqueue_ns) {
      const common::Nanos qdelay = dequeued_ns - w.enqueue_ns;
      queue_delay_hist_->Record(qdelay);
      // EWMA (alpha 0.2) of the admission-queue wait: the serving-load
      // signal behind RetryAfterPayload and GC pacing.  Single-writer per
      // sample is not guaranteed (any worker updates it), but a lost update
      // between concurrent dequeues only costs one sample of smoothing.
      const common::Nanos prev =
          queue_delay_ewma_ns_.load(std::memory_order_relaxed);
      queue_delay_ewma_ns_.store(prev - prev / 5 + qdelay / 5,
                                 std::memory_order_relaxed);
    }
    if (w.delay_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(w.delay_ns));
    }
    std::string bytes;
    if (w.expire_ns != 0 && common::CpuTimer::Now() > w.expire_ns) {
      // The caller's budget ran out while the request sat queued: answer
      // kTimeout without executing.  The response still flows through the
      // ordered release path — silently dropping the seq would wedge every
      // later response on the connection.
      expired_metric_->Add();
      expired_total_.fetch_add(1, std::memory_order_relaxed);
      bytes = EncodeErrorReply(w.header, ErrCode::kTimeout, {}, std::string());
    } else {
      bytes = Execute(w.header, w.payload, w.client_id, std::string());
    }
    busy_[index].store(false, std::memory_order_relaxed);
    {
      std::scoped_lock lock(comp_mu_);
      completions_.push_back(Completion{w.conn_id, w.seq, std::move(bytes)});
    }
    // Wake the loop to deliver; a full pipe is fine (the loop is awake).
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

bool TcpServer::ReleaseOrdered(Conn* conn, std::uint64_t seq,
                               std::string&& bytes) {
  conn->done.emplace(seq, std::move(bytes));
  while (!conn->done.empty() &&
         conn->done.begin()->first == conn->next_flush) {
    if (!AppendResponse(conn, std::move(conn->done.begin()->second))) {
      return false;
    }
    conn->done.erase(conn->done.begin());
    ++conn->next_flush;
  }
  return true;
}

void TcpServer::DeliverCompletions(
    const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns) {
  std::vector<Completion> batch;
  {
    std::scoped_lock lock(comp_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    const auto it = conns.find(c.conn_id);
    if (it == conns.end()) continue;  // connection dropped meanwhile
    Conn* conn = it->second.get();
    --conn->inflight;
    if (conn->dead) continue;
    if (!ReleaseOrdered(conn, c.seq, std::move(c.bytes))) conn->dead = true;
    if (!conn->dead && !FlushWrites(conn)) conn->dead = true;
  }
}

void TcpServer::SendNotifyFrame(Conn* conn, std::uint16_t opcode,
                                const std::string& payload) {
  int copies = 1;
  if (options_.fault != nullptr) {
    const FaultInjector::NotifyFate fate = options_.fault->OnNotifyFrame();
    if (fate.drop) {
      // The push is lost but its sequence number is consumed, so the client
      // sees a gap on the next frame and resynchronizes.
      ++conn->notify_seq;
      return;
    }
    if (fate.dup) copies = 2;  // same sequence number twice; client ignores
  }
  wire::FrameHeader header;
  header.type = wire::FrameType::kNotify;
  header.opcode = opcode;
  header.request_id = ++conn->notify_seq;
  // Notify frames bypass AppendResponse: the short-write fault models torn
  // *responses* and must not fire on the push path.  A duplicated push is
  // encoded twice (same sequence number; the client ignores the replay).
  for (int copy = 0; copy < copies; ++copy) {
    std::string bytes = GetBuffer();
    wire::EncodeFrameInto(header, payload, &bytes);
    conn->out_bytes += bytes.size();
    conn->outq.push_back(std::move(bytes));
  }
  common::MetricsRegistry::Default().GetCounter("notify.server.pushed").Add();
}

void TcpServer::DrainNotify(
    const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns) {
  std::vector<PendingNotify> batch;
  {
    std::scoped_lock lock(notify_mu_);
    if (pending_notify_.empty()) return;
    batch.swap(pending_notify_);
  }
  for (PendingNotify& p : batch) {
    if (p.client_id != 0) {
      std::uint64_t conn_id = 0;
      {
        std::scoped_lock lock(notify_mu_);
        const auto it = notify_sessions_.find(p.client_id);
        if (it == notify_sessions_.end()) continue;  // client disconnected
        conn_id = it->second;
      }
      const auto it = conns.find(conn_id);
      if (it == conns.end() || it->second->dead) continue;
      SendNotifyFrame(it->second.get(), p.opcode, p.payload);
      if (!FlushWrites(it->second.get())) it->second->dead = true;
    } else {
      for (const auto& [id, conn] : conns) {
        if (!conn->notify || conn->dead) continue;
        SendNotifyFrame(conn.get(), p.opcode, p.payload);
        if (!FlushWrites(conn.get())) conn->dead = true;
      }
    }
  }
}

void TcpServer::ForgetNotifySession(const Conn& conn) {
  if (!conn.notify) return;
  bool forgotten = false;
  {
    std::scoped_lock lock(notify_mu_);
    const auto it = notify_sessions_.find(conn.client_id);
    if (it != notify_sessions_.end() && it->second == conn.id) {
      notify_sessions_.erase(it);
      forgotten = true;
    }
  }
  // The client's push stream is gone: tell the owner now (lease watches and
  // undeliverable pushes die with it) instead of waiting for a failed push.
  if (forgotten && options_.on_notify_disconnect &&
      !stop_.load(std::memory_order_acquire)) {
    options_.on_notify_disconnect(conn.client_id);
  }
}

void TcpServer::SyncWriteInterest(Conn* conn) {
  const bool want = conn->out_bytes > 0;
  // Soft output cap: a reader this far behind loses EPOLLIN until its
  // backlog drains below the cap — the slow client stalls itself, not the
  // daemon's memory (docs/OVERLOAD.md).
  const bool stall = options_.max_conn_output_bytes > 0 &&
                     conn->out_bytes > options_.max_conn_output_bytes;
  if (want == conn->want_write && stall == conn->read_stalled) return;
  struct epoll_event ev{};
  ev.events = (stall ? 0u : EPOLLIN) | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    if (stall && !conn->read_stalled) {
      read_stall_metric_->Add();
      read_stall_total_.fetch_add(1, std::memory_order_relaxed);
    }
    conn->want_write = want;
    conn->read_stalled = stall;
  }
}

void TcpServer::CloseConn(
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>* conns,
    std::uint64_t id) {
  const auto it = conns->find(id);
  if (it == conns->end()) return;
  Conn* conn = it->second.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  ForgetNotifySession(*conn);
  const std::uint64_t client_id = conn->client_id;
  // Undelivered frames die with the connection; their buffers need not.
  for (std::string& frame : conn->outq) RecycleBuffer(std::move(frame));
  conns->erase(it);
  if (client_id != 0) {
    auto cit = client_conns_.find(client_id);
    if (cit != client_conns_.end() && --cit->second == 0) {
      client_conns_.erase(cit);
      if (options_.on_client_disconnect &&
          !stop_.load(std::memory_order_acquire)) {
        options_.on_client_disconnect(client_id);
      }
    }
  }
}

std::string TcpServer::GetBuffer() {
  if (buf_pool_.empty()) {
    bufpool_allocs_->Add();
    return std::string();
  }
  bufpool_reuses_->Add();
  std::string buf = std::move(buf_pool_.back());
  buf_pool_.pop_back();
  buf.clear();
  return buf;
}

void TcpServer::RecycleBuffer(std::string&& buf) {
  if (buf_pool_.size() >= kPoolMaxBuffers ||
      buf.capacity() > kPoolMaxBufferBytes) {
    return;
  }
  buf_pool_.push_back(std::move(buf));
}

void TcpServer::Loop() {
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1;
  char wake_drain[256];
  std::array<struct epoll_event, 128> events;
  std::vector<std::uint64_t> doomed;
  auto& reg = common::MetricsRegistry::Default();
  common::Counter& epoll_waits = reg.GetCounter("rpc.tcp_server.epoll.waits");
  common::Counter& epoll_events = reg.GetCounter("rpc.tcp_server.epoll.events");
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    epoll_waits.Add();
    epoll_events.Add(static_cast<std::uint64_t>(n));
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kWakeTag) {
        while (::read(wake_fds_[0], wake_drain, sizeof(wake_drain)) > 0) {
        }
      } else if (events[i].data.u64 == kListenTag) {
        accept_ready = true;
      }
    }
    if (options_.workers > 0) DeliverCompletions(conns);
    DrainNotify(conns);
    if (accept_ready) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd)) {
          ::close(fd);
          continue;
        }
        SetNoDelay(fd);
        auto conn = std::make_unique<Conn>(fd, next_conn_id++,
                                           options_.max_payload_bytes);
        struct epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
          ::close(fd);
          continue;
        }
        conns.emplace(conn->id, std::move(conn));
      }
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag || tag == kWakeTag) continue;
      const auto it = conns.find(tag);
      if (it == conns.end()) continue;  // already closed this round
      Conn* conn = it->second.get();
      if (conn->dead) continue;  // swept below
      const std::uint32_t revents = events[i].events;
      bool alive = true;
      if (revents & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        for (;;) {
          // Zero-copy ingest: recv straight into the reader's arena, so the
          // payload views DrainFrames dispatches are the kernel's bytes.
          std::size_t capacity = 0;
          char* dst = conn->reader.RecvInto(kMinRecvWindow, &capacity);
          const ssize_t r = ::recv(conn->fd, dst, capacity, 0);
          if (r > 0) {
            conn->reader.Commit(static_cast<std::size_t>(r));
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (r < 0 && errno == EINTR) continue;
          alive = false;  // orderly close or hard error
          break;
        }
        if (alive) alive = DrainFrames(conn);
      }
      if (alive && conn->out_bytes > 0) alive = FlushWrites(conn);
      if (!alive) conn->dead = true;
    }
    // End-of-round sweep: reap failed connections, then reconcile EPOLLOUT
    // interest on the survivors (completions and notify pushes above may
    // have queued output on connections with no event this round).
    doomed.clear();
    for (const auto& [id, conn] : conns) {
      if (conn->dead) doomed.push_back(id);
    }
    for (const std::uint64_t id : doomed) CloseConn(&conns, id);
    for (const auto& [id, conn] : conns) SyncWriteInterest(conn.get());
  }
  for (const auto& [id, conn] : conns) ::close(conn->fd);
}

// ---------------------------------------------------------------------------
// TcpChannel
// ---------------------------------------------------------------------------

TcpChannel::PipeConn::~PipeConn() { ::close(fd); }

TcpChannel::TcpChannel(TcpChannelOptions options)
    : options_(options),
      pipeline_depth_(&common::MetricsRegistry::Default().GetHistogram(
          "rpc.tcp.pipeline_depth", "requests")) {}

TcpChannel::~TcpChannel() { DisconnectAll(); }

void TcpChannel::Register(NodeId id, std::string host, std::uint16_t port) {
  auto ep = std::make_unique<Endpoint>();
  ep->host = std::move(host);
  ep->port = port;
  endpoints_[id] = std::move(ep);
}

bool TcpChannel::Register(NodeId id, std::string_view host_port) {
  std::string host;
  std::uint16_t port = 0;
  if (!ParseHostPort(host_port, &host, &port)) return false;
  Register(id, std::move(host), port);
  return true;
}

void TcpChannel::SetNextRequestIdForTest(NodeId server, std::uint64_t value) {
  const auto it = endpoints_.find(server);
  if (it != endpoints_.end()) {
    it->second->next_request_id.store(value, std::memory_order_relaxed);
  }
}

void TcpChannel::DisconnectAll() {
  for (auto& [id, ep] : endpoints_) {
    std::vector<std::shared_ptr<PipeConn>> dropped;
    {
      std::scoped_lock lock(ep->mu);
      dropped.swap(ep->conns);
    }
    // Idle connections are deregistered from the reactor and closed here;
    // connections with calls in flight are marked orphaned — the reactor
    // keeps serving their waiters and drops its reference once the last
    // response lands.
    for (const std::shared_ptr<PipeConn>& conn : dropped) {
      bool idle = false;
      {
        std::scoped_lock lock(conn->mu);
        if (conn->waiting.empty() &&
            conn->inflight.load(std::memory_order_acquire) == 0) {
          idle = true;
        } else {
          conn->orphaned = true;
        }
      }
      // Never while holding conn->mu: Remove waits out an in-flight reactor
      // callback, and that callback takes conn->mu.
      if (idle) reactor_.Remove(conn->fd);
    }
  }
}

int TcpChannel::Connect(const Endpoint& ep, common::Nanos deadline_abs,
                        bool* timed_out) {
  *timed_out = false;
  common::Nanos backoff = options_.connect_backoff_ns;
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    const common::Nanos now = common::CpuTimer::Now();
    if (now >= deadline_abs) {
      *timed_out = true;
      return -1;
    }
    const common::Nanos attempt_deadline =
        std::min(deadline_abs, now + options_.connect_timeout_ns);
    const int fd = ConnectOnce(ep.host, ep.port, attempt_deadline);
    if (fd >= 0) return fd;
    if (attempt + 1 < options_.connect_attempts) {
      // Full jitter (sleep uniform in [0, backoff]): after a daemon restart
      // every blocked client retries at once, and synchronized exponential
      // backoff would keep them colliding in lockstep.
      static std::atomic<std::uint64_t> jitter_stream{0};
      thread_local common::Rng jitter_rng(common::Mix64(
          0x6a177e5 + jitter_stream.fetch_add(1, std::memory_order_relaxed)));
      const common::Nanos jittered = static_cast<common::Nanos>(
          jitter_rng.Uniform(static_cast<std::uint64_t>(backoff) + 1));
      const common::Nanos sleep_ns =
          std::min(jittered, deadline_abs - common::CpuTimer::Now());
      if (sleep_ns > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
      }
      backoff *= 2;
    }
  }
  return -1;
}

std::shared_ptr<TcpChannel::PipeConn> TcpChannel::AcquireConn(
    Endpoint& ep, common::Nanos deadline_abs, bool* reused, ErrCode* err) {
  {
    std::scoped_lock lock(ep.mu);
    std::erase_if(ep.conns, [](const std::shared_ptr<PipeConn>& c) {
      return c->dead.load(std::memory_order_acquire);
    });
    std::shared_ptr<PipeConn> pick;
    std::uint32_t low = 0;
    for (const auto& c : ep.conns) {
      const std::uint32_t n = c->inflight.load(std::memory_order_relaxed);
      if (n >= options_.max_pipeline) continue;
      if (!pick || n < low) {
        pick = c;
        low = n;
      }
    }
    if (pick) {
      pick->inflight.fetch_add(1, std::memory_order_relaxed);
      *reused = true;
      return pick;
    }
  }
  bool timed_out = false;
  const int fd = Connect(ep, deadline_abs, &timed_out);
  if (fd < 0) {
    *err = timed_out ? ErrCode::kTimeout : ErrCode::kUnavailable;
    return nullptr;
  }
  auto conn = std::make_shared<PipeConn>(fd, options_.max_payload_bytes);
  if (options_.client_id != 0 || options_.features != 0) {
    // Fire-and-forget hello: identifies this mount to the server without
    // costing a round trip.  Request id 0 is never used by calls, so the
    // reply is read and discarded by whichever caller is the frame reader.
    // A v1 server just answers the unknown opcode with an error — same fate.
    wire::Hello hello;
    hello.features = options_.features;
    hello.client_id = options_.client_id;
    wire::FrameHeader header;
    header.type = wire::FrameType::kRequest;
    header.opcode = wire::kCtlHello;
    header.request_id = 0;
    header.trace_id = NextTraceId();
    // A send failure surfaces on the first real call; nothing to do here.
    (void)SendAll(fd, wire::EncodeFrame(header, wire::EncodeHello(hello)),
                  deadline_abs);
  }
  conn->inflight.store(1, std::memory_order_relaxed);
  *reused = false;
  {
    std::scoped_lock lock(ep.mu);
    ep.conns.push_back(conn);
  }
  // Hand the receive side to the reactor.  On registration failure the conn
  // is broken immediately; the caller's RegisterWaiter observes it and fails
  // the call with kUnavailable.
  if (!reactor_.Add(fd, [this, conn] { return OnReadable(conn); }).ok()) {
    std::scoped_lock lock(conn->mu);
    FailConnLocked(*conn, ErrCode::kUnavailable);
  }
  return conn;
}

bool TcpChannel::OnReadable(const std::shared_ptr<PipeConn>& conn) {
  // Reactor thread only — the FrameReader needs no lock, the waiter table
  // does.  One recv sweep drains however many pipelined responses arrived.
  char buf[kIoChunk];
  bool dead = false;
  ErrCode fail_code = ErrCode::kUnavailable;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;  // likely drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    dead = true;  // orderly close or hard error
    break;
  }
  std::size_t dispatched = 0;
  std::scoped_lock lock(conn->mu);
  while (auto frame = conn->reader.Next()) {
    if (frame->header.type == wire::FrameType::kNotify) {
      // Push frame on an RPC connection (pooled conns don't negotiate
      // notify, but tolerate it): not addressed to any waiter.
      continue;
    }
    if (frame->header.type != wire::FrameType::kResponse) {
      dead = true;
      fail_code = ErrCode::kCorruption;
      break;
    }
    const auto it = conn->waiting.find(frame->header.request_id);
    if (it == conn->waiting.end()) {
      if (frame->header.request_id == 0 &&
          frame->header.opcode == wire::kCtlHello &&
          frame->header.code == ErrCode::kOk) {
        // The fire-and-forget hello's reply: capture the feature bits the
        // server granted.  Calls issued before it lands simply go out as v1
        // frames — optimistic degrade, no round trip on the fast path.
        wire::HelloReply reply;
        if (wire::DecodeHelloReply(frame->payload, &reply).ok()) {
          conn->peer_features.store(reply.features, std::memory_order_release);
        }
        continue;
      }
      // A response to a call that already timed out: drop it.  Its id is
      // spendable again — the stream can hold no second response.
      conn->abandoned.erase(frame->header.request_id);
      continue;
    }
    Waiter* w = it->second;
    conn->waiting.erase(it);
    w->frame = std::move(*frame);
    w->done = true;
    w->cv.notify_one();
    ++dispatched;
  }
  if (dispatched > 0) reactor_frames_->Add(dispatched);
  if (!dead && !conn->reader.status().ok()) {
    dead = true;
    fail_code = ErrCode::kCorruption;
  }
  if (dead) {
    FailConnLocked(*conn, fail_code);
    return false;  // deregister; the reactor drops its reference
  }
  // An orphaned conn (DisconnectAll raced in-flight calls) lives only for
  // its remaining waiters; once they are answered, release the socket.
  return !(conn->orphaned && conn->waiting.empty());
}

void TcpChannel::FailConnLocked(PipeConn& conn, ErrCode code) {
  if (conn.broken == ErrCode::kOk) conn.broken = code;
  conn.dead.store(true, std::memory_order_release);
  for (auto& [rid, w] : conn.waiting) {
    w->done = true;
    w->fail = conn.broken;
    w->cv.notify_one();
  }
  conn.waiting.clear();
  conn.abandoned.clear();  // no more frames will arrive on this socket
}

std::uint64_t TcpChannel::NextRequestId(Endpoint& ep) {
  std::uint64_t rid = ep.next_request_id.fetch_add(1, std::memory_order_relaxed);
  // Id 0 belongs to the fire-and-forget hello; skip it on counter wrap.
  while (rid == 0) {
    rid = ep.next_request_id.fetch_add(1, std::memory_order_relaxed);
  }
  return rid;
}

TcpChannel::RegisterResult TcpChannel::RegisterWaiter(PipeConn& conn,
                                                      std::uint64_t request_id,
                                                      Waiter* w) {
  std::scoped_lock lock(conn.mu);
  if (conn.broken != ErrCode::kOk) return RegisterResult::kBroken;
  // After a counter wrap a freshly minted id can collide with one still in
  // flight — or one whose caller timed out but whose response has not yet
  // arrived.  Accepting it would deliver the old call's late response to
  // this new call; refuse so the caller mints another id.
  if (conn.abandoned.count(request_id) != 0) return RegisterResult::kIdInUse;
  const auto [it, inserted] = conn.waiting.emplace(request_id, w);
  if (!inserted) return RegisterResult::kIdInUse;
  pipeline_depth_->Record(static_cast<common::Nanos>(conn.waiting.size()));
  return RegisterResult::kOk;
}

void TcpChannel::AwaitWaiter(PipeConn& conn, std::uint64_t request_id,
                             Waiter& w, common::Nanos deadline_abs) {
  // Spin-then-park.  A blocking caller's response is typically one loopback
  // round trip away; parking on the cv immediately would put two sequential
  // futex wake-ups (epoll -> reactor -> caller) on every call's critical
  // path, which on a busy single-core host costs more than the RPC itself.
  // Yield-spin briefly — ceding the CPU to the reactor and the server — and
  // only fall back to the cv for responses that are genuinely slow.
  constexpr common::Nanos kSpinNs = 200'000;
  const common::Nanos spin_until =
      std::min(common::CpuTimer::Now() + kSpinNs, deadline_abs);
  for (;;) {
    {
      std::scoped_lock spin_lock(conn.mu);
      if (w.done) return;
      if (conn.broken != ErrCode::kOk) {
        w.done = true;
        w.fail = conn.broken;
        return;
      }
    }
    if (common::CpuTimer::Now() >= spin_until) break;
    std::this_thread::yield();
  }
  // The reactor thread completes the waiter (or fails the connection); this
  // thread only sleeps on its own cv until then.
  std::unique_lock lock(conn.mu);
  for (;;) {
    if (w.done) return;
    if (conn.broken != ErrCode::kOk) {
      w.done = true;
      w.fail = conn.broken;
      return;
    }
    const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
    if (remaining <= 0) {
      // Leave the request outstanding on the wire; the conn stays usable and
      // the reactor discards the eventual response.  Remember the id until
      // that response arrives so a post-wrap call can never mint it.
      if (conn.waiting.erase(request_id) > 0) conn.abandoned.insert(request_id);
      w.done = true;
      w.fail = ErrCode::kTimeout;
      return;
    }
    w.cv.wait_for(lock, std::chrono::nanoseconds(remaining));
  }
}

RpcResponse TcpChannel::DoCall(Endpoint& ep, std::uint16_t opcode,
                               std::string_view payload, const CallMeta& meta) {
  const common::RpcMetricsTable::PerOp& m = metrics_.For(opcode);
  m.calls->Add();
  m.bytes_sent->Add(payload.size());
  const common::CpuTimer timer;
  const auto fail = [&](ErrCode code) {
    m.errors->Add();
    m.latency->Record(timer.ElapsedNanos());
    return RpcResponse{code, {}};
  };
  if (payload.size() > options_.max_payload_bytes) return fail(ErrCode::kInvalid);
  if (options_.fault != nullptr) {
    const common::Nanos stall = options_.fault->OnClientSend();
    if (stall > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
  }
  const common::Nanos deadline_ns =
      meta.deadline_ns > 0 ? meta.deadline_ns : options_.call_deadline_ns;
  const common::Nanos deadline_abs = common::CpuTimer::Now() + deadline_ns;

  // Attempt 0 may share a pooled connection the server has silently closed;
  // when it fails before any response reached this call, attempt 1 retries
  // once on a fresh connection.  A fresh-connection failure is authoritative.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool reused = false;
    ErrCode conn_err = ErrCode::kUnavailable;
    const std::shared_ptr<PipeConn> conn =
        AcquireConn(ep, deadline_abs, &reused, &conn_err);
    if (!conn) return fail(conn_err);
    wire::FrameHeader header;
    header.type = wire::FrameType::kRequest;
    header.opcode = opcode;
    header.trace_id = meta.trace_id != 0 ? meta.trace_id : NextTraceId();
    Waiter waiter;
    RegisterResult reg = RegisterResult::kIdInUse;
    // A collision (counter wrap onto an in-flight or abandoned id) just
    // means "mint another"; only a broken connection is a real failure.
    for (int mint = 0; mint < 8 && reg == RegisterResult::kIdInUse; ++mint) {
      header.request_id = NextRequestId(ep);
      reg = RegisterWaiter(*conn, header.request_id, &waiter);
    }
    if (reg != RegisterResult::kOk) {
      conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      if (attempt == 0 && reused) continue;  // conn died under us
      return fail(ErrCode::kUnavailable);
    }
    if ((conn->peer_features.load(std::memory_order_acquire) &
         wire::kFeatureDeadline) != 0) {
      // Overload-control extension (docs/OVERLOAD.md): what is left of THIS
      // call's patience, re-stamped at send time, plus its priority class.
      const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
      if (remaining > 0) {
        header.deadline_budget_ns = static_cast<std::uint64_t>(remaining);
      }
      header.priority = static_cast<std::uint8_t>(meta.priority);
    }
    const std::string frame = wire::EncodeFrame(header, payload);
    Status st;
    {
      std::scoped_lock wlock(conn->write_mu);
      st = SendAll(conn->fd, frame, deadline_abs);
    }
    if (!st.ok()) {
      // A partially-sent frame desynchronizes every call on the stream.
      std::unique_lock lock(conn->mu);
      FailConnLocked(*conn, st.code());
      lock.unlock();
      conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      if (attempt == 0 && reused && st.code() == ErrCode::kUnavailable) continue;
      return fail(st.code());
    }
    AwaitWaiter(*conn, header.request_id, waiter, deadline_abs);
    conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    if (waiter.fail != ErrCode::kOk) {
      if (attempt == 0 && reused && waiter.fail == ErrCode::kUnavailable) {
        continue;
      }
      return fail(waiter.fail);
    }
    RpcResponse resp{waiter.frame.header.code, std::move(waiter.frame.payload)};
    if (!resp.ok()) m.errors->Add();
    m.bytes_received->Add(resp.payload.size());
    m.latency->Record(timer.ElapsedNanos());
    return resp;
  }
  return fail(ErrCode::kUnavailable);  // unreachable
}

std::vector<RpcResponse> TcpChannel::CallPipelined(
    NodeId server,
    const std::vector<std::pair<std::uint16_t, std::string>>& calls,
    const CallMeta& meta) {
  std::vector<RpcResponse> out(calls.size());
  for (RpcResponse& r : out) r.code = ErrCode::kUnavailable;
  if (calls.empty()) return out;
  const common::CpuTimer timer;
  for (const auto& [opcode, payload] : calls) {
    const common::RpcMetricsTable::PerOp& m = metrics_.For(opcode);
    m.calls->Add();
    m.bytes_sent->Add(payload.size());
  }
  const auto finish = [&] {
    const common::Nanos elapsed = timer.ElapsedNanos();
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const common::RpcMetricsTable::PerOp& m = metrics_.For(calls[i].first);
      if (out[i].code != ErrCode::kOk) m.errors->Add();
      m.bytes_received->Add(out[i].payload.size());
      m.latency->Record(elapsed);
    }
  };
  const auto it = endpoints_.find(server);
  if (it == endpoints_.end()) {
    finish();
    return out;
  }
  Endpoint& ep = *it->second;
  const common::Nanos deadline_ns =
      meta.deadline_ns > 0 ? meta.deadline_ns : options_.call_deadline_ns;
  const common::Nanos deadline_abs = common::CpuTimer::Now() + deadline_ns;
  bool reused = false;
  ErrCode conn_err = ErrCode::kUnavailable;
  const std::shared_ptr<PipeConn> conn =
      AcquireConn(ep, deadline_abs, &reused, &conn_err);
  if (!conn) {
    for (RpcResponse& r : out) r.code = conn_err;
    finish();
    return out;
  }
  // AcquireConn reserved one slot; reserve the rest of the burst.
  conn->inflight.fetch_add(static_cast<std::uint32_t>(calls.size()) - 1,
                           std::memory_order_relaxed);
  const std::uint64_t trace_id =
      meta.trace_id != 0 ? meta.trace_id : NextTraceId();
  const bool deadline_on_wire =
      (conn->peer_features.load(std::memory_order_acquire) &
       wire::kFeatureDeadline) != 0;
  std::vector<Waiter> waiters(calls.size());
  std::vector<std::uint64_t> rids(calls.size(), 0);
  std::vector<bool> registered(calls.size(), false);
  std::string burst;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (calls[i].second.size() > options_.max_payload_bytes) {
      waiters[i].done = true;
      waiters[i].fail = ErrCode::kInvalid;
      continue;
    }
    wire::FrameHeader header;
    header.type = wire::FrameType::kRequest;
    header.opcode = calls[i].first;
    header.trace_id = trace_id;
    if (deadline_on_wire) {
      const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
      if (remaining > 0) {
        header.deadline_budget_ns = static_cast<std::uint64_t>(remaining);
      }
      header.priority = static_cast<std::uint8_t>(meta.priority);
    }
    RegisterResult reg = RegisterResult::kIdInUse;
    for (int mint = 0; mint < 8 && reg == RegisterResult::kIdInUse; ++mint) {
      header.request_id = NextRequestId(ep);
      reg = RegisterWaiter(*conn, header.request_id, &waiters[i]);
    }
    if (reg != RegisterResult::kOk) {
      waiters[i].done = true;
      waiters[i].fail = ErrCode::kUnavailable;
      continue;
    }
    rids[i] = header.request_id;
    registered[i] = true;
    burst += wire::EncodeFrame(header, calls[i].second);
  }
  if (!burst.empty()) {
    Status st;
    {
      std::scoped_lock wlock(conn->write_mu);
      st = SendAll(conn->fd, burst, deadline_abs);
    }
    if (!st.ok()) {
      std::scoped_lock lock(conn->mu);
      FailConnLocked(*conn, st.code());
    }
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (registered[i]) AwaitWaiter(*conn, rids[i], waiters[i], deadline_abs);
  }
  conn->inflight.fetch_sub(static_cast<std::uint32_t>(calls.size()),
                           std::memory_order_relaxed);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (waiters[i].fail != ErrCode::kOk) {
      out[i].code = waiters[i].fail;
    } else {
      out[i].code = waiters[i].frame.header.code;
      out[i].payload = std::move(waiters[i].frame.payload);
    }
  }
  finish();
  return out;
}

void TcpChannel::CallAsync(NodeId server, std::uint16_t opcode,
                           std::string payload,
                           std::function<void(RpcResponse)> done) {
  CallAsyncMeta(server, opcode, std::move(payload), CallMeta{}, std::move(done));
}

void TcpChannel::CallAsyncMeta(NodeId server, std::uint16_t opcode,
                               std::string payload, const CallMeta& meta,
                               std::function<void(RpcResponse)> done) {
  const auto it = endpoints_.find(server);
  if (it == endpoints_.end()) {
    const common::RpcMetricsTable::PerOp& m = metrics_.For(opcode);
    m.calls->Add();
    m.errors->Add();
    done(RpcResponse{ErrCode::kUnavailable, {}});
    return;
  }
  done(DoCall(*it->second, opcode, payload, meta));
}

}  // namespace loco::net
