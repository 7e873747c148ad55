// TcpServer + TcpChannel over real loopback sockets: roundtrips, connection
// pooling, deadlines, and every failure mode the client must surface cleanly
// (kUnavailable / kTimeout / kCorruption — never a hang).
#include "net/tcp.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/wire.h"

namespace loco::net {
namespace {

// Echoes the payload back; opcode 200 sleeps first (deadline tests); the
// request's trace id is observable through `last_trace_id` (set server-side
// only via the frame header — proves the id crossed the wire).
class EchoHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    if (opcode == 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (opcode == 201) return RpcResponse{ErrCode::kNotFound, {}};
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }
};

RpcResponse BlockingCall(Channel& ch, NodeId node, std::uint16_t opcode,
                         std::string payload, CallMeta meta = {}) {
  RpcResponse out;
  ch.CallAsyncMeta(node, opcode, std::move(payload), meta,
                   [&out](RpcResponse r) { out = std::move(r); });
  return out;  // TcpChannel completes inline
}

TEST(ParseHostPortTest, AcceptsAndRejects) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(ParseHostPort("127.0.0.1:9000", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  EXPECT_TRUE(ParseHostPort("localhost:1", &host, &port));
  EXPECT_FALSE(ParseHostPort("no-port", &host, &port));
  EXPECT_FALSE(ParseHostPort(":9000", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:99999", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:12x", &host, &port));
}

TEST(TcpTest, RequestResponseRoundtrip) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const RpcResponse r = BlockingCall(channel, 1, 7, "ping");
  EXPECT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, "ping");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(TcpTest, ErrorCodeCrossesTheWire) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const RpcResponse r = BlockingCall(channel, 1, 201, "");
  EXPECT_EQ(r.code, ErrCode::kNotFound);
}

TEST(TcpTest, ManySequentialCallsReuseTheConnection) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  for (int i = 0; i < 50; ++i) {
    const std::string payload = "call-" + std::to_string(i);
    const RpcResponse r = BlockingCall(channel, 1, 7, payload);
    ASSERT_EQ(r.code, ErrCode::kOk);
    ASSERT_EQ(r.payload, payload);
  }
  EXPECT_EQ(server.requests_served(), 50u);
}

TEST(TcpTest, ConcurrentCallersGetTheirOwnSockets) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&channel, &failures, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        const RpcResponse r = BlockingCall(channel, 1, 7, payload);
        if (r.code != ErrCode::kOk || r.payload != payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 100u);
}

TEST(TcpTest, UnregisteredNodeIsUnavailable) {
  TcpChannel channel;
  const RpcResponse r = BlockingCall(channel, 42, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
}

TEST(TcpTest, DeadServerFailsFastWithUnavailable) {
  // Bind-then-close to obtain a port nobody listens on.
  EchoHandler handler;
  std::uint16_t dead_port = 0;
  {
    TcpServer server(&handler);
    ASSERT_TRUE(server.Start().ok());
    dead_port = server.port();
  }

  TcpChannelOptions options;
  options.connect_attempts = 2;
  options.connect_backoff_ns = common::kMilli;
  TcpChannel channel(options);
  channel.Register(1, "127.0.0.1", dead_port);

  const common::CpuTimer timer;
  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
  // Refused connects must fail fast (ECONNREFUSED), not wait out a deadline.
  EXPECT_LT(timer.ElapsedNanos(), 2 * common::kSecond);
}

TEST(TcpTest, DeadlineExceededIsTimeout) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  CallMeta meta;
  meta.deadline_ns = 20 * common::kMilli;  // handler sleeps 200 ms
  const RpcResponse r = BlockingCall(channel, 1, 200, "slow", meta);
  EXPECT_EQ(r.code, ErrCode::kTimeout);
}

TEST(TcpTest, StoppedServerYieldsUnavailable) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options;
  options.connect_attempts = 1;
  TcpChannel channel(options);
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  server.Stop();
  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
}

TEST(TcpTest, PooledConnectionSurvivesServerRestartViaRetry) {
  // A pooled socket the (old) server closed must be retried on a fresh
  // connection transparently, not surfaced as an error.
  EchoHandler handler;
  auto server = std::make_unique<TcpServer>(&handler);
  ASSERT_TRUE(server->Start().ok());
  const std::uint16_t port = server->port();

  TcpChannel channel;
  channel.Register(1, "127.0.0.1", port);
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  server->Stop();
  TcpServer::Options opts;
  opts.port = port;
  auto restarted = std::make_unique<TcpServer>(&handler, opts);
  ASSERT_TRUE(restarted->Start().ok());

  const RpcResponse r = BlockingCall(channel, 1, 7, "after-restart");
  EXPECT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, "after-restart");
}

// A raw TCP server that writes `reply` to every connection, then closes it.
class RawResponder {
 public:
  explicit RawResponder(std::string reply) : reply_(std::move(reply)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 8);
    thread_ = std::thread([this] {
      for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed
        char buf[4096];
        // Read the request (best-effort) so the client's send completes.
        (void)::recv(conn, buf, sizeof(buf), 0);
        if (!reply_.empty()) {
          (void)::send(conn, reply_.data(), reply_.size(), MSG_NOSIGNAL);
        }
        ::close(conn);
      }
    });
  }
  ~RawResponder() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string reply_;
  std::thread thread_;
};

TEST(TcpTest, GarbageResponseIsCorruption) {
  RawResponder responder(std::string(64, 'Z'));  // wrong magic
  TcpChannelOptions options;
  options.connect_attempts = 1;
  // No hello: the responder reads exactly one blob and answers it, and the
  // fire-and-forget hello would race the request for that single read (the
  // responder could reply-and-close before the request send completes,
  // surfacing kUnavailable instead of the decode verdict under test).
  options.features = 0;
  TcpChannel channel(options);
  channel.Register(1, "127.0.0.1", responder.port());

  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kCorruption);
}

TEST(TcpTest, MidStreamDisconnectIsUnavailable) {
  // Server sends half a valid response frame, then closes.
  wire::FrameHeader h;
  h.type = wire::FrameType::kResponse;
  h.opcode = 7;
  h.request_id = 1;
  const std::string full = wire::EncodeFrame(h, "truncated-payload");
  RawResponder responder(full.substr(0, full.size() / 2));

  TcpChannelOptions options;
  options.connect_attempts = 1;
  TcpChannel channel(options);
  channel.Register(1, "127.0.0.1", responder.port());

  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
}

TEST(TcpTest, ServerDropsCorruptClientStream) {
  // A client that sends garbage gets disconnected; the server keeps serving
  // well-formed clients afterwards.
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string garbage(64, 'G');
    ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
    // The server closes the connection; recv sees EOF rather than hanging.
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
    ::close(fd);
  }

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  EXPECT_EQ(BlockingCall(channel, 1, 7, "still-alive").code, ErrCode::kOk);
}

TEST(TcpTest, LargePayloadEchoesByteExact) {
  // A payload spanning many 64 KiB receive-arena chunks (and many recv()
  // calls) must reassemble byte-exactly in the server's pinned reader.
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  std::string big(512 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 23));
  }
  const RpcResponse r = BlockingCall(channel, 1, 7, big);
  ASSERT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, big);
}

TEST(TcpTest, OversizedRequestPayloadRejectedClientSide) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannelOptions options;
  options.max_payload_bytes = 1024;
  TcpChannel channel(options);
  channel.Register(1, server.host(), server.port());

  const RpcResponse r = BlockingCall(channel, 1, 7, std::string(4096, 'x'));
  EXPECT_EQ(r.code, ErrCode::kInvalid);
}

// A loopback connect() to a dead port inside the ephemeral range can hit
// TCP simultaneous open and connect the socket to itself; every request
// would then echo back as a valid frame of type kRequest with a matching
// id.  The channel must detect and reject such sockets (this reproduced as
// a rare kCorruption from calls to a killed daemon).  Forcing the source
// port with bind() makes the self-connect deterministic.
TEST(TcpTest, SelfConnectedSocketIsDetected) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len),
            0);
  // Connect to our own bound address: no listener, yet the connect succeeds
  // by self-connecting (the scenario the channel must reject).
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_TRUE(IsSelfConnected(fd));
  ::close(fd);
}

TEST(TcpTest, NormalConnectionIsNotSelfConnected) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_FALSE(IsSelfConnected(fd));
  ::close(fd);
}

TEST(TcpTest, RpcMetricsRecorded) {
  auto& registry = common::MetricsRegistry::Default();
  const std::uint64_t client_before = registry.CounterValue("rpc.tcp.DmsMkdir.calls");
  const std::uint64_t server_before =
      registry.CounterValue("rpc.tcp_server.DmsMkdir.calls");

  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, /*DmsMkdir*/ 1, "m").code, ErrCode::kOk);

  EXPECT_EQ(registry.CounterValue("rpc.tcp.DmsMkdir.calls"), client_before + 1);
  EXPECT_EQ(registry.CounterValue("rpc.tcp_server.DmsMkdir.calls"),
            server_before + 1);
}

// ---------------------------------------------------------------------------
// Worker-pool dispatch + channel pipelining.
// ---------------------------------------------------------------------------

// Records the order handlers *finish* in (proves out-of-order execution on
// the pool) while staying thread-safe.  Opcode 50 sleeps 80 ms; opcode 51
// returns immediately.
class RecordingHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    if (opcode == 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    {
      std::scoped_lock lock(mu_);
      finished_.emplace_back(payload);
    }
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }

  std::vector<std::string> finished() const {
    std::scoped_lock lock(mu_);
    return finished_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> finished_;
};

TEST(TcpWorkerPoolTest, ConcurrentClientStormAllCallsSucceed) {
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 4;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.workers(), 4);

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&channel, &failures, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        const RpcResponse r = BlockingCall(channel, 1, 7, payload);
        if (r.code != ErrCode::kOk || r.payload != payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 200u);
}

TEST(TcpWorkerPoolTest, PipelinedBurstExecutesOutOfOrderYetCorrelates) {
  RecordingHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  // The slow call is issued first; with two workers the fast one finishes
  // while it sleeps, yet each response must land on its own request id.
  const std::vector<std::pair<std::uint16_t, std::string>> calls = {
      {50, "slow"}, {51, "fast"}};
  const std::vector<RpcResponse> rs = channel.CallPipelined(1, calls);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kOk);
  EXPECT_EQ(rs[0].payload, "slow");
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].payload, "fast");

  const std::vector<std::string> order = handler.finished();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "fast") << "fast call should overtake the slow one";
  EXPECT_EQ(order[1], "slow");
}

TEST(TcpWorkerPoolTest, PipelinedBurstOnInlineServerStillCorrelates) {
  EchoHandler handler;
  TcpServer server(&handler);  // workers == 0: responses arrive in order
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  std::vector<std::pair<std::uint16_t, std::string>> calls;
  for (int i = 0; i < 16; ++i) calls.emplace_back(7, "p" + std::to_string(i));
  const std::vector<RpcResponse> rs = channel.CallPipelined(1, calls);
  ASSERT_EQ(rs.size(), calls.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].code, ErrCode::kOk);
    EXPECT_EQ(rs[i].payload, calls[i].second);
  }
  EXPECT_EQ(server.requests_served(), calls.size());
}

TEST(TcpWorkerPoolTest, TimeoutThenLateResponseIsDiscardedNotCorruption) {
  EchoHandler handler;  // opcode 200 sleeps 200 ms
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  CallMeta meta;
  meta.deadline_ns = 20 * common::kMilli;
  EXPECT_EQ(BlockingCall(channel, 1, 200, "slow", meta).code, ErrCode::kTimeout);

  // The timed-out request's response arrives later on the pooled connection;
  // the channel must discard it by request id, not fail the next call.
  for (int i = 0; i < 10; ++i) {
    const std::string payload = "after-" + std::to_string(i);
    const RpcResponse r = BlockingCall(channel, 1, 7, payload);
    ASSERT_EQ(r.code, ErrCode::kOk) << "call " << i;
    ASSERT_EQ(r.payload, payload);
  }
}

TEST(TcpWorkerPoolTest, WrappedRequestIdNeverMatchesAnAbandonedCall) {
  // Regression for the id-reuse window: a call that times out leaves its
  // request outstanding on the wire.  If the per-endpoint id counter then
  // wraps onto that abandoned id, the old call's late response used to be
  // delivered verbatim to the *new* call.  The channel must re-mint instead.
  EchoHandler handler;  // opcode 200 sleeps 200 ms before echoing
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  channel.SetNextRequestIdForTest(1, 1000);
  CallMeta meta;
  meta.deadline_ns = 20 * common::kMilli;
  ASSERT_EQ(BlockingCall(channel, 1, 200, "stale-payload", meta).code,
            ErrCode::kTimeout);
  // Simulate the 2^64 wrap landing exactly on the abandoned id while the
  // timed-out request's response is still in flight.
  channel.SetNextRequestIdForTest(1, 1000);
  const RpcResponse r = BlockingCall(channel, 1, 7, "fresh-payload");
  EXPECT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, "fresh-payload") << "late response crossed calls";
}

TEST(TcpWorkerPoolTest, WrappedRequestIdNeverCollidesWithAnInflightCall) {
  // Same wrap, other window: the colliding id belongs to a call still
  // *waiting* (not timed out).  Both calls must get their own responses.
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  channel.SetNextRequestIdForTest(1, 2000);
  RpcResponse slow_response;
  std::thread slow([&] {
    slow_response = BlockingCall(channel, 1, 200, "slow-own-payload");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // slow in flight
  channel.SetNextRequestIdForTest(1, 2000);  // wrap onto the in-flight id
  const RpcResponse quick = BlockingCall(channel, 1, 7, "quick-own-payload");
  slow.join();
  EXPECT_EQ(quick.code, ErrCode::kOk);
  EXPECT_EQ(quick.payload, "quick-own-payload");
  EXPECT_EQ(slow_response.code, ErrCode::kOk);
  EXPECT_EQ(slow_response.payload, "slow-own-payload");
}

TEST(TcpWorkerPoolTest, ExtraServiceTimeOverlapsAcrossWorkers) {
  // Modeled device time (extra_service_ns) is charged by sleeping on the
  // worker, so two concurrent calls overlap their 60 ms charges.
  class DeviceHandler final : public RpcHandler {
   public:
    RpcResponse Handle(std::uint16_t, std::string_view payload) override {
      RpcResponse r{ErrCode::kOk, std::string(payload)};
      r.extra_service_ns = 60 * common::kMilli;
      return r;
    }
  };
  DeviceHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const auto start = std::chrono::steady_clock::now();
  const std::vector<RpcResponse> rs =
      channel.CallPipelined(1, {{7, "a"}, {7, "b"}});
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_GE(elapsed.count(), 55) << "device time must be charged";
  EXPECT_LT(elapsed.count(), 115) << "charges should overlap, not serialize";
}

TEST(TcpWorkerPoolTest, StopWhileClientsConnectedShutsDownCleanly) {
  // Several clients hold live pooled connections to a worker-pool server:
  // Stop() must not hang on them, and every client then fails cleanly.
  EchoHandler handler;
  TcpServer::Options server_options;
  server_options.workers = 2;
  TcpServer server(&handler, server_options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options;
  options.connect_attempts = 1;
  std::vector<std::unique_ptr<TcpChannel>> channels;
  for (int i = 0; i < 3; ++i) {
    channels.push_back(std::make_unique<TcpChannel>(options));
    channels.back()->Register(1, server.host(), server.port());
    ASSERT_EQ(BlockingCall(*channels.back(), 1, 7, "warm").code,
              ErrCode::kOk);
  }

  server.Stop();
  for (auto& channel : channels) {
    EXPECT_EQ(BlockingCall(*channel, 1, 7, "x").code, ErrCode::kUnavailable);
  }
}

TEST(TcpWorkerPoolTest, WorkerGaugesLiveAndRetired) {
  auto& registry = common::MetricsRegistry::Default();
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 3;
  {
    TcpServer server(&handler, options);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(registry.GaugeValue("rpc.tcp_server.workers"), 3.0);
    EXPECT_TRUE(registry.HasGauge("rpc.tcp_server.queue_depth"));
    EXPECT_TRUE(registry.HasGauge("rpc.tcp_server.worker0.busy"));
    EXPECT_TRUE(registry.HasGauge("rpc.tcp_server.worker2.busy"));
    server.Stop();
  }
  // After Stop the gauges retire their final value into the exposition, so
  // a --metrics-out dump records how many workers the server ran with.
  EXPECT_EQ(registry.RetiredGaugeValue("rpc.tcp_server.workers"), 3.0);
}

}  // namespace
}  // namespace loco::net
