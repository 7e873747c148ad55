// Shared scaffolding for the standalone metadata daemons (locofs_dmsd,
// locofs_fmsd, locofs_osd).  Each daemon builds one RpcHandler, then hands it
// to RunDaemon, which binds a net::TcpServer, prints the bound address on
// stdout (tests and scripts parse this line to learn an ephemeral port),
// and blocks until SIGINT/SIGTERM.  On shutdown the final metrics snapshot
// is optionally written to --metrics-out; it includes the retired
// rpc.tcp_server.* gauges, so the worker count the daemon ran with is
// recorded in the dump.
#pragma once

#include <sys/stat.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "core/gc.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "net/fault.h"
#include "net/tcp.h"

namespace loco::daemons {

// `--flag value` and `--flag=value` forms; advances *i past a consumed
// separate-argument value.
inline bool FlagValue(int argc, char** argv, int* i, const char* flag,
                      std::string* out) {
  const std::string_view arg = argv[*i];
  const std::size_t flag_len = std::strlen(flag);
  if (arg == flag) {
    if (*i + 1 >= argc) return false;
    *out = argv[++*i];
    return true;
  }
  if (arg.size() > flag_len + 1 && arg.substr(0, flag_len) == flag &&
      arg[flag_len] == '=') {
    *out = std::string(arg.substr(flag_len + 1));
    return true;
  }
  return false;
}

namespace internal {
inline volatile std::sig_atomic_t g_stop = 0;
inline void OnSignal(int) { g_stop = 1; }
}  // namespace internal

// Parse a --workers value into a dispatch-pool size.  An empty string (flag
// not given) selects hardware_concurrency; "0" serves inline on the event
// loop (the pre-pool single-threaded mode).
inline bool ParseWorkers(const char* name, const std::string& str, int* out) {
  if (str.empty()) {
    const unsigned hw = std::thread::hardware_concurrency();
    *out = hw != 0 ? static_cast<int>(hw) : 1;
    return true;
  }
  int workers = -1;
  const char* begin = str.data();
  const char* end = begin + str.size();
  if (auto [p, ec] = std::from_chars(begin, end, workers);
      ec != std::errc{} || p != end || workers < 0) {
    std::fprintf(stderr, "%s: bad --workers '%s' (want an integer >= 0)\n",
                 name, str.c_str());
    return false;
  }
  *out = workers;
  return true;
}

// Parse a --fault-spec value into a process fault injector.  An empty spec
// (flag not given) leaves *out null; a malformed spec is reported and
// rejected.
inline bool ParseFaultSpec(const char* name, const std::string& spec,
                           std::unique_ptr<net::FaultInjector>* out) {
  if (spec.empty()) return true;
  auto parsed = net::FaultSpec::Parse(spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: bad --fault-spec '%s': %s\n", name, spec.c_str(),
                 parsed.status().message().c_str());
    return false;
  }
  *out = std::make_unique<net::FaultInjector>(*parsed);
  return true;
}

// Server incarnation number: read `<store_dir>/epoch`, bump it, persist it.
// Hello replies carry the epoch, so clients can tell a daemon restart from a
// plain reconnect (NotifyListener resyncs on an epoch change).  With no
// --store-dir the wall clock stands in — still strictly increasing across
// restarts, just not dense.
inline std::uint64_t NextEpoch(const std::string& store_dir) {
  if (store_dir.empty()) return common::WallClockNs();
  ::mkdir(store_dir.c_str(), 0755);  // may already exist
  const std::string path = store_dir + "/epoch";
  std::uint64_t epoch = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[32] = {};
    if (std::fgets(buf, sizeof(buf), f) != nullptr) {
      epoch = std::strtoull(buf, nullptr, 10);
    }
    std::fclose(f);
  }
  ++epoch;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(epoch));
    std::fclose(f);
  }
  return epoch;
}

// Best-effort restart gossip: tell the DMS at `announce_spec` that server
// `node` came up with `epoch`.  The DMS broadcasts it down every notify
// stream so clients reset this node's circuit breaker immediately instead of
// waiting out the open window.  Failure is non-fatal (the breaker half-open
// probe remains the fallback).
inline void AnnounceToDms(const char* name, const std::string& announce_spec,
                          std::uint32_t node, std::uint64_t epoch) {
  std::string host;
  std::uint16_t port = 0;
  if (!net::ParseHostPort(announce_spec, &host, &port)) {
    std::fprintf(stderr, "%s: bad --announce spec '%s' (want host:port)\n",
                 name, announce_spec.c_str());
    return;
  }
  net::TcpChannelOptions channel_options;
  channel_options.connect_attempts = 1;
  channel_options.call_deadline_ns = 2 * common::kSecond;
  net::TcpChannel channel(channel_options);
  channel.Register(0, host, port);
  net::RpcResponse resp;
  channel.CallAsync(0, core::proto::kDmsAnnounce, fs::Pack(node, epoch),
                    [&](net::RpcResponse r) { resp = std::move(r); });
  if (resp.code != ErrCode::kOk) {
    std::fprintf(stderr, "%s: announce to %s failed (%d)\n", name,
                 announce_spec.c_str(), static_cast<int>(resp.code));
  }
}

// Parse the shared background-GC flags (--gc-ops, --gc-batch) into GcManager
// options.  Empty strings (flags not given) keep the defaults; malformed
// values are reported and rejected.
inline bool ParseGcFlags(const char* name, const std::string& ops_str,
                         const std::string& batch_str,
                         core::GcManager::Options* out) {
  if (!ops_str.empty()) {
    char* end = nullptr;
    const double ops = std::strtod(ops_str.c_str(), &end);
    if (end == ops_str.c_str() || *end != '\0' || !(ops > 0)) {
      std::fprintf(stderr, "%s: bad --gc-ops '%s' (want a rate > 0)\n", name,
                   ops_str.c_str());
      return false;
    }
    out->ops_per_sec = ops;
  }
  if (!batch_str.empty()) {
    unsigned batch = 0;
    const char* begin = batch_str.data();
    const char* end = begin + batch_str.size();
    if (auto [p, ec] = std::from_chars(begin, end, batch);
        ec != std::errc{} || p != end || batch == 0) {
      std::fprintf(stderr, "%s: bad --gc-batch '%s' (want an integer > 0)\n",
                   name, batch_str.c_str());
      return false;
    }
    out->batch_ops = batch;
  }
  return true;
}

// Blocking cross-server liveness probe for the GC detectors: asks every
// endpoint whether each uuid is still referenced (kDmsCheckUuids /
// kFmsCheckUuids) and ORs the replies — a uuid is alive if ANY peer claims
// it.  Any transport or shape error fails the whole probe, which makes the
// calling detector skip its cycle ("unreachable" must never read as "dead").
// Owns its TcpChannel, so keep the prober alive as long as the GcManager
// that captures it.
class GcUuidProber {
 public:
  GcUuidProber(std::uint16_t opcode, std::vector<std::string> endpoints)
      : opcode_(opcode) {
    net::TcpChannelOptions channel_options;
    channel_options.connect_attempts = 1;
    channel_options.call_deadline_ns = 5 * common::kSecond;
    channel_ = std::make_unique<net::TcpChannel>(channel_options);
    for (const std::string& spec : endpoints) {
      std::string host;
      std::uint16_t port = 0;
      if (!net::ParseHostPort(spec, &host, &port)) {
        bad_spec_ = spec;
        continue;
      }
      channel_->Register(static_cast<net::NodeId>(nodes_.size()), host, port);
      nodes_.push_back(static_cast<net::NodeId>(nodes_.size()));
    }
  }

  const std::string& bad_spec() const noexcept { return bad_spec_; }
  bool empty() const noexcept { return nodes_.empty(); }

  Result<std::vector<std::uint8_t>> operator()(
      const std::vector<fs::Uuid>& uuids) {
    std::vector<std::string> entries;
    entries.reserve(uuids.size());
    for (const fs::Uuid u : uuids) entries.push_back(fs::Pack(u));
    const std::string request = fs::Pack(entries);
    std::vector<std::uint8_t> alive(uuids.size(), 0);
    // Housekeeping traffic: tagged background so a saturated peer sheds the
    // probe before any foreground request (the detector just skips a cycle).
    net::CallMeta meta;
    meta.priority = net::Priority::kBackground;
    for (const net::NodeId node : nodes_) {
      std::promise<net::RpcResponse> done;
      channel_->CallAsyncMeta(node, opcode_, request, meta,
                              [&done](net::RpcResponse r) {
                                done.set_value(std::move(r));
                              });
      const net::RpcResponse resp = done.get_future().get();
      if (resp.code != ErrCode::kOk) {
        return Status{resp.code, "uuid probe rpc failed"};
      }
      if (resp.payload.size() != uuids.size()) {
        return Status{ErrCode::kCorruption, "uuid probe bitmap size mismatch"};
      }
      for (std::size_t i = 0; i < uuids.size(); ++i) {
        if (resp.payload[i] != '\0') alive[i] = 1;
      }
    }
    return alive;
  }

 private:
  std::uint16_t opcode_;
  std::unique_ptr<net::TcpChannel> channel_;
  std::vector<net::NodeId> nodes_;
  std::string bad_spec_;
};

// Split a comma-separated endpoint list ("h1:p1,h2:p2").
inline std::vector<std::string> SplitEndpoints(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Serve `handler` on `listen_spec` ("host:port", port 0 = ephemeral) until
// SIGINT/SIGTERM, with caller-prepared server options (worker pool size,
// fault injector, dedup window).  `on_serving`, when set, runs once Start()
// has succeeded and before the address banner is printed (daemons hook the
// server into their service — SetNotifier — or announce themselves).
// `on_stopping`, when set, runs after the signal arrives and BEFORE
// server.Stop(): anything that samples the server from another thread (the
// GC load signal) must be stopped here, while the reference is still alive.
// Returns the process exit code.
inline int RunDaemon(const char* name, net::RpcHandler* handler,
                     const std::string& listen_spec,
                     const std::string& metrics_out, int workers,
                     net::TcpServer::Options options,
                     const std::function<void(net::TcpServer&)>& on_serving =
                         {},
                     const std::function<void()>& on_stopping = {}) {
  options.workers = workers;
  if (!listen_spec.empty() &&
      !net::ParseHostPort(listen_spec, &options.host, &options.port)) {
    std::fprintf(stderr, "%s: bad --listen spec '%s' (want host:port)\n", name,
                 listen_spec.c_str());
    return 2;
  }

  // Install handlers before announcing the address: a supervisor may signal
  // us the instant it has parsed the "listening" line.
  std::signal(SIGINT, internal::OnSignal);
  std::signal(SIGTERM, internal::OnSignal);

  net::TcpServer server(handler, options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s: failed to listen on %s:%u\n", name,
                 options.host.c_str(), unsigned(options.port));
    return 1;
  }
  if (on_serving) on_serving(server);
  // Harnesses locate the port via the LAST colon on this line, so nothing
  // after it may contain one.
  std::printf("%s: listening on %s:%u (%d workers)\n", name,
              server.host().c_str(), unsigned(server.port()),
              server.workers());
  std::fflush(stdout);
  while (!internal::g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (on_stopping) on_stopping();
  server.Stop();

  if (!metrics_out.empty()) {
    if (std::FILE* f = std::fopen(metrics_out.c_str(), "w")) {
      const std::string json = common::MetricsRegistry::Default().ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "%s: cannot write metrics to %s\n", name,
                   metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

// Back-compat overload with default server options.
inline int RunDaemon(const char* name, net::RpcHandler* handler,
                     const std::string& listen_spec,
                     const std::string& metrics_out, int workers) {
  return RunDaemon(name, handler, listen_spec, metrics_out, workers,
                   net::TcpServer::Options{});
}

}  // namespace loco::daemons
