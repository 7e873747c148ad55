// Overload control under 2x offered load (docs/OVERLOAD.md).
//
// Workload: stat calls against one FileMetadataServer behind a real
// loopback net::TcpServer whose handler charges a fixed per-op service
// cost (--service-us, default 50 us busy-spin on the worker), so capacity
// is known by construction: workers / service_us ops/s.  Three phases:
//
//   peak      closed loop with total outstanding far below the admission
//             queue: no shedding, goodput == capacity.  This is the
//             denominator for the degradation ratio.
//   burst     every thread fires one synchronized pipelined volley whose
//             deadline budget is far below the full-queue drain time: the
//             queue fills, and work dequeued past its deadline is dropped
//             unexecuted (rpc.tcp_server.expired_dropped).
//   overload  sustained pipelined volleys with aggregate outstanding of
//             several times max_queue: offered load holds at >= 2x
//             capacity, the bounded queue sheds the excess with
//             kOverloaded + retry-after, and goodput must stay >= 70% of
//             peak (graceful degradation, not collapse).  A probe thread
//             issues paced single calls for user-visible p50/p99, a
//             background thread shows bg traffic shedding ahead of fg,
//             and a monitor polls kCtlLoadStatus (control priority rides
//             through the saturation it measures) for queue bounds.
//
// Acceptance gates (skipped with --connect, where service time is not
// controlled): goodput retention >= 0.70 at offered >= 2x peak, server
// expired_dropped > 0, and peak queue depth <= max_queue.
//
// Output: tables on stdout and a JSON record (--out, default
// BENCH_overload.json).  --short shrinks every phase for CI smoke runs;
// --connect host:port drives a live daemon instead of the in-proc server
// (tier1.sh overload leg), reporting without gating.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/fms.h"
#include "core/proto.h"
#include "fs/types.h"
#include "fs/wire.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace loco::bench {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "fig_overload: %s failed\n", what);
  std::exit(1);
}

// Charges a fixed busy-spin on the worker thread per executed request, so
// the server's capacity is exactly workers / service_ns.  Spinning (not
// sleeping) keeps the cost on the worker like real CPU-bound metadata
// service time would be.
class ServiceCostHandler final : public net::RpcHandler {
 public:
  ServiceCostHandler(net::RpcHandler* inner, common::Nanos service_ns)
      : inner_(inner), service_ns_(service_ns) {}

  net::RpcResponse Handle(std::uint16_t opcode,
                          std::string_view payload) override {
    return HandleCtx(opcode, payload, net::HandlerContext{});
  }
  net::RpcResponse HandleCtx(std::uint16_t opcode, std::string_view payload,
                             const net::HandlerContext& ctx) override {
    net::RpcResponse resp = inner_->HandleCtx(opcode, payload, ctx);
    const common::Nanos until = common::CpuTimer::Now() + service_ns_;
    while (common::CpuTimer::Now() < until) {
    }
    return resp;
  }

 private:
  net::RpcHandler* inner_;
  const common::Nanos service_ns_;
};

// TcpChannel completes callbacks inline, so a plain out-param works.
net::RpcResponse BlockingCall(net::Channel& channel, net::NodeId node,
                              std::uint16_t opcode, std::string payload,
                              const net::CallMeta& meta = {}) {
  net::RpcResponse out;
  channel.CallAsyncMeta(node, opcode, std::move(payload), meta,
                        [&out](net::RpcResponse r) { out = std::move(r); });
  return out;
}

struct Config {
  std::string out = "BENCH_overload.json";
  std::string connect;   // live daemon endpoint; empty -> in-proc server
  int service_us = 50;
  int workers = 4;
  int max_queue = 256;
  int threads = 8;       // volley threads in the overload phase
  int volley = 128;      // pipelined calls per volley
  int files = 512;       // stat targets, pre-created
  double peak_secs = 1.0;
  double load_secs = 2.0;
  double deadline_ms = 50;        // sustained-phase budget (> drain time)
  double burst_deadline_ms = 1.0; // burst budget (<< drain time)
};

struct Counts {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      // kOverloaded
  std::uint64_t expired = 0;   // kTimeout
  std::uint64_t other = 0;

  void Absorb(const net::RpcResponse& r) {
    switch (r.code) {
      case ErrCode::kOk: ++ok; break;
      case ErrCode::kOverloaded: ++shed; break;
      case ErrCode::kTimeout: ++expired; break;
      default: ++other; break;
    }
  }
  std::uint64_t issued() const { return ok + shed + expired + other; }
};

struct OverloadPhase {
  double secs = 0;
  Counts counts;
  double p50_ms = 0, p99_ms = 0;  // probe latencies (overload phase only)
  std::uint64_t queue_peak = 0;   // monitor (overload phase only)
  Counts bg;                      // background volleys (overload phase only)
};

class Driver {
 public:
  explicit Driver(const Config& cfg) : cfg_(cfg) {}

  bool Start() {
    if (cfg_.connect.empty()) {
      core::FileMetadataServer::Options fms_options;
      fms_options.sid = 1;
      fms_ = std::make_unique<core::FileMetadataServer>(fms_options);
      charged_ = std::make_unique<ServiceCostHandler>(
          fms_.get(), static_cast<common::Nanos>(cfg_.service_us) *
                          common::kMicro);
      net::TcpServer::Options server_options;
      server_options.workers = cfg_.workers;
      server_options.max_queue = static_cast<std::size_t>(cfg_.max_queue);
      server_ = std::make_unique<net::TcpServer>(charged_.get(),
                                                 server_options);
      if (!server_->Start().ok()) Fail("TcpServer::Start");
      endpoint_ = server_->host() + ":" + std::to_string(server_->port());
    } else {
      endpoint_ = cfg_.connect;
    }
    probe_ = NewChannel();
    return true;
  }

  void Stop() {
    if (server_) server_->Stop();
  }

  // One warmed channel per concurrent caller: responses release per
  // connection in decode order, so threads must not share a connection, and
  // the warm-up call lands the hello feature grant before any deadline or
  // priority stamping matters.
  std::unique_ptr<net::TcpChannel> NewChannel() {
    net::TcpChannelOptions options;
    options.connect_attempts = 3;
    options.call_deadline_ns = 10 * common::kSecond;
    auto channel = std::make_unique<net::TcpChannel>(options);
    if (!channel->Register(kNode, endpoint_)) Fail("endpoint parse");
    if (!BlockingCall(*channel, kNode, core::proto::kFmsGetAttr,
                      StatPayload(0))
             .ok()) {
      // kNotFound in warm-up is fine (files not created yet); transport
      // failure is not — but both surface as !ok, so just require a reply.
    }
    return channel;
  }

  std::string StatPayload(int i) const {
    return fs::Pack(kDir, "f" + std::to_string(i % cfg_.files));
  }

  void CreateFiles() {
    const fs::Identity who{1000, 1000};
    for (int i = 0; i < cfg_.files; ++i) {
      const auto resp = BlockingCall(
          *probe_, kNode, core::proto::kFmsCreate,
          fs::Pack(kDir, "f" + std::to_string(i), std::uint32_t{0644}, who,
                   static_cast<std::uint64_t>(i + 1)));
      if (resp.code != ErrCode::kOk && resp.code != ErrCode::kExists) {
        Fail("pre-create");
      }
    }
  }

  std::optional<net::LoadStatus> PollLoad() {
    const auto resp =
        BlockingCall(*probe_, kNode, net::wire::kCtlLoadStatus, {});
    if (!resp.ok()) return std::nullopt;
    net::LoadStatus status;
    if (!DecodeLoadStatus(resp.payload, &status).ok()) return std::nullopt;
    return status;
  }

  // Closed-loop volleys from `threads` threads for `secs`; every volley
  // shares one CallMeta.  Small volleys with a generous budget measure
  // peak; large volleys with a tight budget create the overload.
  OverloadPhase RunVolleys(int threads, int volley, double secs,
                         double deadline_ms, bool with_probe_and_monitor) {
    OverloadPhase result;
    std::atomic<bool> stop{false};
    std::vector<Counts> per_thread(static_cast<std::size_t>(threads));
    std::vector<std::thread> crew;
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < threads; ++t) {
      crew.emplace_back([&, t] {
        auto channel = NewChannel();
        std::vector<std::pair<std::uint16_t, std::string>> calls;
        for (int i = 0; i < volley; ++i) {
          calls.emplace_back(core::proto::kFmsGetAttr,
                             StatPayload(t * volley + i));
        }
        net::CallMeta meta;
        meta.deadline_ns = static_cast<common::Nanos>(deadline_ms * 1e6);
        while (!stop.load(std::memory_order_relaxed)) {
          const auto resps = channel->CallPipelined(kNode, calls, meta);
          for (const auto& r : resps) {
            per_thread[static_cast<std::size_t>(t)].Absorb(r);
          }
        }
      });
    }

    std::thread probe, background, monitor;
    std::vector<double> latencies_ms;
    Counts bg_counts;
    std::atomic<std::uint64_t> queue_peak{0};
    if (with_probe_and_monitor) {
      // Paced single foreground calls: the user-visible latency under
      // saturation, unpolluted by volley batching.
      probe = std::thread([&] {
        auto channel = NewChannel();
        net::CallMeta meta;
        meta.deadline_ns = static_cast<common::Nanos>(deadline_ms * 1e6);
        while (!stop.load(std::memory_order_relaxed)) {
          const auto t0 = std::chrono::steady_clock::now();
          const auto resp = BlockingCall(*channel, kNode,
                                         core::proto::kFmsGetAttr,
                                         StatPayload(0), meta);
          if (resp.code == ErrCode::kOk) {
            latencies_ms.push_back(
                Seconds(std::chrono::steady_clock::now() - t0) * 1e3);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
      // Background volleys: under saturation these shed ahead of the
      // foreground traffic.
      background = std::thread([&] {
        auto channel = NewChannel();
        std::vector<std::pair<std::uint16_t, std::string>> calls;
        for (int i = 0; i < volley; ++i) {
          calls.emplace_back(core::proto::kFmsGetAttr, StatPayload(i));
        }
        net::CallMeta meta;
        meta.deadline_ns = static_cast<common::Nanos>(deadline_ms * 1e6);
        meta.priority = net::Priority::kBackground;
        while (!stop.load(std::memory_order_relaxed)) {
          for (const auto& r : channel->CallPipelined(kNode, calls, meta)) {
            bg_counts.Absorb(r);
          }
        }
      });
      // Control-priority load probe: admission-exempt, so it reports queue
      // depth from inside the very overload that would shed it otherwise.
      monitor = std::thread([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          if (const auto status = PollLoad()) {
            const std::uint64_t depth = status->queued_foreground +
                                        status->queued_background +
                                        status->queued_control;
            std::uint64_t prev = queue_peak.load(std::memory_order_relaxed);
            while (depth > prev &&
                   !queue_peak.compare_exchange_weak(prev, depth)) {
            }
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }

    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(secs, 0.05)));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : crew) th.join();
    if (probe.joinable()) probe.join();
    if (background.joinable()) background.join();
    if (monitor.joinable()) monitor.join();
    result.secs = Seconds(std::chrono::steady_clock::now() - start);

    for (const Counts& c : per_thread) {
      result.counts.ok += c.ok;
      result.counts.shed += c.shed;
      result.counts.expired += c.expired;
      result.counts.other += c.other;
    }
    result.bg = bg_counts;
    result.queue_peak = queue_peak.load(std::memory_order_relaxed);
    if (!latencies_ms.empty()) {
      std::sort(latencies_ms.begin(), latencies_ms.end());
      auto pct = [&](double p) {
        const std::size_t idx = static_cast<std::size_t>(
            p * static_cast<double>(latencies_ms.size() - 1));
        return latencies_ms[idx];
      };
      result.p50_ms = pct(0.50);
      result.p99_ms = pct(0.99);
    }
    return result;
  }

  // One synchronized volley per thread with a budget far below the
  // full-queue drain time: admitted work at the back of the queue expires
  // before a worker reaches it and is dropped unexecuted.
  OverloadPhase RunBurst(int threads, int volley, double deadline_ms) {
    OverloadPhase result;
    std::vector<Counts> per_thread(static_cast<std::size_t>(threads));
    std::vector<std::thread> crew;
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < threads; ++t) {
      crew.emplace_back([&, t] {
        auto channel = NewChannel();
        std::vector<std::pair<std::uint16_t, std::string>> calls;
        for (int i = 0; i < volley; ++i) {
          calls.emplace_back(core::proto::kFmsGetAttr,
                             StatPayload(t * volley + i));
        }
        net::CallMeta meta;
        meta.deadline_ns = static_cast<common::Nanos>(deadline_ms * 1e6);
        for (const auto& r : channel->CallPipelined(kNode, calls, meta)) {
          per_thread[static_cast<std::size_t>(t)].Absorb(r);
        }
      });
    }
    for (auto& th : crew) th.join();
    result.secs = Seconds(std::chrono::steady_clock::now() - start);
    for (const Counts& c : per_thread) {
      result.counts.ok += c.ok;
      result.counts.shed += c.shed;
      result.counts.expired += c.expired;
      result.counts.other += c.other;
    }
    return result;
  }

  static constexpr net::NodeId kNode = 1;
  const fs::Uuid kDir = fs::Uuid::Make(1, 42);

 private:
  const Config& cfg_;
  std::unique_ptr<core::FileMetadataServer> fms_;
  std::unique_ptr<ServiceCostHandler> charged_;
  std::unique_ptr<net::TcpServer> server_;
  std::string endpoint_;
  std::unique_ptr<net::TcpChannel> probe_;

 public:
  net::TcpChannel& probe() { return *probe_; }
};

}  // namespace
}  // namespace loco::bench

int main(int argc, char** argv) {
  using namespace loco;
  bench::MetricsDump metrics(argc, argv);

  bench::Config cfg;
  bool short_mode = false;
  auto flag = [&](int* i, const char* name, std::string* value) {
    const std::string_view arg = argv[*i];
    const std::size_t len = std::strlen(name);
    if (arg == name && *i + 1 < argc) {
      *value = argv[++*i];
      return true;
    }
    if (arg.size() > len + 1 && arg.substr(0, len) == name &&
        arg[len] == '=') {
      *value = std::string(arg.substr(len + 1));
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (flag(&i, "--out", &value)) {
      cfg.out = value;
    } else if (flag(&i, "--connect", &value)) {
      cfg.connect = value;
    } else if (flag(&i, "--service-us", &value)) {
      cfg.service_us = std::atoi(value.c_str());
    } else if (flag(&i, "--workers", &value)) {
      cfg.workers = std::atoi(value.c_str());
    } else if (flag(&i, "--max-queue", &value)) {
      cfg.max_queue = std::atoi(value.c_str());
    } else if (flag(&i, "--threads", &value)) {
      cfg.threads = std::atoi(value.c_str());
    } else if (flag(&i, "--volley", &value)) {
      cfg.volley = std::atoi(value.c_str());
    } else if (flag(&i, "--secs", &value)) {
      cfg.load_secs = std::atof(value.c_str());
    } else if (flag(&i, "--deadline-ms", &value)) {
      cfg.deadline_ms = std::atof(value.c_str());
    } else if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else {
      std::fprintf(stderr,
                   "fig_overload: unknown argument '%s'\n"
                   "usage: fig_overload [--out file.json] [--connect h:p]"
                   " [--service-us N] [--workers W] [--max-queue Q]"
                   " [--threads T] [--volley V] [--secs S]"
                   " [--deadline-ms D] [--short]"
                   " [--metrics-out file.json]\n",
                   argv[i]);
      return 2;
    }
  }
  if (short_mode) {
    cfg.peak_secs = 0.3;
    cfg.load_secs = 0.5;
    cfg.files = 128;
  }
  if (cfg.service_us < 1 || cfg.workers < 1 || cfg.max_queue < 8 ||
      cfg.threads < 1 || cfg.volley < 1 || cfg.files < 1 ||
      cfg.load_secs <= 0) {
    std::fprintf(stderr, "fig_overload: bad flag value\n");
    return 2;
  }
  const bool live = !cfg.connect.empty();

  bench::PrintBanner(
      "Overload control: goodput, shedding and deadlines at 2x load",
      "stat volleys against one FMS behind a bounded admission queue; "
      "peak -> expiry burst -> sustained saturation");
  std::printf(
      "service=%dus workers=%d max_queue=%d threads=%d volley=%d%s\n\n",
      cfg.service_us, cfg.workers, cfg.max_queue, cfg.threads, cfg.volley,
      live ? " (live daemon: gates skipped)" : "");

  bench::Driver driver(cfg);
  if (!driver.Start()) bench::Fail("driver start");
  driver.CreateFiles();
  metrics.Phase("setup");

  // Peak: outstanding well below the queue bound, generous budget.
  const int peak_threads = std::min(cfg.threads, cfg.workers);
  const bench::OverloadPhase peak = driver.RunVolleys(
      peak_threads, /*volley=*/8, cfg.peak_secs, /*deadline_ms=*/1000,
      /*with_probe_and_monitor=*/false);
  const double peak_goodput =
      static_cast<double>(peak.counts.ok) / peak.secs;
  metrics.Phase("peak");

  const auto before_burst = driver.PollLoad();

  // Burst: budget far below the full-queue drain -> expired drops.
  const bench::OverloadPhase burst = driver.RunBurst(
      cfg.threads, std::max(cfg.volley, cfg.max_queue / 2),
      /*deadline_ms=*/cfg.burst_deadline_ms);
  metrics.Phase("burst");

  const auto after_burst = driver.PollLoad();

  // Sustained overload: aggregate outstanding of threads*volley, several
  // times the queue bound, so offered load holds well above capacity.
  const bench::OverloadPhase load = driver.RunVolleys(
      cfg.threads, cfg.volley, cfg.load_secs, cfg.deadline_ms,
      /*with_probe_and_monitor=*/true);
  metrics.Phase("overload");

  const auto after_load = driver.PollLoad();

  const double offered = static_cast<double>(load.counts.issued()) /
                         load.secs;
  const double goodput = static_cast<double>(load.counts.ok) / load.secs;
  const double shed_rate = static_cast<double>(load.counts.shed) /
                           load.secs;
  const double offered_ratio =
      peak_goodput > 0 ? offered / peak_goodput : 0;
  const double retention = peak_goodput > 0 ? goodput / peak_goodput : 0;
  const std::uint64_t server_expired =
      after_load ? after_load->expired_dropped : 0;
  const std::uint64_t burst_expired =
      (after_burst && before_burst)
          ? after_burst->expired_dropped - before_burst->expired_dropped
          : 0;
  const bool queue_bounded =
      load.queue_peak <= static_cast<std::uint64_t>(cfg.max_queue);
  const double bg_total = static_cast<double>(load.bg.issued());
  const double bg_shed_frac =
      bg_total > 0 ? static_cast<double>(load.bg.shed) / bg_total : 0;
  const double fg_total = static_cast<double>(load.counts.issued());
  const double fg_shed_frac =
      fg_total > 0 ? static_cast<double>(load.counts.shed) / fg_total : 0;

  bench::Table table({"phase", "offered/s", "ok/s", "shed/s", "expired",
                      "p50 ms", "p99 ms"});
  table.AddRow({"peak",
                bench::Table::Num(peak.counts.issued() / peak.secs, 0),
                bench::Table::Num(peak_goodput, 0), "0", "0", "-", "-"});
  table.AddRow({"burst",
                bench::Table::Num(burst.counts.issued() / burst.secs, 0),
                bench::Table::Num(burst.counts.ok / burst.secs, 0),
                bench::Table::Num(burst.counts.shed / burst.secs, 0),
                std::to_string(burst.counts.expired), "-", "-"});
  table.AddRow({"2x load", bench::Table::Num(offered, 0),
                bench::Table::Num(goodput, 0),
                bench::Table::Num(shed_rate, 0),
                std::to_string(load.counts.expired),
                bench::Table::Num(load.p50_ms, 2),
                bench::Table::Num(load.p99_ms, 2)});
  table.Print();

  std::printf(
      "\noffered %.1fx peak; goodput retention %.0f%%; queue peak %zu of "
      "%d; server shed %zu, expired dropped %zu (burst contributed %zu)\n"
      "background shed fraction %.0f%% vs foreground %.0f%%\n",
      offered_ratio, retention * 100,
      static_cast<std::size_t>(load.queue_peak), cfg.max_queue,
      static_cast<std::size_t>(after_load ? after_load->shed : 0),
      static_cast<std::size_t>(server_expired),
      static_cast<std::size_t>(burst_expired), bg_shed_frac * 100,
      fg_shed_frac * 100);

  // The 0.70 retention bar needs a phase window long enough to average out
  // scheduler noise; --short's half-second window can swing +-10 points on a
  // shared machine, so the smoke run only sanity-checks a looser floor.
  const double retention_bar = short_mode ? 0.55 : 0.70;
  const bool gate_retention = retention >= retention_bar;
  const bool gate_offered = offered_ratio >= 2.0;
  const bool gate_expired = server_expired > 0;
  bool pass = true;
  if (!live) {
    pass = gate_retention && gate_offered && gate_expired && queue_bounded;
    std::printf(
        "gates: offered>=2x %s, retention>=%.0f%% %s, expired>0 %s, "
        "queue bounded %s\n",
        gate_offered ? "ok" : "FAIL", retention_bar * 100,
        gate_retention ? "ok" : "FAIL", gate_expired ? "ok" : "FAIL",
        queue_bounded ? "ok" : "FAIL");
  }

  if (std::FILE* f = std::fopen(cfg.out.c_str(), "w")) {
    std::fprintf(
        f,
        "{\n  \"benchmark\": \"fig_overload\",\n"
        "  \"live\": %s,\n  \"service_us\": %d,\n  \"workers\": %d,\n"
        "  \"max_queue\": %d,\n  \"threads\": %d,\n  \"volley\": %d,\n"
        "  \"deadline_ms\": %.1f,\n"
        "  \"peak\": {\"goodput_ops_per_sec\": %.0f},\n"
        "  \"burst\": {\"deadline_ms\": %.2f, \"ok\": %zu, \"shed\": %zu,"
        " \"expired\": %zu, \"server_expired_dropped\": %zu},\n"
        "  \"overload\": {\n"
        "    \"offered_ops_per_sec\": %.0f,\n"
        "    \"offered_vs_peak\": %.2f,\n"
        "    \"goodput_ops_per_sec\": %.0f,\n"
        "    \"shed_per_sec\": %.0f,\n"
        "    \"client_expired\": %zu,\n"
        "    \"probe_p50_ms\": %.2f,\n    \"probe_p99_ms\": %.2f,\n"
        "    \"queue_peak\": %zu,\n    \"queue_bounded\": %s,\n"
        "    \"bg_shed_fraction\": %.2f,\n"
        "    \"fg_shed_fraction\": %.2f\n  },\n"
        "  \"goodput_retention\": %.2f,\n"
        "  \"server_totals\": {\"shed\": %zu, \"expired_dropped\": %zu},\n"
        "  \"gates\": {\"offered_ge_2x\": %s, \"retention_ge_0_70\": %s,"
        " \"expired_dropped_gt_0\": %s, \"queue_bounded\": %s}\n}\n",
        live ? "true" : "false", cfg.service_us, cfg.workers, cfg.max_queue,
        cfg.threads, cfg.volley, cfg.deadline_ms, peak_goodput,
        cfg.burst_deadline_ms, static_cast<std::size_t>(burst.counts.ok),
        static_cast<std::size_t>(burst.counts.shed),
        static_cast<std::size_t>(burst.counts.expired),
        static_cast<std::size_t>(burst_expired), offered, offered_ratio,
        goodput, shed_rate,
        static_cast<std::size_t>(load.counts.expired), load.p50_ms,
        load.p99_ms, static_cast<std::size_t>(load.queue_peak),
        queue_bounded ? "true" : "false", bg_shed_frac, fg_shed_frac,
        retention,
        static_cast<std::size_t>(after_load ? after_load->shed : 0),
        static_cast<std::size_t>(server_expired),
        gate_offered ? "true" : "false", gate_retention ? "true" : "false",
        gate_expired ? "true" : "false", queue_bounded ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", cfg.out.c_str());
  } else {
    std::fprintf(stderr, "fig_overload: cannot write %s\n",
                 cfg.out.c_str());
    return 1;
  }

  driver.Stop();
  return pass ? 0 : 1;
}
