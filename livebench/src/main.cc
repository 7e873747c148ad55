// livebench: the live-daemon metadata benchmark (see ../README.md).
//
//   livebench --workload wide_dir|batch_ingest|namespace --seed N
//             --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//
// Spawns two locofs_dmsd shards, two locofs_fmsd and one locofs_osd from
// --bin-dir (each --workers 2, store under --work-dir), sets up the
// workload's namespace, drives 4 closed-loop clients for --seconds, then
// SIGKILLs and restarts every daemon and checks every acknowledged
// operation.  --trace 1 adds the traced run: the same servers hosted in this
// process behind timing decorators, giving the per-layer metrics and a
// Chrome trace in --work-dir.  The last stdout line is the JSON result.
#include <signal.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analyze.h"
#include "common/metrics.h"
#include "core/connect.h"
#include "decorators.h"
#include "deploy.h"
#include "net/tcp.h"
#include "stats.h"
#include "verify.h"
#include "workload.h"

namespace livebench {
namespace {

using loco::core::LocoClient;

constexpr int kSetupReps = 11;
// Untimed load before each timed phase (connections, caches, page cache).
constexpr double kWarmupSeconds = 1.0;
// The timed phase is split into windows of this length, and each end-to-end
// figure is an order statistic over the windows (see EndToEnd): the host's
// CPU speed drifts in spells of several seconds, and a per-run figure taken
// over all calls would mostly measure how many spells the run caught.
constexpr int kWindowSeconds = 3;
// A window or set-up in which the hypervisor stole more than this share of
// the CPU measured the host, not the program (see LeastStolen).
constexpr double kMaxStealPct = 2.0;
// The traced phase is at most this long (span memory: kSpanCap).
constexpr double kTracedSeconds = 4.0;
constexpr int kVerifyThreads = 4;
// Spans kept by the traced run (56 bytes each); kTracedSeconds stays under
// the cap on every workload.
constexpr std::size_t kSpanCap = 3'000'000;

struct Args {
  Workload workload = Workload::kWideDir;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &a->workload);
      if (!have_workload) return false;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--bin-dir") {
      a->bin_dir = value;
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && a->seconds > 0 && !a->bin_dir.empty() &&
         !a->work_dir.empty() && argc % 2 == 1;
}

// The benchmark's clients: one mount (own connections, own notify stream)
// and one LocoClient per client thread.  Traced clients issue their RPCs
// through a TimedChannel.  Members are destroyed clients-first.
struct Clients {
  std::vector<loco::core::MountHandle> mounts;
  std::vector<std::unique_ptr<TimedChannel>> timed;
  std::vector<std::unique_ptr<LocoClient>> clients;
};

bool Mount(const std::string& spec, int n, bool timed,
           std::unique_ptr<Clients>* made, std::string* err) {
  *made = std::make_unique<Clients>();
  Clients* out = made->get();
  auto opts = loco::core::ClientOptions::FromSpec(spec);
  if (!opts.ok()) {
    *err = opts.status().ToString();
    return false;
  }
  for (int i = 0; i < n; ++i) {
    auto mount = loco::core::Connect(*opts);
    if (!mount.ok()) {
      *err = mount.status().ToString();
      return false;
    }
    out->mounts.push_back(std::move(*mount));
  }
  for (auto& m : out->mounts) {
    LocoClient::Config cfg = m.config;
    cfg.now = [] { return static_cast<std::uint64_t>(loco::common::WallClockNs()); };
    loco::net::Channel* channel = &m.rpc();
    if (timed) {
      out->timed.push_back(std::make_unique<TimedChannel>(m.rpc(), NodeServers()));
      channel = out->timed.back().get();
    }
    out->clients.push_back(std::make_unique<LocoClient>(*channel, cfg));
  }
  return true;
}

// CPU time the hypervisor gave to other guests ("steal" in /proc/stat) and
// all CPU time, in ticks since boot.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

// Share of all CPU time the hypervisor stole between two readings, percent.
double StealPct(const CpuTicks& from, const CpuTicks& to) {
  return to.total > from.total ? 100.0 * static_cast<double>(to.steal - from.steal) /
                                     static_cast<double>(to.total - from.total)
                               : 0;
}

// Indexes (ascending) of the measurements the figures use, given each one's
// steal: those with at most kMaxStealPct; when fewer than half qualify, the
// half with the least steal.
std::vector<std::size_t> LeastStolen(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] <= kMaxStealPct) ++keep;
  order.resize(std::max(keep, (order.size() + 1) / 2));
  std::sort(order.begin(), order.end());
  return order;
}

struct Run {
  Params params;
  std::vector<Generator> gens;
  Ledger shared;
  std::vector<Ledger> ledgers;
  std::vector<ClientTally> tallies;
  std::vector<ClientTally> warm;  // the untimed warm-up
  int windows = 1;
  double window_s = 0;
  double elapsed_s = 0;
  std::vector<double> steal_pct;  // host steal time per window, percent

  Ledger Merged() const {
    Ledger all = shared;
    for (const Ledger& l : ledgers) all.Merge(l);
    return all;
  }
  // Total of `field` over the timed phase (plus the warm-up if asked).
  std::uint64_t Sum(std::uint64_t ClientTally::*field, bool with_warmup = false) const {
    std::uint64_t total = 0;
    for (const ClientTally& t : tallies) total += t.*field;
    if (with_warmup) {
      for (const ClientTally& t : warm) total += t.*field;
    }
    return total;
  }
  // Latencies of `kinds` completed in window `w`.
  std::vector<double> Latencies(std::initializer_list<OpKind> kinds, int w) const {
    std::vector<double> all;
    for (const ClientTally& t : tallies) {
      if (w >= static_cast<int>(t.windows.size())) continue;
      for (OpKind k : kinds) {
        const auto& v = t.windows[static_cast<std::size_t>(w)].latency_us[static_cast<std::size_t>(k)];
        all.insert(all.end(), v.begin(), v.end());
      }
    }
    return all;
  }
  // Acknowledged items per second in each window.
  std::vector<double> WindowRates() const {
    std::vector<double> rates(static_cast<std::size_t>(windows), 0);
    for (const ClientTally& t : tallies) {
      for (std::size_t i = 0; i < t.windows.size() && i < rates.size(); ++i) {
        rates[i] += static_cast<double>(t.windows[i].items);
      }
    }
    // The last window also holds the calls that completed after the deadline.
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const double len = i + 1 < rates.size() ? window_s
                                              : elapsed_s - window_s * (windows - 1);
      rates[i] = len > 0 ? rates[i] / len : 0;
    }
    return rates;
  }
  // The windows the end-to-end figures use (LeastStolen), in order.
  std::vector<int> CleanWindows() const {
    std::vector<int> out;
    for (std::size_t w : LeastStolen(steal_pct)) out.push_back(static_cast<int>(w));
    return out;
  }
  double OpsPerSec() const {
    return elapsed_s > 0
               ? static_cast<double>(Sum(&ClientTally::attempted) -
                                     Sum(&ClientTally::failed)) / elapsed_s
               : 0;
  }
  std::string FirstError() const {
    for (const auto* part : {&warm, &tallies}) {
      for (const ClientTally& t : *part) {
        if (!t.first_error.empty()) return t.first_error;
      }
    }
    return {};
  }
};

Run MakeRun(const Args& a) {
  Run r;
  for (int c = 0; c < r.params.clients; ++c) {
    r.gens.emplace_back(a.workload, r.params, a.seed, c);
  }
  r.ledgers.resize(static_cast<std::size_t>(r.params.clients));
  r.tallies.resize(static_cast<std::size_t>(r.params.clients));
  r.warm.resize(static_cast<std::size_t>(r.params.clients));
  return r;
}

// Shared directories through client 0, then every client's own preload in
// parallel.  Preload operations must all succeed.
bool Preload(const Args& a, Clients& cl, Run* r, std::string* err) {
  for (const Op& op : SharedPreload(a.workload, r->params)) {
    if (!Execute(*cl.clients[0], op, err)) return false;
    r->shared.Apply(op);
  }
  std::vector<std::string> errors(cl.clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < cl.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (const Op& op : r->gens[c].Preload()) {
        if (!Execute(*cl.clients[c], op, &errors[c])) return;
        r->ledgers[c].Apply(op);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *err = "preload: " + e;
      return false;
    }
  }
  return true;
}

// Drive every client for `warmup_s` (acknowledged operations still go to the
// ledger), then for the timed `seconds`, split into `windows` windows.
void RunTimed(Clients& cl, double warmup_s, double seconds, int windows, Run* r) {
  const auto secs = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  const std::int64_t warm_start = SteadyNs();
  const std::int64_t start = warm_start + secs(warmup_s);
  const std::int64_t deadline = start + secs(seconds);
  r->steal_pct.assign(static_cast<std::size_t>(windows), 0);
  std::thread steal_meter([&] {
    const auto sleep_until = [](std::int64_t t) {
      while (SteadyNs() < t) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    sleep_until(start);
    CpuTicks prev = ReadCpuTicks();
    for (int w = 0; w < windows; ++w) {
      sleep_until(start + secs(seconds) * (w + 1) / windows);
      const CpuTicks cur = ReadCpuTicks();
      r->steal_pct[static_cast<std::size_t>(w)] = StealPct(prev, cur);
      prev = cur;
    }
  });
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < cl.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientTally warm;
      RunClient(*cl.clients[c], r->gens[c], warm_start, start, 1,
                static_cast<int>(c), r->params, &r->ledgers[c], &warm);
      RunClient(*cl.clients[c], r->gens[c], start, deadline, windows,
                static_cast<int>(c), r->params, &r->ledgers[c], &r->tallies[c]);
      r->warm[c] = std::move(warm);
    });
  }
  for (auto& t : threads) t.join();
  steal_meter.join();
  r->windows = windows;
  r->window_s = seconds / windows;
  r->elapsed_s = static_cast<double>(SteadyNs() - start) / 1e9;
}

// Polls kCtlLoadStatus from every daemon while the timed phase runs.
class LoadPoller {
 public:
  explicit LoadPoller(const std::vector<std::uint16_t>& ports) {
    loco::net::TcpChannelOptions o;
    o.connect_attempts = 1;
    o.call_deadline_ns = loco::common::kSecond;
    channel_ = std::make_unique<loco::net::TcpChannel>(o);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      channel_->Register(static_cast<loco::net::NodeId>(i), "127.0.0.1", ports[i]);
    }
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Poll();
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_.load(); });
      }
    });
  }
  ~LoadPoller() { Stop(); }
  LoadPoller(const LoadPoller&) = delete;
  LoadPoller& operator=(const LoadPoller&) = delete;

  // Stop polling and take one last sample.
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Poll();
  }

  // Mean queue-delay EWMA (us) over the samples of one role's daemons.
  double QueueDelayUs(const char* role) const {
    double sum = 0, n = 0;
    for (const auto& [server, ewma] : samples_) {
      if (std::strcmp(ServerRole(server), role) == 0) {
        sum += ewma;
        n += 1;
      }
    }
    return n > 0 ? sum / n / 1e3 : 0;
  }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t expired() const { return expired_; }

 private:
  void Poll() {
    std::uint64_t shed = 0, expired = 0;
    for (int s = 0; s < kServers; ++s) {
      loco::net::RpcResponse resp;
      channel_->CallAsync(static_cast<loco::net::NodeId>(s),
                          loco::net::wire::kCtlLoadStatus, "",
                          [&resp](loco::net::RpcResponse r) { resp = std::move(r); });
      loco::net::LoadStatus st;
      if (!resp.ok() || !loco::net::DecodeLoadStatus(resp.payload, &st).ok()) continue;
      samples_.emplace_back(s, static_cast<double>(st.queue_delay_ewma_ns));
      shed += st.shed;
      expired += st.expired_dropped;
    }
    shed_ = shed;
    expired_ = expired;
  }

  std::unique_ptr<loco::net::TcpChannel> channel_;
  std::vector<std::pair<int, double>> samples_;  // poll thread, then Stop()
  std::uint64_t shed_ = 0, expired_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::uint64_t RoleBytes(const std::string& root, const char* role) {
  std::uint64_t total = 0;
  for (int s = 0; s < kServers; ++s) {
    if (std::strcmp(ServerRole(s), role) == 0) {
      total += DirBytes(root + "/" + ServerName(s));
    }
  }
  return total;
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The untraced end-to-end metrics of one run, plus a readable report on
// stdout, over the clean windows (Run::CleanWindows): the median window
// item rate, the median of the window medians, and the tail (highest
// percentile up to p99 with at least 10 samples beyond it) of all calls in
// those windows.  An op kind the workload did not issue is left out.
void EndToEnd(const Run& r, double setup_s, double store_bytes_per_op,
              Metrics* out) {
  const std::vector<int> clean = r.CleanWindows();
  const std::vector<double> all_rates = r.WindowRates();
  std::vector<double> rates;
  for (int w : clean) rates.push_back(all_rates[static_cast<std::size_t>(w)]);
  (*out)["ops_per_s"] = Metric{Median(rates), "1/s"};
  std::printf("  items/s (steal %%) per %.1f s window:", r.window_s);
  for (int w = 0; w < r.windows; ++w) {
    std::printf(" %.0f (%.1f)", all_rates[static_cast<std::size_t>(w)],
                r.steal_pct[static_cast<std::size_t>(w)]);
  }
  std::printf("; %zu windows used\n", clean.size());
  struct Lat {
    const char* name;
    std::initializer_list<OpKind> kinds;
    bool tail;
  };
  const Lat lats[] = {
      {"create", {OpKind::kCreate, OpKind::kCreateMany}, true},
      {"stat", {OpKind::kStat, OpKind::kStatMany}, true},
      {"unlink", {OpKind::kUnlink}, true},
      {"mkdir", {OpKind::kMkdir}, true},
      {"rename", {OpKind::kRename}, true},
      {"readdir", {OpKind::kReaddir, OpKind::kReaddirPlus}, false},
  };
  for (const Lat& l : lats) {
    std::vector<double> p50s, pooled;
    for (int w : clean) {
      std::vector<double> v = r.Latencies(l.kinds, w);
      if (v.empty()) continue;
      p50s.push_back(Median(v));
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
    if (pooled.empty()) continue;  // not exercised: left out
    const double p50 = Median(p50s);
    const Tail tail = TailPercentile(std::move(pooled), 0.99);
    (*out)[std::string(l.name) + "_p50_us"] = Metric{p50, "us"};
    if (l.tail) (*out)[std::string(l.name) + "_p99_us"] = Metric{tail.value, "us"};
    std::printf("  %-8s %zu calls: p50=%9.1f us  p%.4g=%9.1f us\n", l.name, tail.count, p50,
                tail.percentile * 100, tail.value);
  }
  (*out)["setup_s"] = Metric{setup_s, "s"};
  (*out)["store_bytes_per_op"] = Metric{store_bytes_per_op, "bytes"};
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& m) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Fmt(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Filesystem under `path`, for the report (the store must not be tmpfs).
const char* FsType(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
  }
}

void OnSignal(int sig) {
  KillAllDaemons();
  _exit(128 + sig);
}

bool ReportVerify(const char* what, const VerifyResult& v) {
  std::printf("%s: restart check compared %llu paths, %llu mismatches\n", what,
              static_cast<unsigned long long>(v.checked),
              static_cast<unsigned long long>(v.mismatches));
  if (!v.error.empty()) std::printf("  error: %s\n", v.error.c_str());
  for (const std::string& ex : v.examples) std::printf("  mismatch: %s\n", ex.c_str());
  return v.error.empty() && v.mismatches == 0 && v.checked > 0;
}

int Main(const Args& a) {
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);
  const std::string root = a.work_dir + "/store";
  std::filesystem::create_directories(root);
  std::printf("store root %s on %s, %u cpus\n", root.c_str(), FsType(root),
              std::thread::hardware_concurrency());
  std::string err;

  // ---- Untraced run on the spawned daemons. ----
  std::vector<double> setups, setup_steal;
  Run run = MakeRun(a);
  std::unique_ptr<Clients> clients;
  std::unique_ptr<DaemonCluster> cluster;
  std::string run_dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    run_dir = root + (last ? "/run" : "/setup" + std::to_string(rep));
    RemoveTree(run_dir);
    std::filesystem::create_directories(run_dir);
    run = MakeRun(a);
    const CpuTicks ticks0 = ReadCpuTicks();
    const std::int64_t t0 = SteadyNs();
    cluster = std::make_unique<DaemonCluster>(a.bin_dir, run_dir);
    bool ok = cluster->Start(&err);
    const std::int64_t t1 = SteadyNs();
    ok = ok && Mount(cluster->ConnectSpec(), run.params.clients, false, &clients, &err);
    const std::int64_t t2 = SteadyNs();
    ok = ok && Preload(a, *clients, &run, &err);
    const std::int64_t t3 = SteadyNs();
    if (!ok) {
      std::fprintf(stderr, "livebench: setup failed: %s\n", err.c_str());
      return 1;
    }
    setups.push_back(static_cast<double>(t3 - t0) / 1e9);
    setup_steal.push_back(StealPct(ticks0, ReadCpuTicks()));
    std::printf("  setup %2d (steal %4.1f%%): spawn %6.1f ms (", rep, setup_steal.back(),
                (t1 - t0) / 1e6);
    for (int s = 0; s < kServers; ++s) {
      std::printf("%s%s %.1f", s ? ", " : "", ServerName(s),
                  cluster->last_start()[s].seconds * 1e3);
    }
    std::printf(")  mount %6.1f ms  preload %6.1f ms\n", (t2 - t1) / 1e6, (t3 - t2) / 1e6);
    if (!last) {
      clients.reset();
      cluster.reset();
      RemoveTree(run_dir);
    }
  }
  // The median over the set-ups the hypervisor left alone, as for the
  // timed windows.
  std::vector<double> clean_setups;
  for (std::size_t i : LeastStolen(setup_steal)) clean_setups.push_back(setups[i]);
  const double setup_s = Median(clean_setups);

  std::unique_ptr<LoadPoller> poller;
  if (a.trace) poller = std::make_unique<LoadPoller>(cluster->ports());
  const std::uint64_t bytes_before = DirBytes(run_dir);
  RunTimed(*clients, kWarmupSeconds, a.seconds,
           std::max(1, a.seconds / kWindowSeconds), &run);
  if (poller) poller->Stop();
  const std::uint64_t bytes_after = DirBytes(run_dir);
  // Bytes are measured around warm-up and timed phase together.
  const std::uint64_t mutating = run.Sum(&ClientTally::mutating, true);
  const double store_bytes_per_op =
      mutating > 0 ? static_cast<double>(bytes_after - bytes_before) /
                         static_cast<double>(mutating)
                   : 0;
  clients.reset();

  std::printf("livebench %s seed=%llu seconds=%d: %.1f items/s over %.2f s"
              " (setup median %.3f s of %zu clean set-ups)\n",
              WorkloadName(a.workload), static_cast<unsigned long long>(a.seed),
              a.seconds, run.OpsPerSec(), run.elapsed_s, setup_s, clean_setups.size());
  Metrics e2e;
  EndToEnd(run, setup_s, store_bytes_per_op, &e2e);
  std::uint64_t attempted = run.Sum(&ClientTally::attempted, true);
  std::uint64_t failed = run.Sum(&ClientTally::failed, true);
  if (failed > 0) std::printf("  first failure: %s\n", run.FirstError().c_str());

  cluster->Kill();
  bool correct = failed == 0;
  if (!cluster->Start(&err)) {
    std::fprintf(stderr, "livebench: restart failed: %s\n", err.c_str());
    return 1;
  }
  const std::vector<StartInfo> replay = cluster->last_start();
  correct = ReportVerify("untraced", Verify(cluster->ConnectSpec(), run.Merged(),
                                            kVerifyThreads)) && correct;
  cluster.reset();
  RemoveTree(run_dir);

  if (!a.trace) {
    PrintResult(correct, attempted, failed, e2e);
    return 0;
  }

  // ---- Traced run: the same servers in-process, decorators installed. ----
  Metrics layer;
  layer["error_ratio"] =
      Metric{attempted > 0 ? static_cast<double>(failed) / attempted : 0, "ratio"};
  layer["net.queue_delay_us.dms"] = Metric{poller->QueueDelayUs("dms"), "us"};
  layer["net.queue_delay_us.fms"] = Metric{poller->QueueDelayUs("fms"), "us"};
  layer["net.shed"] = Metric{static_cast<double>(poller->shed()), "count"};
  layer["net.expired_dropped"] = Metric{static_cast<double>(poller->expired()), "count"};
  for (const char* role : {"dms", "fms"}) {
    double seconds = 0, bytes = 0;
    for (int s = 0; s < kServers; ++s) {
      if (std::strcmp(ServerRole(s), role) != 0) continue;
      seconds += replay[s].seconds;
      bytes += static_cast<double>(replay[s].bytes);
    }
    layer[std::string("kv.replay_s.") + role] = Metric{seconds, "s"};
    layer[std::string("kv.replay_bytes.") + role] = Metric{bytes, "bytes"};
  }

  const std::string traced_dir = root + "/traced";
  RemoveTree(traced_dir);
  std::filesystem::create_directories(traced_dir);
  Run traced = MakeRun(a);
  auto hosted = std::make_unique<InProcCluster>(traced_dir);
  std::unique_ptr<Clients> tclients;
  if (!hosted->Start(&err) ||
      !Mount(hosted->ConnectSpec(), traced.params.clients, true, &tclients, &err) ||
      !Preload(a, *tclients, &traced, &err)) {
    std::fprintf(stderr, "livebench: traced setup failed: %s\n", err.c_str());
    return 1;
  }
  auto& registry = loco::common::MetricsRegistry::Default();
  auto& inval_hist = registry.GetHistogram("client.notify.invalidation_latency");
  const loco::common::Histogram inval_before = inval_hist.Snapshot();
  const std::uint64_t invalidations_before =
      registry.CounterValue("client.cache.invalidations");
  const std::uint64_t retries_before = registry.CounterValue("rpc.resilient.retries");
  std::uint64_t hits_before = 0, misses_before = 0;
  for (const auto& c : tclients->clients) {
    hits_before += c->cache_hits();
    misses_before += c->cache_misses();
  }
  const std::uint64_t dms_bytes_before = RoleBytes(traced_dir, "dms");
  const std::uint64_t fms_bytes_before = RoleBytes(traced_dir, "fms");

  auto recorder = std::make_unique<Recorder>(kSpanCap);
  const std::int64_t traced_start = SteadyNs();
  Recorder::Install(recorder.get());
  RunTimed(*tclients, kWarmupSeconds, std::min<double>(a.seconds, kTracedSeconds), 1,
           &traced);
  Recorder::Install(nullptr);

  std::uint64_t hits = 0, misses = 0;
  for (const auto& c : tclients->clients) {
    hits += c->cache_hits();
    misses += c->cache_misses();
  }
  hits -= hits_before;
  misses -= misses_before;
  loco::common::Histogram inval = inval_hist.Snapshot();
  inval.Subtract(inval_before);
  tclients.reset();
  hosted->Stop();
  std::vector<Span> spans = recorder->Drain();

  const std::uint64_t tmut = traced.Sum(&ClientTally::mutating, true);
  // As in AnalyzeSpans, a ratio or percentile without samples is left out.
  const auto ratio = [&layer](const char* name, double num, double den, const char* unit) {
    if (den > 0) layer[name] = Metric{num / den, unit};
  };
  ratio("store.bytes_per_op.dms",
        static_cast<double>(RoleBytes(traced_dir, "dms") - dms_bytes_before),
        static_cast<double>(tmut), "bytes");
  ratio("store.bytes_per_op.fms",
        static_cast<double>(RoleBytes(traced_dir, "fms") - fms_bytes_before),
        static_cast<double>(tmut), "bytes");
  ratio("client.cache_hit_ratio", static_cast<double>(hits),
        static_cast<double>(hits + misses), "ratio");
  layer["client.cache_lookups"] = Metric{static_cast<double>(hits + misses), "count"};
  layer["client.retries"] = Metric{
      static_cast<double>(registry.CounterValue("rpc.resilient.retries") - retries_before),
      "count"};
  if (inval.count() > 0) {
    layer["notify.invalidation_us_p50"] =
        Metric{static_cast<double>(inval.Percentile(0.5)) / 1e3, "us"};
  }
  std::uint64_t dir_mutations = 0;
  for (const ClientTally& t : traced.tallies) {
    for (OpKind k : {OpKind::kMkdir, OpKind::kRmdir, OpKind::kChmod, OpKind::kRename}) {
      for (const WindowTally& w : t.windows) {
        dir_mutations += w.latency_us[static_cast<std::size_t>(k)].size();
      }
    }
  }
  ratio("notify.invalidations_per_mutation",
        static_cast<double>(registry.CounterValue("client.cache.invalidations") -
                            invalidations_before),
        static_cast<double>(dir_mutations), "count");
  const std::uint64_t renames = traced.Sum(&ClientTally::rename_total);
  layer["rename.count"] = Metric{static_cast<double>(renames), "count"};
  ratio("rename.cross_shard_ratio", static_cast<double>(traced.Sum(&ClientTally::rename_cross)),
        static_cast<double>(renames), "ratio");
  layer["trace.ops_per_s"] = Metric{traced.OpsPerSec(), "1/s"};
  layer["trace.untraced_ops_per_s"] = Metric{run.OpsPerSec(), "1/s"};
  ratio("trace.overhead_ratio", run.OpsPerSec(), traced.OpsPerSec(), "ratio");
  layer["trace.spans"] = Metric{static_cast<double>(spans.size()), "count"};
  layer["trace.spans_dropped"] = Metric{static_cast<double>(recorder->dropped()), "count"};
  AnalyzeSpans(spans, traced.elapsed_s, &layer);

  const std::string trace_path = a.work_dir + "/trace-" + WorkloadName(a.workload) +
                                 "-seed" + std::to_string(a.seed) + ".json";
  const std::int64_t window_from =
      traced_start + static_cast<std::int64_t>(traced.elapsed_s * 0.5e9);
  if (WriteChromeTrace(spans, window_from, 20'000'000, trace_path)) {
    std::printf("traced: Chrome trace (20 ms window) in %s\n", trace_path.c_str());
  }
  std::printf("traced: %.1f items/s (untraced %.1f), %zu spans, join ratio %.4f\n",
              traced.OpsPerSec(), run.OpsPerSec(), spans.size(),
              layer.count("trace.rpc_join_ratio") ? layer["trace.rpc_join_ratio"].value : 0);
  spans.clear();
  spans.shrink_to_fit();

  attempted += traced.Sum(&ClientTally::attempted, true);
  const std::uint64_t tfailed = traced.Sum(&ClientTally::failed, true);
  failed += tfailed;
  if (tfailed > 0) std::printf("  first traced failure: %s\n", traced.FirstError().c_str());
  correct = correct && tfailed == 0;

  // Restart check of the traced run: the real daemons on its stores.
  DaemonCluster restarted(a.bin_dir, traced_dir);
  if (!restarted.Start(&err)) {
    std::fprintf(stderr, "livebench: traced restart failed: %s\n", err.c_str());
    return 1;
  }
  correct = ReportVerify("traced", Verify(restarted.ConnectSpec(), traced.Merged(),
                                          kVerifyThreads)) && correct;
  restarted.Kill();
  hosted.reset();
  RemoveTree(traced_dir);
  PrintResult(correct, attempted, failed, layer);
  return 0;
}

}  // namespace
}  // namespace livebench

int main(int argc, char** argv) {
  livebench::Args args;
  if (!livebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: livebench --workload wide_dir|batch_ingest|namespace"
                 " --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR\n");
    return 2;
  }
  return livebench::Main(args);
}
