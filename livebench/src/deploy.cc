#include "deploy.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>

#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "daemon_main.h"
#include "decorators.h"
#include "net/dedup.h"
#include "net/tcp.h"
#include "workload.h"

namespace livebench {

namespace fs = std::filesystem;
using namespace loco;

namespace {

constexpr int kMaxPids = 16;
std::atomic<pid_t> g_pids[kMaxPids];

void TrackPid(pid_t pid) {
  for (auto& slot : g_pids) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void UntrackPid(pid_t pid) {
  for (auto& slot : g_pids) {
    pid_t want = pid;
    if (slot.compare_exchange_strong(want, 0)) return;
  }
}

void KillAndReap(pid_t* pid) {
  if (*pid <= 0) return;
  ::kill(*pid, SIGKILL);
  ::waitpid(*pid, nullptr, 0);
  UntrackPid(*pid);
  *pid = -1;
}

// Fork/exec `argv`; read the "listening on host:port" banner (port after
// the last colon) within 20 s.  Returns the pid (and *port), or -1.
pid_t SpawnDaemon(const std::vector<std::string>& argv, std::uint16_t* port,
                  std::string* err) {
  int out[2];
  if (::pipe(out) != 0) {
    *err = "pipe failed";
    return -1;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    *err = "fork failed";
    return -1;
  }
  if (pid == 0) {
    // Never outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    _exit(127);
  }
  TrackPid(pid);
  ::close(out[1]);
  std::string line;
  const std::int64_t deadline = SteadyNs() + 20'000'000'000;
  while (line.size() < 512) {
    const std::int64_t left_ms = (deadline - SteadyNs()) / 1'000'000;
    pollfd pfd{out[0], POLLIN, 0};
    if (left_ms <= 0 || ::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) break;
    char ch = 0;
    if (::read(out[0], &ch, 1) != 1 || ch == '\n') break;
    line.push_back(ch);
  }
  ::close(out[0]);
  const std::size_t colon = line.rfind(':');
  const unsigned long parsed =
      colon == std::string::npos ? 0 : std::strtoul(line.c_str() + colon + 1, nullptr, 10);
  if (parsed == 0 || parsed > 65535 || (*port != 0 && parsed != *port)) {
    pid_t doomed = pid;
    KillAndReap(&doomed);
    *err = argv[0] + ": no listening banner (got '" + line + "')";
    return -1;
  }
  *port = static_cast<std::uint16_t>(parsed);
  return pid;
}

std::string Endpoint(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

std::string Spec(const std::vector<std::uint16_t>& ports) {
  return "dms=" + Endpoint(ports[0]) + ",dms=" + Endpoint(ports[1]) +
         ",fms=" + Endpoint(ports[2]) + ",fms=" + Endpoint(ports[3]) +
         ",osd=" + Endpoint(ports[4]);
}

}  // namespace

const char* ServerName(int server) {
  static const char* const kNames[kServers] = {"dms0", "dms1", "fms1", "fms2",
                                               "osd"};
  return server >= 0 && server < kServers ? kNames[server] : "?";
}

const char* ServerRole(int server) {
  return server < 2 ? "dms" : server < 4 ? "fms" : "osd";
}

const char* StoreName(int store) {
  static const char* const kNames[kStores] = {
      "dms.dirs", "dms.dirents", "fms.access", "fms.content", "fms.dirents"};
  return store >= 0 && store < kStores ? kNames[store] : "?";
}

std::map<net::NodeId, std::uint8_t> NodeServers() {
  // core::Connect: dms shard 0 = 0, shard i = 900 + i; fms = 1..N; osd 1000.
  return {{0, 0}, {901, 1}, {1, 2}, {2, 3}, {1000, 4}};
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const auto size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void KillAllDaemons() {
  for (auto& slot : g_pids) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_pids) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
}

// --------------------------------------------------------------- daemons --

DaemonCluster::DaemonCluster(std::string bin_dir, std::string store_root)
    : bin_dir_(std::move(bin_dir)), store_root_(std::move(store_root)) {}

DaemonCluster::~DaemonCluster() { Kill(); }

std::string DaemonCluster::StoreDir(int server) const {
  return store_root_ + "/" + ServerName(server);
}

std::vector<std::string> DaemonCluster::Args(int server) const {
  static const char* const kBinaries[kServers] = {
      "locofs_dmsd", "locofs_dmsd", "locofs_fmsd", "locofs_fmsd", "locofs_osd"};
  std::vector<std::string> argv = {
      bin_dir_ + "/" + kBinaries[server], "--listen", Endpoint(ports_[server]),
      "--workers", std::to_string(kWorkers), "--store-dir", StoreDir(server)};
  if (server < 2) {
    argv.insert(argv.end(), {"--shard-id", std::to_string(server)});
  } else if (server < 4) {
    argv.insert(argv.end(), {"--sid", std::to_string(server - 1), "--announce",
                             Endpoint(ports_[0])});
  }
  return argv;
}

bool DaemonCluster::Start(std::string* err) {
  for (int s = 0; s < kServers; ++s) {
    info_[s].bytes = DirBytes(StoreDir(s));
    const std::int64_t t0 = SteadyNs();
    const pid_t pid = SpawnDaemon(Args(s), &ports_[s], err);
    if (pid < 0) {
      Kill();
      return false;
    }
    pids_[s] = pid;
    info_[s].seconds = static_cast<double>(SteadyNs() - t0) / 1e9;
  }
  return true;
}

void DaemonCluster::Kill() {
  for (pid_t& pid : pids_) KillAndReap(&pid);
}

std::string DaemonCluster::ConnectSpec() const { return Spec(ports_); }

// ------------------------------------------------------------- in-process --

struct InProcCluster::Hosted {
  std::unique_ptr<net::RpcHandler> service;
  std::unique_ptr<TimedHandler> timed;
  net::DedupWindow dedup{core::proto::IdempotentReplayOps()};
  std::unique_ptr<net::TcpServer> tcp;
};

InProcCluster::InProcCluster(std::string store_root)
    : store_root_(std::move(store_root)) {}

InProcCluster::~InProcCluster() { Stop(); }

std::string InProcCluster::StoreDir(int server) const {
  return store_root_ + "/" + ServerName(server);
}

bool InProcCluster::Start(std::string* err) {
  for (int s = 0; s < kServers; ++s) {
    auto hosted = std::make_unique<Hosted>();
    const std::string dir = StoreDir(s);
    net::TcpServer::Options options;
    options.workers = kWorkers;
    options.dedup = &hosted->dedup;
    options.epoch = daemons::NextEpoch(dir);
    core::DirectoryMetadataServer* dms = nullptr;
    if (s < 2) {
      core::DirectoryMetadataServer::Options o;
      o.kv.dir = dir;
      o.sid = 0xfffe - static_cast<std::uint32_t>(s);
      o.kv_decorator = TimedKvFactory({0, 1});
      auto service = std::make_unique<core::DirectoryMetadataServer>(o);
      dms = service.get();
      options.on_notify_disconnect = [dms](std::uint64_t client) {
        dms->DropClientLeases(client);
      };
      hosted->service = std::move(service);
    } else if (s < 4) {
      core::FileMetadataServer::Options o;
      o.sid = static_cast<std::uint32_t>(s - 1);
      o.kv.dir = dir;
      o.kv_decorator = TimedKvFactory({2, 3, 4});
      auto service = std::make_unique<core::FileMetadataServer>(o);
      core::FileMetadataServer* fms = service.get();
      options.on_client_disconnect = [fms](std::uint64_t client) {
        fms->DropClientSessions(client);
      };
      hosted->service = std::move(service);
    } else {
      core::ObjectStoreServer::Options o;
      o.kv.dir = dir;
      hosted->service = std::make_unique<core::ObjectStoreServer>(o);
    }
    hosted->timed = std::make_unique<TimedHandler>(hosted->service.get(),
                                                   static_cast<std::uint8_t>(s));
    hosted->tcp = std::make_unique<net::TcpServer>(hosted->timed.get(), options);
    if (Status st = hosted->tcp->Start(); !st.ok()) {
      *err = std::string(ServerName(s)) + ": " + st.ToString();
      return false;
    }
    if (dms != nullptr) dms->SetNotifier(hosted->tcp.get());
    if (s == 2 || s == 3) {
      daemons::AnnounceToDms("livebench", Endpoint(servers_[0]->tcp->port()),
                             static_cast<std::uint32_t>(s - 1), options.epoch);
    }
    servers_.push_back(std::move(hosted));
  }
  return true;
}

void InProcCluster::Stop() {
  for (auto& h : servers_) h->tcp->Stop();
  servers_.clear();
}

std::string InProcCluster::ConnectSpec() const {
  std::vector<std::uint16_t> ports;
  for (const auto& h : servers_) ports.push_back(h->tcp->port());
  return Spec(ports);
}

}  // namespace livebench
