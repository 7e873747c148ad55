// The benchmark deployment: two DMS shards, two FMS and one object store,
// either spawned as the real daemons (untraced run, restart check) or hosted
// in this process from the same classes and options with the timing
// decorators installed (traced run).
//
// Server indexes, shared by RPC and handler spans: 0 dms shard 0, 1 dms
// shard 1, 2 fms sid 1, 3 fms sid 2, 4 osd.  Store indexes of KV spans:
// 0 dms.dirs, 1 dms.dirents, 2 fms.access, 3 fms.content, 4 fms.dirents.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/rpc.h"

namespace livebench {

constexpr int kServers = 5;
constexpr int kStores = 5;
constexpr int kWorkers = 2;
const char* ServerName(int server);  // "dms0", "dms1", "fms1", "fms2", "osd"
const char* StoreName(int store);    // "dms.dirs", ...
const char* ServerRole(int server);  // "dms", "fms", "osd"

// Mount node id (core::Connect numbering) -> server index.
std::map<loco::net::NodeId, std::uint8_t> NodeServers();

// Logical bytes of every regular file under `dir` (0 if absent).
std::uint64_t DirBytes(const std::string& dir);
// Remove `dir` recursively (errors ignored).
void RemoveTree(const std::string& dir);

// Per-server restart facts from DaemonCluster::Start.
struct StartInfo {
  double seconds = 0;       // spawn until the listening banner (replay)
  std::uint64_t bytes = 0;  // store bytes found at start
};

// The five real daemons, spawned from `bin_dir` with --workers 2 and a
// store directory each under `store_root`.  Every spawned pid is also kept
// in a process-wide table that KillAllDaemons() (signal-safe) reaps.
class DaemonCluster {
 public:
  DaemonCluster(std::string bin_dir, std::string store_root);
  ~DaemonCluster();  // SIGKILLs and reaps whatever is still running
  DaemonCluster(const DaemonCluster&) = delete;
  DaemonCluster& operator=(const DaemonCluster&) = delete;

  // Spawn all five (shard 0 first: the FMS announce to it).  A restart
  // reuses the ports learned by the first start.  False on failure, with
  // *err set.
  bool Start(std::string* err);
  // SIGKILL every daemon and reap it.
  void Kill();

  std::string ConnectSpec() const;
  const std::vector<StartInfo>& last_start() const { return info_; }
  const std::vector<std::uint16_t>& ports() const { return ports_; }

 private:
  std::string StoreDir(int server) const;
  std::vector<std::string> Args(int server) const;

  std::string bin_dir_;
  std::string store_root_;
  std::vector<pid_t> pids_ = std::vector<pid_t>(kServers, -1);
  std::vector<std::uint16_t> ports_ = std::vector<std::uint16_t>(kServers, 0);
  std::vector<StartInfo> info_ = std::vector<StartInfo>(kServers);
};

// Async-signal-safe: SIGKILL and reap every daemon this process spawned and
// has not reaped yet.
void KillAllDaemons();

// The same five servers hosted in-process on loopback TcpServers, each
// handler behind a TimedHandler and each DMS/FMS store behind a TimedKv.
class InProcCluster {
 public:
  explicit InProcCluster(std::string store_root);
  ~InProcCluster();
  InProcCluster(const InProcCluster&) = delete;
  InProcCluster& operator=(const InProcCluster&) = delete;

  bool Start(std::string* err);
  // Stop every server (joins their threads) and destroy the services.
  void Stop();

  std::string ConnectSpec() const;

 private:
  std::string StoreDir(int server) const;
  struct Hosted;
  std::string store_root_;
  std::vector<std::unique_ptr<Hosted>> servers_;
};

}  // namespace livebench
