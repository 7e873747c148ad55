// File Metadata Server daemon.
//
//   locofs_fmsd [--listen host:port] [--sid N] [--coupled] [--workers N]
//               [--store-dir dir] [--fault-spec spec]
//               [--announce host:port] [--node N]
//               [--metrics-out file.json]
//
// --sid must match this server's position in the client's FMS list (it seeds
// the high bits of the file uuids this server mints).  --workers sizes the
// request dispatch pool (default: hardware concurrency; 0 serves inline).
// --store-dir persists the inode and dirent stores so a restarted daemon
// recovers its files; --fault-spec arms the deterministic fault plane
// (grammar in net/fault.h).  Idempotent mutations are always served through
// a dedup window (retries replay instead of double-applying).
//
// --announce points at the DMS: once serving, the daemon reports its node id
// (--node; defaults to --sid, matching core::Connect's fms numbering) and
// fresh epoch so the DMS can gossip the restart to clients, which reset this
// node's circuit breaker immediately.
//
// --gc starts the background housekeeping thread (docs/HOUSEKEEPING.md):
// session expiry plus incremental detection/repair of invariants I5-I7.
// The orphan-file detector (I5) needs the DMS to ask which directory uuids
// are still live; point --gc-dms at it (defaults to the --announce target).
// Sharded deployments pass every shard as a comma-separated list
// (--gc-dms h1:p1,h2:p2,...): a uuid is alive if ANY shard claims it.
// --gc-ops caps the scan rate (touched entries/sec), --gc-batch sizes one
// step.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/fms.h"
#include "core/proto.h"
#include "daemon_main.h"
#include "kvstore/faulty_kv.h"
#include "net/dedup.h"

int main(int argc, char** argv) {
  using namespace loco;

  std::string listen = "127.0.0.1:0";
  std::string sid_str = "1";
  std::string metrics_out;
  std::string workers_str;
  std::string store_dir;
  std::string fault_spec;
  std::string announce;
  std::string node_str;
  std::string gc_ops_str;
  std::string gc_batch_str;
  std::string gc_dms;
  bool gc_enabled = false;
  bool decoupled = true;
  for (int i = 1; i < argc; ++i) {
    if (daemons::FlagValue(argc, argv, &i, "--listen", &listen)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--sid", &sid_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--metrics-out", &metrics_out)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--workers", &workers_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--store-dir", &store_dir)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--fault-spec", &fault_spec)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--announce", &announce)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--node", &node_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--gc-ops", &gc_ops_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--gc-batch", &gc_batch_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--gc-dms", &gc_dms)) continue;
    if (std::strcmp(argv[i], "--gc") == 0) {
      gc_enabled = true;
      continue;
    }
    if (std::strcmp(argv[i], "--coupled") == 0) {
      decoupled = false;
      continue;
    }
    std::fprintf(stderr,
                 "locofs_fmsd: unknown argument '%s'\n"
                 "usage: locofs_fmsd [--listen host:port] [--sid N] [--coupled]"
                 " [--workers N] [--store-dir dir] [--fault-spec spec]"
                 " [--announce host:port] [--node N]"
                 " [--gc] [--gc-ops RATE] [--gc-batch N]"
                 " [--gc-dms h1:p1,h2:p2,...]"
                 " [--metrics-out file.json]\n",
                 argv[i]);
    return 2;
  }

  int workers = 0;
  if (!daemons::ParseWorkers("locofs_fmsd", workers_str, &workers)) return 2;
  std::unique_ptr<net::FaultInjector> fault;
  if (!daemons::ParseFaultSpec("locofs_fmsd", fault_spec, &fault)) return 2;

  std::uint32_t sid = 0;
  const char* begin = sid_str.data();
  const char* end = begin + sid_str.size();
  if (auto [p, ec] = std::from_chars(begin, end, sid);
      ec != std::errc{} || p != end) {
    std::fprintf(stderr, "locofs_fmsd: bad --sid '%s'\n", sid_str.c_str());
    return 2;
  }

  core::FileMetadataServer::Options options;
  options.sid = sid;
  options.decoupled = decoupled;
  options.kv.dir = store_dir;
  if (fault) {
    options.kv_decorator = [&fault](std::unique_ptr<kv::Kv> inner) {
      return std::make_unique<kv::FaultyKv>(std::move(inner), fault.get());
    };
  }
  std::uint32_t node = sid;  // core::Connect numbers fms nodes by sid
  if (!node_str.empty()) {
    const char* nb = node_str.data();
    const char* ne = nb + node_str.size();
    if (auto [p, ec] = std::from_chars(nb, ne, node);
        ec != std::errc{} || p != ne) {
      std::fprintf(stderr, "locofs_fmsd: bad --node '%s'\n", node_str.c_str());
      return 2;
    }
  }

  core::GcManager::Options gc_options;
  gc_options.metrics_prefix = "gc";
  if (!daemons::ParseGcFlags("locofs_fmsd", gc_ops_str, gc_batch_str,
                             &gc_options)) {
    return 2;
  }

  core::FileMetadataServer server(options);
  // Declared after the server and the prober it captures, so the GC thread
  // stops (dtor) before either goes away.
  std::unique_ptr<daemons::GcUuidProber> dir_probe;
  core::GcManager gc(gc_options);
  if (gc_enabled) {
    const std::string& dms_spec = gc_dms.empty() ? announce : gc_dms;
    if (dms_spec.empty()) {
      std::fprintf(stderr,
                   "locofs_fmsd: --gc needs --gc-dms (or --announce) so the"
                   " orphan-file detector can probe directory liveness\n");
      return 2;
    }
    dir_probe = std::make_unique<daemons::GcUuidProber>(
        core::proto::kDmsCheckUuids, daemons::SplitEndpoints(dms_spec));
    if (!dir_probe->bad_spec().empty()) {
      std::fprintf(stderr, "locofs_fmsd: bad --gc-dms spec '%s'\n",
                   dir_probe->bad_spec().c_str());
      return 2;
    }
    server.SetGcManager(&gc);
    gc.AddTask("fms-housekeeping",
               [&server, probe = dir_probe.get()](std::uint32_t budget) {
                 return server.GcStep(
                     budget, [probe](const std::vector<fs::Uuid>& uuids) {
                       return (*probe)(uuids);
                     });
               });
  }

  net::DedupWindow dedup(core::proto::IdempotentReplayOps());
  net::TcpServer::Options server_options;
  server_options.fault = fault.get();
  server_options.dedup = &dedup;
  server_options.epoch = daemons::NextEpoch(store_dir);
  // A client's last connection dropping prunes its sessions right away
  // (crash containment); the TTL sweep in GcStep is the fallback.
  server_options.on_client_disconnect = [&server](std::uint64_t client) {
    server.DropClientSessions(client);
  };
  const std::uint64_t epoch = server_options.epoch;
  return daemons::RunDaemon(
      "locofs_fmsd", &server, listen, metrics_out, workers, server_options,
      [&](net::TcpServer& tcp) {
        if (!announce.empty()) {
          daemons::AnnounceToDms("locofs_fmsd", announce, node, epoch);
        }
        if (gc_enabled) {
          // Adaptive pacing: yield to foreground traffic when the admission
          // queue backs up (docs/OVERLOAD.md).
          gc.SetLoadSignal([&tcp] { return tcp.RecentQueueDelayNs(); });
          gc.Start();
        }
      },
      // The load signal samples the TcpServer; stop the GC thread while the
      // server is still alive.
      [&] { gc.Stop(); });
}
