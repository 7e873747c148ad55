// Object store daemon.
//
//   locofs_osd [--listen host:port] [--block-bytes N] [--no-retain]
//              [--workers N] [--store-dir dir] [--fault-spec spec]
//              [--announce host:port] [--node N]
//              [--metrics-out file.json]
//
// --announce points at the DMS: once serving, the daemon reports its node id
// (--node; default 1000, core::Connect's first-osd id) and fresh epoch so
// the DMS can gossip the restart to clients, which reset this node's circuit
// breaker immediately.
//
// --gc starts the background housekeeping thread (docs/HOUSEKEEPING.md):
// incremental detection/reclaim of leaked objects (invariant I9).  The
// detector asks every FMS whether each object uuid is still referenced by
// some inode; point --gc-fms at the comma-separated FMS list.  --gc-ops
// caps the scan rate, --gc-batch sizes one step.
//
// --no-retain accounts block payloads without storing them (reads return
// zeros); use it for metadata-only benchmarks that push a lot of data.
// --workers sizes the request dispatch pool (default: hardware concurrency;
// 0 serves inline).  ObjectStoreServer is thread-safe (striped block table,
// per-object locks), so it runs bare behind the pool.  --store-dir persists
// the block table across restarts; --fault-spec arms the deterministic
// fault plane (grammar in net/fault.h).
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/object_store.h"
#include "core/proto.h"
#include "daemon_main.h"
#include "net/dedup.h"

int main(int argc, char** argv) {
  using namespace loco;

  std::string listen = "127.0.0.1:0";
  std::string block_str;
  std::string metrics_out;
  std::string workers_str;
  std::string store_dir;
  std::string fault_spec;
  std::string announce;
  std::string node_str;
  std::string gc_ops_str;
  std::string gc_batch_str;
  std::string gc_fms;
  bool gc_enabled = false;
  bool retain = true;
  for (int i = 1; i < argc; ++i) {
    if (daemons::FlagValue(argc, argv, &i, "--listen", &listen)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--block-bytes", &block_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--metrics-out", &metrics_out)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--workers", &workers_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--store-dir", &store_dir)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--fault-spec", &fault_spec)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--announce", &announce)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--node", &node_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--gc-ops", &gc_ops_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--gc-batch", &gc_batch_str)) continue;
    if (daemons::FlagValue(argc, argv, &i, "--gc-fms", &gc_fms)) continue;
    if (std::strcmp(argv[i], "--gc") == 0) {
      gc_enabled = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-retain") == 0) {
      retain = false;
      continue;
    }
    std::fprintf(stderr,
                 "locofs_osd: unknown argument '%s'\n"
                 "usage: locofs_osd [--listen host:port] [--block-bytes N]"
                 " [--no-retain] [--workers N] [--store-dir dir]"
                 " [--fault-spec spec] [--announce host:port] [--node N]"
                 " [--gc] [--gc-ops RATE] [--gc-batch N]"
                 " [--gc-fms host:port[,host:port...]]"
                 " [--metrics-out file.json]\n",
                 argv[i]);
    return 2;
  }

  int workers = 0;
  if (!daemons::ParseWorkers("locofs_osd", workers_str, &workers)) return 2;
  std::unique_ptr<net::FaultInjector> fault;
  if (!daemons::ParseFaultSpec("locofs_osd", fault_spec, &fault)) return 2;

  core::ObjectStoreServer::Options options;
  options.retain_data = retain;
  options.kv.dir = store_dir;
  if (!block_str.empty()) {
    std::size_t block_bytes = 0;
    const char* begin = block_str.data();
    const char* end = begin + block_str.size();
    if (auto [p, ec] = std::from_chars(begin, end, block_bytes);
        ec != std::errc{} || p != end || block_bytes == 0) {
      std::fprintf(stderr, "locofs_osd: bad --block-bytes '%s'\n",
                   block_str.c_str());
      return 2;
    }
    options.block_bytes = block_bytes;
  }

  std::uint32_t node = 1000;  // core::Connect numbers osd nodes from 1000
  if (!node_str.empty()) {
    const char* nb = node_str.data();
    const char* ne = nb + node_str.size();
    if (auto [p, ec] = std::from_chars(nb, ne, node);
        ec != std::errc{} || p != ne) {
      std::fprintf(stderr, "locofs_osd: bad --node '%s'\n", node_str.c_str());
      return 2;
    }
  }

  core::GcManager::Options gc_options;
  gc_options.metrics_prefix = "gc";
  if (!daemons::ParseGcFlags("locofs_osd", gc_ops_str, gc_batch_str,
                             &gc_options)) {
    return 2;
  }

  core::ObjectStoreServer server(options);
  // Declared after the server and the prober it captures, so the GC thread
  // stops (dtor) before either goes away.
  std::unique_ptr<daemons::GcUuidProber> file_probe;
  core::GcManager gc(gc_options);
  if (gc_enabled) {
    if (gc_fms.empty()) {
      std::fprintf(stderr,
                   "locofs_osd: --gc needs --gc-fms so the leaked-object"
                   " detector can probe file-inode liveness\n");
      return 2;
    }
    file_probe = std::make_unique<daemons::GcUuidProber>(
        core::proto::kFmsCheckUuids, daemons::SplitEndpoints(gc_fms));
    if (!file_probe->bad_spec().empty()) {
      std::fprintf(stderr, "locofs_osd: bad --gc-fms spec '%s'\n",
                   file_probe->bad_spec().c_str());
      return 2;
    }
    server.SetGcManager(&gc);
    gc.AddTask("osd-housekeeping",
               [&server, probe = file_probe.get()](std::uint32_t budget) {
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
  const std::uint64_t epoch = server_options.epoch;
  return daemons::RunDaemon(
      "locofs_osd", &server, listen, metrics_out, workers, server_options,
      [&](net::TcpServer& tcp) {
        if (!announce.empty()) {
          daemons::AnnounceToDms("locofs_osd", announce, node, epoch);
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
