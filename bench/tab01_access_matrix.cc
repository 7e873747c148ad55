// Table 1: which metadata region each operation touches.
//
// The matrix is measured, not transcribed: a LocoFS deployment runs each
// operation while per-store KV counters record touches to the directory
// inode store, the file access part, the file content part, and the dirent
// lists.  Compare with the paper's Table 1 (§3.3).
#include <cstdio>

#include "bench_common.h"
#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "net/inproc.h"
#include "net/task.h"

namespace loco::bench {
namespace {

namespace fs = loco::fs;
namespace core = loco::core;
namespace net = loco::net;
namespace kv = loco::kv;

struct Stack {
  Stack() {
    transport.Register(0, &dms);
    core::LocoClient::Config cfg;
    cfg.dms = {0};
    core::FileMetadataServer::Options fo;
    fo.sid = 1;
    fms = std::make_unique<core::FileMetadataServer>(fo);
    transport.Register(1, fms.get());
    cfg.fms = {1};
    obj = std::make_unique<core::ObjectStoreServer>();
    transport.Register(2, obj.get());
    cfg.object_stores = {2};
    cfg.cache_enabled = false;  // every op shows its full server footprint
    cfg.now = [this] { return clock++; };
    client = std::make_unique<core::LocoClient>(transport, cfg);
  }

  struct Touches {
    bool dir = false;
    bool access = false;
    bool content = false;
    bool entry = false;
  };

  template <typename Fn>
  Touches Run(Fn&& fn) {
    const kv::KvStats dir0 = dms.dir_kv().stats();
    const kv::KvStats de0 = dms.dirent_kv().stats();
    const kv::KvStats a0 = fms->access_kv()->stats();
    const kv::KvStats c0 = fms->content_kv()->stats();
    const kv::KvStats fe0 = fms->dirent_kv().stats();
    fn(*client);
    auto touched = [](const kv::KvStats& now, const kv::KvStats& then) {
      const kv::KvStats d = now - then;
      return d.gets + d.puts + d.deletes + d.patches + d.appends + d.scans > 0;
    };
    Touches t;
    t.dir = touched(dms.dir_kv().stats(), dir0);
    t.access = touched(fms->access_kv()->stats(), a0);
    t.content = touched(fms->content_kv()->stats(), c0);
    t.entry = touched(dms.dirent_kv().stats(), de0) ||
              touched(fms->dirent_kv().stats(), fe0);
    return t;
  }

  std::uint64_t clock = 1;
  net::InProcTransport transport;
  core::DirectoryMetadataServer dms;
  std::unique_ptr<core::FileMetadataServer> fms;
  std::unique_ptr<core::ObjectStoreServer> obj;
  std::unique_ptr<core::LocoClient> client;
};

const char* Mark(bool b) { return b ? "*" : ""; }

}  // namespace
}  // namespace loco::bench

int main(int argc, char** argv) {
  loco::bench::MetricsDump metrics_dump(argc, argv);
  using namespace loco::bench;
  PrintBanner("Table 1: metadata regions touched per operation",
              "measured from per-store KV counters on a LocoFS deployment "
              "(client cache off); '*' = touched");

  Stack stack;
  Table table({"operation", "Dir", "Access", "Content", "Entry"});
  auto row = [&](const char* name, Stack::Touches t) {
    table.AddRow({name, Mark(t.dir), Mark(t.access), Mark(t.content),
                  Mark(t.entry)});
  };

  row("mkdir", stack.Run([](auto& c) { (void)net::RunInline(c.Mkdir("/dir", 0755)); }));
  row("create", stack.Run([](auto& c) { (void)net::RunInline(c.Create("/dir/f", 0644)); }));
  row("open", stack.Run([](auto& c) { (void)net::RunInline(c.Open("/dir/f")); }));
  row("getattr", stack.Run([](auto& c) { (void)net::RunInline(c.Stat("/dir/f")); }));
  row("chmod", stack.Run([](auto& c) { (void)net::RunInline(c.Chmod("/dir/f", 0600)); }));
  row("chown", stack.Run([](auto& c) {
    (void)net::RunInline(c.Chown("/dir/f", c.identity().uid, 99));
  }));
  row("write", stack.Run([](auto& c) {
    (void)net::RunInline(c.Write("/dir/f", 0, "data"));
  }));
  row("read", stack.Run([](auto& c) { (void)net::RunInline(c.Read("/dir/f", 0, 4)); }));
  row("truncate", stack.Run([](auto& c) { (void)net::RunInline(c.Truncate("/dir/f", 1)); }));
  row("readdir", stack.Run([](auto& c) { (void)net::RunInline(c.Readdir("/dir")); }));
  row("remove", stack.Run([](auto& c) { (void)net::RunInline(c.Unlink("/dir/f")); }));
  row("rmdir", stack.Run([](auto& c) { (void)net::RunInline(c.Rmdir("/dir")); }));

  table.Print();
  std::printf(
      "\nNotes vs the paper's Table 1: the client cache is disabled here, so\n"
      "file ops also show their parent lookup in the Dir column; create\n"
      "initializes both inode parts.\n");
  return 0;
}
