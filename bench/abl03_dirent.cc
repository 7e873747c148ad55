// Ablation: the concatenated dirent-list value (§3.2.1).
//
// LocoFS stores all dirents of one directory (per server) as a single
// concatenated KV value.  We update it by appending (core/layout.h): a
// create appends one name record, so its cost stays flat as the directory
// grows, while a readdir still parses the whole value and grows linearly.
// This bench measures both against directory size; with N FMS servers each
// holds only ~1/N of a directory's file dirents.
#include <cstdio>
#include <string>

#include "benchlib/deploy.h"
#include "benchlib/table.h"
#include "common/clock.h"
#include "core/fms.h"
#include "core/proto.h"
#include "fs/wire.h"

int main(int argc, char** argv) {
  loco::bench::MetricsDump metrics_dump(argc, argv);
  using namespace loco;
  using bench::Table;

  bench::PrintBanner("Ablation: concatenated dirent values",
                     "per-create cost vs entries already in the directory "
                     "(single FMS = worst case; /N with N FMS shards)");

  const fs::Identity who{1000, 1000};
  const fs::Uuid dir = fs::Uuid::Make(0xfffe, 5);

  core::FileMetadataServer::Options options;
  options.sid = 1;
  core::FileMetadataServer fms(options);

  Table table({"existing entries", "per-create", "per-readdir"});
  int created = 0;
  for (int target : {1'000, 10'000, 50'000, 100'000}) {
    // Fill up to `target`, then measure a batch of creates and readdirs.
    while (created < target) {
      auto resp = fms.Handle(
          core::proto::kFmsCreate,
          fs::Pack(dir, "f" + std::to_string(created), 0644u, who,
                   std::uint64_t{1}));
      if (!resp.ok()) return 1;
      ++created;
    }
    constexpr int kProbe = 200;
    common::CpuTimer create_timer;
    for (int i = 0; i < kProbe; ++i) {
      (void)fms.Handle(core::proto::kFmsCreate,
                       fs::Pack(dir, "probe" + std::to_string(target) + "_" +
                                         std::to_string(i),
                                0644u, who, std::uint64_t{1}));
    }
    const double create_ns =
        static_cast<double>(create_timer.ElapsedNanos()) / kProbe;
    created += kProbe;

    common::CpuTimer readdir_timer;
    for (int i = 0; i < 5; ++i) {
      (void)fms.Handle(core::proto::kFmsReaddir, fs::Pack(dir));
    }
    const double readdir_ns =
        static_cast<double>(readdir_timer.ElapsedNanos()) / 5;

    table.AddRow({std::to_string(target), Table::Micros(create_ns),
                  Table::Micros(readdir_ns)});
  }
  table.Print();
  std::printf(
      "\nA create appends one record to the concatenated value, so its cost\n"
      "does not grow with directory size; a readdir parses the whole value\n"
      "and does.  With N FMS servers each shard holds ~1/N of the entries.\n");
  return 0;
}
