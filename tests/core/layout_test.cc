#include "core/layout.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace loco::core {
namespace {

TEST(LayoutTest, DirInodeRoundTrip) {
  fs::Attr attr;
  attr.ctime = 100;
  attr.mode = 0711;
  attr.uid = 5;
  attr.gid = 6;
  attr.uuid = fs::Uuid::Make(3, 77);
  attr.mtime = 200;
  attr.atime = 300;
  const std::string v = DirInodeLayout::Make(attr);
  EXPECT_EQ(v.size(), DirInodeLayout::kSize);
  const fs::Attr out = DirInodeLayout::Parse(v);
  EXPECT_EQ(out.ctime, 100u);
  EXPECT_EQ(out.mode, 0711u);
  EXPECT_EQ(out.uid, 5u);
  EXPECT_EQ(out.gid, 6u);
  EXPECT_EQ(out.uuid, attr.uuid);
  EXPECT_EQ(out.mtime, 200u);
  EXPECT_EQ(out.atime, 300u);
  EXPECT_TRUE(out.is_dir);
}

TEST(LayoutTest, DirInodeFieldPatchAtFixedOffset) {
  fs::Attr attr;
  attr.mode = 0755;
  std::string v = DirInodeLayout::Make(attr);
  common::StoreAt<std::uint32_t>(&v, DirInodeLayout::kMode, 0700);
  EXPECT_EQ(DirInodeLayout::Parse(v).mode, 0700u);
}

TEST(LayoutTest, FilePartsRoundTrip) {
  const std::string access = AccessPartLayout::Make(11, 0640, 1000, 1001);
  const std::string content =
      ContentPartLayout::Make(22, 33, 4096, 512, fs::Uuid::Make(2, 9));
  EXPECT_EQ(access.size(), AccessPartLayout::kSize);
  EXPECT_EQ(content.size(), ContentPartLayout::kSize);
  const fs::Attr attr = ParseFileParts(access, content);
  EXPECT_EQ(attr.ctime, 11u);
  EXPECT_EQ(attr.mode, 0640u);
  EXPECT_EQ(attr.uid, 1000u);
  EXPECT_EQ(attr.gid, 1001u);
  EXPECT_EQ(attr.mtime, 22u);
  EXPECT_EQ(attr.atime, 33u);
  EXPECT_EQ(attr.size, 4096u);
  EXPECT_EQ(attr.block_size, 512u);
  EXPECT_EQ(attr.uuid, fs::Uuid::Make(2, 9));
  EXPECT_FALSE(attr.is_dir);
}

TEST(LayoutTest, FixedPartsAreSmall) {
  // The decoupled design rests on values being tens of bytes (§3.3.1).
  EXPECT_LE(AccessPartLayout::kSize, 32u);
  EXPECT_LE(ContentPartLayout::kSize, 48u);
  EXPECT_LE(DirInodeLayout::kSize, 64u);
}

TEST(LayoutTest, CoupledInodeRoundTrip) {
  CoupledInode inode;
  inode.attr.ctime = 1;
  inode.attr.mode = 0644;
  inode.attr.size = 8192;
  inode.attr.block_size = 4096;
  inode.attr.uuid = fs::Uuid::Make(4, 44);
  inode.name = "data.bin";
  inode.block_index = {7, 8};
  const std::string v = inode.Serialize();
  CoupledInode out;
  ASSERT_TRUE(CoupledInode::Deserialize(v, &out));
  EXPECT_EQ(out.attr.size, 8192u);
  EXPECT_EQ(out.name, "data.bin");
  EXPECT_EQ(out.block_index, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_FALSE(out.attr.is_dir);
}

TEST(LayoutTest, CoupledInodeRejectsTruncation) {
  CoupledInode inode;
  inode.name = "x";
  const std::string v = inode.Serialize();
  CoupledInode out;
  EXPECT_FALSE(CoupledInode::Deserialize(v.substr(0, v.size() - 1), &out));
  EXPECT_FALSE(CoupledInode::Deserialize(v + "extra", &out));
}

TEST(LayoutTest, CoupledValueLargerThanDecoupledParts) {
  // The Fig. 11 premise: the coupled value is strictly bigger than either
  // decoupled part, and grows with the block index.
  CoupledInode inode;
  inode.name = "some_file_name.dat";
  inode.block_index.assign(256, 42);
  EXPECT_GT(inode.Serialize().size(),
            AccessPartLayout::kSize + ContentPartLayout::kSize);
}

TEST(LayoutTest, FileKeyEmbedsUuidAndName) {
  const std::string key = FileKey(fs::Uuid::Make(1, 2), "file.txt");
  EXPECT_EQ(key.size(), 8u + 8u);
  EXPECT_EQ(common::LoadAt<std::uint64_t>(key, 0), fs::Uuid::Make(1, 2).raw());
  EXPECT_EQ(key.substr(8), "file.txt");
  EXPECT_EQ(DirentKey(fs::Uuid::Make(1, 2)), key.substr(0, 8));
}

// Dirent lists live in a KV store; these tests drive the same helpers the
// DMS and FMS use, over an in-memory hash store unless noted.
class DirentStore {
 public:
  explicit DirentStore(kv::KvBackend backend = kv::KvBackend::kHash,
                       const kv::KvOptions& options = {})
      : kv_(std::move(kv::MakeKv(backend, options)).value()) {}

  Status Add(std::string_view name) { return AppendDirent(kv_.get(), kDir, name); }
  Status Remove(std::string_view name) {
    return RemoveDirent(kv_.get(), kDir, name);
  }
  std::string Value() const {
    std::string v;
    (void)kv_->Get(DirentKey(kDir), &v);
    return v;
  }
  std::vector<std::string> List() const { return ParseDirentList(Value()); }
  bool Contains(std::string_view name) const {
    return DirentListContains(Value(), name);
  }
  bool HasKey() const { return kv_->Contains(DirentKey(kDir)); }
  kv::Kv& kv() { return *kv_; }

  static inline const fs::Uuid kDir = fs::Uuid::Make(1, 7);

 private:
  std::unique_ptr<kv::Kv> kv_;
};

// One raw record of the value format, for hand-built lists.
std::string Record(std::string_view name, bool tombstone = false) {
  std::string rec(4, '\0');
  common::StoreAt<std::uint32_t>(
      &rec, 0,
      static_cast<std::uint32_t>(name.size()) | (tombstone ? kDirentTombstone : 0));
  rec.append(name);
  return rec;
}

std::size_t Tombstones(std::string_view value) {
  std::size_t n = 0;
  common::Reader r(value);
  while (r.remaining() >= 4) {
    const std::uint32_t word = r.GetU32();
    if ((word & kDirentTombstone) != 0) ++n;
    r.GetRaw(word & ~kDirentTombstone);
  }
  return n;
}

TEST(LayoutTest, DirentListAppendRemove) {
  DirentStore list;
  ASSERT_TRUE(list.Add("aa").ok());
  ASSERT_TRUE(list.Add("b").ok());
  ASSERT_TRUE(list.Add("ccc").ok());
  EXPECT_EQ(list.List(), (std::vector<std::string>{"aa", "b", "ccc"}));
  EXPECT_TRUE(list.Contains("b"));
  EXPECT_FALSE(list.Contains("zz"));
  EXPECT_TRUE(list.Remove("b").ok());
  EXPECT_EQ(list.List(), (std::vector<std::string>{"aa", "ccc"}));
  EXPECT_EQ(list.Remove("b").code(), ErrCode::kNotFound);
  EXPECT_TRUE(list.Remove("aa").ok());
  EXPECT_TRUE(list.Remove("ccc").ok());
  EXPECT_FALSE(list.HasKey());  // no name left: the key is deleted
}

TEST(LayoutTest, DirentListDuplicateNamesRemoveOne) {
  DirentStore list;
  ASSERT_TRUE(list.Add("x").ok());
  ASSERT_TRUE(list.Add("x").ok());
  EXPECT_TRUE(list.Remove("x").ok());
  EXPECT_EQ(list.List(), (std::vector<std::string>{"x"}));
}

TEST(LayoutTest, EmptyDirentList) {
  DirentStore list;
  EXPECT_TRUE(ParseDirentList("").empty());
  EXPECT_FALSE(DirentListContains("", "a"));
  EXPECT_EQ(list.Remove("a").code(), ErrCode::kNotFound);
  EXPECT_FALSE(list.HasKey());
}

TEST(LayoutTest, DirentAddIsOneAppendWithoutARead) {
  DirentStore list;
  ASSERT_TRUE(list.Add("first").ok());  // creates the key
  ASSERT_TRUE(list.Add("second").ok());
  const kv::KvStats s = list.kv().stats();
  EXPECT_EQ(s.appends, 2u);
  EXPECT_EQ(s.gets, 0u);
  EXPECT_EQ(s.puts, 0u);
}

TEST(LayoutTest, RemoveAppendsTombstonesThenCompacts) {
  DirentStore list;
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(list.Add("n" + std::to_string(i)).ok());
  const kv::KvStats before = list.kv().stats();
  // 8 live: a tombstone is appended while dead records (2 per remove) do
  // not outnumber live ones.
  ASSERT_TRUE(list.Remove("n0").ok());
  ASSERT_TRUE(list.Remove("n1").ok());
  EXPECT_EQ(Tombstones(list.Value()), 2u);
  EXPECT_EQ((list.kv().stats() - before).appends, 2u);
  EXPECT_EQ((list.kv().stats() - before).puts, 0u);
  // The third remove would leave 6 dead against 5 live: compact instead.
  ASSERT_TRUE(list.Remove("n2").ok());
  EXPECT_EQ((list.kv().stats() - before).puts, 1u);
  EXPECT_EQ(Tombstones(list.Value()), 0u);
  std::string expect;
  for (int i = 3; i < 8; ++i) expect += Record("n" + std::to_string(i));
  EXPECT_EQ(list.Value(), expect);
}

TEST(LayoutTest, TombstoneCancelsFirstEarlierLiveOccurrence) {
  const std::string dup = Record("a") + Record("x") + Record("b") + Record("x") +
                          Record("x", true);
  EXPECT_EQ(ParseDirentList(dup), (std::vector<std::string>{"a", "b", "x"}));
  EXPECT_TRUE(DirentListContains(dup, "x"));
  // A tombstone never cancels a later add.
  const std::string readd = Record("x") + Record("x", true) + Record("x");
  EXPECT_EQ(ParseDirentList(readd), (std::vector<std::string>{"x"}));
  const std::string early = Record("x", true) + Record("x");
  EXPECT_EQ(ParseDirentList(early), (std::vector<std::string>{"x"}));
  const std::string gone = Record("x") + Record("y") + Record("x", true);
  EXPECT_EQ(ParseDirentList(gone), (std::vector<std::string>{"y"}));
  EXPECT_FALSE(DirentListContains(gone, "x"));
}

TEST(LayoutTest, TombstoneFreeListParsesAsBefore) {
  // A list written as plain length-prefixed names (every store written
  // before tombstones existed) parses unchanged; a torn tail is ignored.
  common::Writer w;
  w.PutBytes("alpha");
  w.PutBytes("");
  w.PutBytes("gamma");
  const std::string value = w.Take();
  EXPECT_EQ(ParseDirentList(value),
            (std::vector<std::string>{"alpha", "", "gamma"}));
  EXPECT_EQ(ParseDirentList(value + std::string("\x09\0\0", 3)),
            (std::vector<std::string>{"alpha", "", "gamma"}));
}

// Reference model: the dirent list as a vector with erase-first removal.
struct ListModel {
  std::vector<std::string> names;
  void Add(const std::string& n) { names.push_back(n); }
  bool Remove(const std::string& n) {
    const auto it = std::find(names.begin(), names.end(), n);
    if (it == names.end()) return false;
    names.erase(it);
    return true;
  }
  bool Contains(const std::string& n) const {
    return std::find(names.begin(), names.end(), n) != names.end();
  }
};

TEST(LayoutTest, DirentOpsMatchEraseFirstModel) {
  for (const kv::KvBackend backend : {kv::KvBackend::kHash, kv::KvBackend::kBTree}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("backend " + std::string(kv::KvBackendName(backend)) +
                   " seed " + std::to_string(seed));
      DirentStore list(backend);
      ListModel model;
      common::Rng rng(seed);
      // A small pool so duplicates, removes of absent names and re-adds of
      // removed ones are all frequent; the list grows and drains in phases.
      const std::size_t pool = rng.Range(2, 24);
      for (int step = 0; step < 600; ++step) {
        const std::string name = "f" + std::to_string(rng.Uniform(pool));
        const bool growing = (step / 150) % 2 == 0;
        if (rng.Chance(growing ? 0.65 : 0.3)) {
          ASSERT_TRUE(list.Add(name).ok());
          model.Add(name);
        } else {
          const Status s = list.Remove(name);
          ASSERT_EQ(s.ok(), model.Remove(name)) << step << " " << name;
          if (!s.ok()) {
            ASSERT_EQ(s.code(), ErrCode::kNotFound);
          }
        }
        ASSERT_EQ(list.List(), model.names) << "step " << step;
        ASSERT_EQ(list.HasKey(), !model.names.empty()) << "step " << step;
        ASSERT_EQ(list.Contains(name), model.Contains(name)) << "step " << step;
        // Compaction keeps dead records from outnumbering live ones.
        ASSERT_LE(2 * Tombstones(list.Value()), model.names.size() + 1)
            << "step " << step;
      }
    }
  }
}

// Crash prefixes: every dirent update is one WAL record, so a crash leaves
// the log cut at a record boundary (or mid-record, a torn tail replay
// drops).  Replaying any prefix must recover the list as it stood after
// that many updates — through appends, tombstones, a compaction and the
// final delete.
TEST(DirentCrashTest, EveryWalPrefixRecoversTheModelList) {
  namespace stdfs = std::filesystem;
  const stdfs::path root = stdfs::temp_directory_path() /
                           ("dirent_crash_" + std::to_string(::getpid()));
  stdfs::remove_all(root);
  stdfs::create_directories(root / "live");
  kv::KvOptions live_opt;
  live_opt.dir = (root / "live").string();
  const stdfs::path wal = root / "live" / "hashkv.wal";

  std::vector<std::uintmax_t> boundaries{0};
  std::vector<std::vector<std::string>> lists{{}};
  {
    DirentStore list(kv::KvBackend::kHash, live_opt);
    ListModel model;
    auto step = [&](bool add, const std::string& name) {
      if (add) {
        ASSERT_TRUE(list.Add(name).ok());
        model.Add(name);
      } else {
        ASSERT_TRUE(list.Remove(name).ok());
        ASSERT_TRUE(model.Remove(name));
      }
      boundaries.push_back(stdfs::file_size(wal));
      lists.push_back(model.names);
    };
    for (const char* n : {"a", "b", "c", "d", "e", "f"}) step(true, n);
    step(false, "b");  // tombstone
    step(true, "b");   // re-add after a tombstone
    step(false, "a");  // tombstone
    step(false, "c");  // compaction Put
    step(true, "g");
    for (const char* n : {"d", "e", "f", "b", "g"}) step(false, n);  // ... Delete
    ASSERT_FALSE(list.HasKey());
  }
  ASSERT_EQ(boundaries.size(), lists.size());
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    ASSERT_LT(boundaries[i - 1], boundaries[i]) << "one WAL record per update";
  }

  std::string log;
  {
    std::ifstream in(wal, std::ios::binary);
    log.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto recover = [&](std::size_t cut) {
    const stdfs::path dir = root / "crash";
    stdfs::remove_all(dir);
    stdfs::create_directories(dir);
    std::ofstream(dir / "hashkv.wal", std::ios::binary)
        .write(log.data(), static_cast<std::streamsize>(cut));
    kv::KvOptions opt;
    opt.dir = dir.string();
    DirentStore reopened(kv::KvBackend::kHash, opt);
    return reopened.List();
  };
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    EXPECT_EQ(recover(boundaries[i]), lists[i]) << "prefix of " << i << " updates";
    if (i + 1 < boundaries.size()) {
      // Torn: half of the next record made it to disk.
      const std::size_t torn = (boundaries[i] + boundaries[i + 1]) / 2;
      EXPECT_EQ(recover(torn), lists[i]) << "torn after " << i << " updates";
    }
  }
  stdfs::remove_all(root);
}

}  // namespace
}  // namespace loco::core
