// Parameterized conformance suite: every Kv backend must satisfy the same
// observable contract (the metadata services are written against the Kv
// interface and may be configured with any backend).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "kvstore/kv.h"
#include "kvstore/striped_kv.h"

namespace loco::kv {
namespace {

class KvConformanceTest : public ::testing::TestWithParam<KvBackend> {
 protected:
  void SetUp() override {
    auto made = MakeKv(GetParam());
    ASSERT_TRUE(made.ok());
    kv_ = std::move(made).value();
  }
  std::unique_ptr<Kv> kv_;
};

TEST_P(KvConformanceTest, GetMissingIsNotFound) {
  std::string v;
  EXPECT_EQ(kv_->Get("missing", &v).code(), ErrCode::kNotFound);
  EXPECT_FALSE(kv_->Contains("missing"));
}

TEST_P(KvConformanceTest, PutThenGet) {
  ASSERT_TRUE(kv_->Put("key", "value").ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("key", &v).ok());
  EXPECT_EQ(v, "value");
  EXPECT_TRUE(kv_->Contains("key"));
  EXPECT_EQ(kv_->Size(), 1u);
}

TEST_P(KvConformanceTest, OverwriteReplaces) {
  ASSERT_TRUE(kv_->Put("key", "v1").ok());
  ASSERT_TRUE(kv_->Put("key", "v2-longer").ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("key", &v).ok());
  EXPECT_EQ(v, "v2-longer");
  EXPECT_EQ(kv_->Size(), 1u);
}

TEST_P(KvConformanceTest, DeleteRemoves) {
  ASSERT_TRUE(kv_->Put("key", "v").ok());
  ASSERT_TRUE(kv_->Delete("key").ok());
  EXPECT_EQ(kv_->Size(), 0u);
  EXPECT_EQ(kv_->Delete("key").code(), ErrCode::kNotFound);
}

TEST_P(KvConformanceTest, BinaryKeysAndValues) {
  const std::string key("\x00\xff\x01with\x00nul", 11);
  const std::string val("\xde\xad\xbe\xef\x00", 5);
  ASSERT_TRUE(kv_->Put(key, val).ok());
  std::string v;
  ASSERT_TRUE(kv_->Get(key, &v).ok());
  EXPECT_EQ(v, val);
}

TEST_P(KvConformanceTest, LargeValueRoundTrip) {
  const std::string big(1 << 20, 'Z');
  ASSERT_TRUE(kv_->Put("big", big).ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("big", &v).ok());
  EXPECT_EQ(v, big);
}

TEST_P(KvConformanceTest, PatchValueSemantics) {
  ASSERT_TRUE(kv_->Put("k", "0123456789").ok());
  ASSERT_TRUE(kv_->PatchValue("k", 2, "ab").ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("k", &v).ok());
  EXPECT_EQ(v, "01ab456789");
  EXPECT_EQ(kv_->PatchValue("k", 9, "xy").code(), ErrCode::kInvalid);
  EXPECT_EQ(kv_->PatchValue("absent", 0, "x").code(), ErrCode::kNotFound);
}

TEST_P(KvConformanceTest, ReadValueAtSemantics) {
  ASSERT_TRUE(kv_->Put("k", "0123456789").ok());
  std::string out;
  ASSERT_TRUE(kv_->ReadValueAt("k", 3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  EXPECT_EQ(kv_->ReadValueAt("k", 8, 4, &out).code(), ErrCode::kInvalid);
  EXPECT_EQ(kv_->ReadValueAt("absent", 0, 1, &out).code(), ErrCode::kNotFound);
}

TEST_P(KvConformanceTest, ScanPrefixFindsAllMatches) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv_->Put("match/" + std::to_string(i), "m").ok());
    ASSERT_TRUE(kv_->Put("other/" + std::to_string(i), "o").ok());
  }
  std::vector<Entry> out;
  ASSERT_TRUE(kv_->ScanPrefix("match/", 0, &out).ok());
  EXPECT_EQ(out.size(), 30u);
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k.substr(0, 6), "match/");
    EXPECT_EQ(v, "m");
  }
  out.clear();
  ASSERT_TRUE(kv_->ScanPrefix("match/", 7, &out).ok());
  EXPECT_EQ(out.size(), 7u);
}

TEST_P(KvConformanceTest, ForEachVisitsEverything) {
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(kv_->Put(std::to_string(i), "v").ok());
  std::size_t n = 0;
  kv_->ForEach([&](std::string_view, std::string_view) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 50u);
}

TEST_P(KvConformanceTest, RandomizedModelCheck) {
  std::map<std::string, std::string> model;
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 777);
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(250));
    if (rng.Chance(0.6)) {
      const std::string val = rng.Name(rng.Range(1, 64));
      ASSERT_TRUE(kv_->Put(key, val).ok());
      model[key] = val;
    } else if (rng.Chance(0.5)) {
      EXPECT_EQ(kv_->Delete(key).ok(), model.erase(key) > 0);
    } else {
      std::string v;
      const auto it = model.find(key);
      const Status s = kv_->Get(key, &v);
      if (it == model.end()) {
        EXPECT_EQ(s.code(), ErrCode::kNotFound);
      } else {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(v, it->second);
      }
    }
  }
  EXPECT_EQ(kv_->Size(), model.size());
}

TEST_P(KvConformanceTest, StatsAreMonotone) {
  ASSERT_TRUE(kv_->Put("a", "1").ok());
  std::string v;
  (void)kv_->Get("a", &v);
  const KvStats snap = kv_->stats();
  ASSERT_TRUE(kv_->Put("b", "2").ok());
  (void)kv_->Get("b", &v);
  const KvStats d = kv_->stats() - snap;
  EXPECT_EQ(d.puts, 1u);
  EXPECT_EQ(d.gets, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KvConformanceTest,
                         ::testing::Values(KvBackend::kHash, KvBackend::kBTree,
                                           KvBackend::kLsm),
                         [](const ::testing::TestParamInfo<KvBackend>& info) {
                           return std::string(KvBackendName(info.param));
                         });

// Kv::Append across every store kind, in memory and across a reopen.  Hash
// and btree append in place and log one append record; striped forwards to
// its stripe; lsm takes the base Get+Put default.
struct AppendStore {
  const char* name;
  std::function<Result<std::unique_ptr<Kv>>(const KvOptions&)> make;
  const char* wal;  // the log holding the test key, relative to options.dir
};

class KvAppendTest : public ::testing::TestWithParam<AppendStore> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kvappend_" + std::to_string(::getpid()) + "_" + GetParam().name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Kv> Open(bool persistent) {
    KvOptions options;
    if (persistent) options.dir = dir_.string();
    auto made = GetParam().make(options);
    EXPECT_TRUE(made.ok());
    return std::move(made).value();
  }

  std::filesystem::path dir_;
};

TEST_P(KvAppendTest, MissingKeyIsCreatedHoldingTheSuffix) {
  auto kv = Open(false);
  ASSERT_TRUE(kv->Append("k", "abc").ok());
  std::string v;
  ASSERT_TRUE(kv->Get("k", &v).ok());
  EXPECT_EQ(v, "abc");
  EXPECT_EQ(kv->Size(), 1u);
  ASSERT_TRUE(kv->Append("empty", "").ok());
  ASSERT_TRUE(kv->Get("empty", &v).ok());
  EXPECT_EQ(v, "");
}

TEST_P(KvAppendTest, AppendExtendsTheStoredValue) {
  auto kv = Open(false);
  ASSERT_TRUE(kv->Put("k", "head").ok());
  const KvStats before = kv->stats();
  ASSERT_TRUE(kv->Append("k", "-tail").ok());
  ASSERT_TRUE(kv->Append("k", std::string("\0\xff", 2)).ok());
  std::string v;
  ASSERT_TRUE(kv->Get("k", &v).ok());
  EXPECT_EQ(v, std::string("head-tail\0\xff", 11));
  EXPECT_EQ((kv->stats() - before).appends, 2u);
  EXPECT_EQ(kv->Size(), 1u);
}

TEST_P(KvAppendTest, AppendsReplayAfterReopen) {
  {
    auto kv = Open(true);
    ASSERT_TRUE(kv->Append("a", "1").ok());  // creates
    ASSERT_TRUE(kv->Append("a", "23").ok());
    ASSERT_TRUE(kv->Put("b", "x").ok());
    ASSERT_TRUE(kv->Append("b", "y").ok());
    ASSERT_TRUE(kv->Delete("b").ok());
    ASSERT_TRUE(kv->Append("b", "z").ok());  // re-created after the delete
  }
  auto kv = Open(true);
  std::string v;
  ASSERT_TRUE(kv->Get("a", &v).ok());
  EXPECT_EQ(v, "123");
  ASSERT_TRUE(kv->Get("b", &v).ok());
  EXPECT_EQ(v, "z");
  EXPECT_EQ(kv->Size(), 2u);
}

TEST_P(KvAppendTest, TornLastRecordDropsOnlyThatAppend) {
  {
    auto kv = Open(true);
    ASSERT_TRUE(kv->Put("k", "base").ok());
    ASSERT_TRUE(kv->Append("k", "+one").ok());
    ASSERT_TRUE(kv->Append("k", "+two").ok());
  }
  const std::filesystem::path wal = dir_ / GetParam().wal;
  ASSERT_TRUE(std::filesystem::exists(wal));
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 1);
  auto kv = Open(true);
  std::string v;
  ASSERT_TRUE(kv->Get("k", &v).ok());
  EXPECT_EQ(v, "base+one");
  // The store keeps appending after the torn tail was dropped.
  ASSERT_TRUE(kv->Append("k", "+three").ok());
  ASSERT_TRUE(kv->Get("k", &v).ok());
  EXPECT_EQ(v, "base+one+three");
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, KvAppendTest,
    ::testing::Values(
        AppendStore{"hash",
                    [](const KvOptions& o) { return MakeKv(KvBackend::kHash, o); },
                    "hashkv.wal"},
        AppendStore{"btree",
                    [](const KvOptions& o) { return MakeKv(KvBackend::kBTree, o); },
                    "btreekv.wal"},
        AppendStore{"lsm",
                    [](const KvOptions& o) { return MakeKv(KvBackend::kLsm, o); },
                    "lsmkv.wal"},
        AppendStore{"striped",
                    [](const KvOptions& o) {
                      return MakeStripedKv(KvBackend::kHash, o, 1);
                    },
                    "stripe0/hashkv.wal"}),
    [](const ::testing::TestParamInfo<AppendStore>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace loco::kv
