// kv::FaultyKv — the fault-plane KV decorator (docs/FAULTS.md).  Writes
// (Put, PatchValue, Append) fail per the injector's kv_put_fail= /
// kv_fail_after= knobs with kIo; reads, deletes and scans always pass
// through to the wrapped store.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kvstore/faulty_kv.h"
#include "kvstore/kv.h"
#include "net/fault.h"

namespace loco::kv {
namespace {

std::unique_ptr<FaultyKv> MakeFaulty(const char* spec_text,
                                     std::unique_ptr<net::FaultInjector>* out) {
  auto spec = net::FaultSpec::Parse(spec_text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  *out = std::make_unique<net::FaultInjector>(*spec);
  auto inner = MakeKv(KvBackend::kHash);
  EXPECT_TRUE(inner.ok());
  return std::make_unique<FaultyKv>(std::move(*inner), out->get());
}

TEST(FaultyKvTest, CertainPutFailureLeavesStoreUntouched) {
  std::unique_ptr<net::FaultInjector> injector;
  auto kv = MakeFaulty("kv_put_fail=1,seed=3", &injector);

  const Status put = kv->Put("k", "v");
  EXPECT_EQ(put.code(), ErrCode::kIo);
  EXPECT_FALSE(kv->Contains("k"));
  EXPECT_EQ(kv->Size(), 0u);
  EXPECT_EQ(kv->inner()->Size(), 0u);
}

TEST(FaultyKvTest, ReadsDeletesAndScansPassThrough) {
  std::unique_ptr<net::FaultInjector> injector;
  auto kv = MakeFaulty("kv_put_fail=1,seed=3", &injector);

  // Seed the inner store directly, below the fault plane.
  ASSERT_TRUE(kv->inner()->Put("a", "1").ok());
  ASSERT_TRUE(kv->inner()->Put("b", "2").ok());

  std::string value;
  ASSERT_TRUE(kv->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  EXPECT_TRUE(kv->Contains("b"));

  std::vector<Entry> entries;
  ASSERT_TRUE(kv->ScanPrefix("", 0, &entries).ok());
  EXPECT_EQ(entries.size(), 2u);

  std::size_t visited = 0;
  kv->ForEach([&](std::string_view, std::string_view) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 2u);

  EXPECT_TRUE(kv->Delete("a").ok());
  EXPECT_EQ(kv->Size(), 1u);
}

TEST(FaultyKvTest, PatchValueObeysFaultPlane) {
  std::unique_ptr<net::FaultInjector> injector;
  auto kv = MakeFaulty("kv_put_fail=1,seed=3", &injector);
  ASSERT_TRUE(kv->inner()->Put("k", "0123456789").ok());

  EXPECT_EQ(kv->PatchValue("k", 2, "XX").code(), ErrCode::kIo);
  std::string value;
  ASSERT_TRUE(kv->Get("k", &value).ok());
  EXPECT_EQ(value, "0123456789");  // patch never reached the store

  EXPECT_TRUE(kv->ReadValueAt("k", 2, 3, &value).ok());
  EXPECT_EQ(value, "234");
}

TEST(FaultyKvTest, AppendObeysFaultPlane) {
  std::unique_ptr<net::FaultInjector> injector;
  auto kv = MakeFaulty("kv_put_fail=1,seed=3", &injector);
  ASSERT_TRUE(kv->inner()->Put("k", "abc").ok());

  EXPECT_EQ(kv->Append("k", "def").code(), ErrCode::kIo);
  EXPECT_EQ(kv->Append("new", "x").code(), ErrCode::kIo);
  std::string value;
  ASSERT_TRUE(kv->Get("k", &value).ok());
  EXPECT_EQ(value, "abc");  // append never reached the store
  EXPECT_FALSE(kv->Contains("new"));
  EXPECT_EQ(kv->inner()->stats().appends, 0u);
}

TEST(FaultyKvTest, AppendsCountTowardFailAfter) {
  std::unique_ptr<net::FaultInjector> injector;
  auto kv = MakeFaulty("kv_fail_after=2,seed=3", &injector);
  EXPECT_TRUE(kv->Put("inode", "i").ok());
  EXPECT_TRUE(kv->Append("dirent", "a").ok());
  EXPECT_EQ(kv->Append("dirent", "b").code(), ErrCode::kIo);
  std::string value;
  ASSERT_TRUE(kv->Get("dirent", &value).ok());
  EXPECT_EQ(value, "a");
}

TEST(FaultyKvTest, FailAfterTearsMultiKeySequence) {
  std::unique_ptr<net::FaultInjector> injector;
  auto kv = MakeFaulty("kv_fail_after=2,seed=3", &injector);

  // A 3-key "transaction" in fixed order: the first two keys land, the third
  // fails — the torn state loco_fsck exists to repair.
  EXPECT_TRUE(kv->Put("content", "c").ok());
  EXPECT_TRUE(kv->Put("access", "a").ok());
  EXPECT_EQ(kv->Put("dirent", "d").code(), ErrCode::kIo);

  EXPECT_TRUE(kv->Contains("content"));
  EXPECT_TRUE(kv->Contains("access"));
  EXPECT_FALSE(kv->Contains("dirent"));

  // The failure latches: nothing writes ever again.
  EXPECT_EQ(kv->Put("later", "x").code(), ErrCode::kIo);
}

TEST(FaultyKvTest, InertSpecPassesWritesThrough) {
  std::unique_ptr<net::FaultInjector> injector;
  auto kv = MakeFaulty("seed=9", &injector);
  EXPECT_TRUE(kv->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(kv->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
}

}  // namespace
}  // namespace loco::kv
