// Unit tests of the benchmark's own code: the self-time and percentile
// arithmetic, generator determinism, and the faithfulness of the timing
// decorators (a decorated DMS+FMS answers byte-for-byte like a plain one).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/proto.h"
#include "analyze.h"
#include "core/shard.h"
#include "decorators.h"
#include "net/task.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace livebench {
namespace {

using loco::net::RunInline;

TEST(SelfTime, NoChildrenIsWholeSpan) {
  EXPECT_EQ(SelfTime({100, 250}, {}), 150);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {50, 70}}), 70);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,40) and [30,60) overlap on [30,40): covered = 50.
  EXPECT_EQ(SelfTime({0, 100}, {{30, 60}, {10, 40}}), 50);
}

TEST(SelfTime, NestedChildrenCountOnce) {
  // [20,30) lies inside [10,80): only the outer one covers.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 80}, {20, 30}}), 30);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfTime({50, 100}, {{0, 60}, {90, 200}, {300, 400}}), 30);
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, ReportsP99WhenTenSamplesLieBeyondIt) {
  const Tail t = TailPercentile(Ramp(2000), 0.99);
  EXPECT_EQ(t.count, 2000u);
  EXPECT_DOUBLE_EQ(t.percentile, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 1980);  // 20 samples beyond
}

TEST(TailPercentile, FallsBackToTheHighestWithTenBeyond) {
  const Tail t = TailPercentile(Ramp(500), 0.99);
  EXPECT_EQ(t.count, 500u);
  EXPECT_DOUBLE_EQ(t.percentile, 0.98);
  EXPECT_DOUBLE_EQ(t.value, 490);  // exactly 10 samples beyond
}

TEST(TailPercentile, BoundaryKeepsExactlyTenBeyond) {
  const Tail t = TailPercentile(Ramp(1000), 0.99);
  EXPECT_DOUBLE_EQ(t.percentile, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 990);
}

TEST(TailPercentile, TinySamplesReportTheMinimum) {
  const Tail t = TailPercentile(Ramp(5), 0.99);
  EXPECT_EQ(t.count, 5u);
  EXPECT_DOUBLE_EQ(t.value, 1);
  EXPECT_EQ(TailPercentile({}, 0.99).count, 0u);
}

TEST(Median, NearestRank) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

std::vector<Op> Sequence(Workload w, std::uint64_t seed, int client, int n) {
  Params p;
  Generator g(w, p, seed, client);
  std::vector<Op> ops = g.Preload();
  for (int i = 0; i < n; ++i) ops.push_back(g.Next());
  return ops;
}

TEST(Generator, SameSeedSameSequenceForEveryWorkload) {
  for (Workload w : {Workload::kWideDir, Workload::kBatchIngest,
                     Workload::kNamespace}) {
    for (int client = 0; client < 4; ++client) {
      const auto a = Sequence(w, 42, client, 3000);
      const auto b = Sequence(w, 42, client, 3000);
      EXPECT_TRUE(a == b) << WorkloadName(w) << " client " << client;
      const auto c = Sequence(w, 43, client, 3000);
      EXPECT_FALSE(a == c) << WorkloadName(w) << " seed ignored";
    }
  }
}

TEST(Generator, KeepsTheNamespaceSizeFixed) {
  Params p;
  for (Workload w : {Workload::kWideDir, Workload::kBatchIngest,
                     Workload::kNamespace}) {
    Generator g(w, p, 7, 1);
    Ledger ledger;
    for (const Op& op : g.Preload()) ledger.Apply(op);
    const auto live = [&] {
      std::size_t n = 0;
      for (const auto& [path, e] : ledger.entries()) n += e.present ? 1 : 0;
      return n;
    };
    const std::size_t before = live();
    std::size_t max_seen = before;
    for (int i = 0; i < 20000; ++i) {
      ledger.Apply(g.Next());
      if (i % 97 == 0) max_seen = std::max(max_seen, live());
    }
    EXPECT_GE(live() + static_cast<std::size_t>(p.batch_files + 2), before)
        << WorkloadName(w) << " shrank";
    // Creates are balanced by removals: the live set stays within one
    // in-flight unit (one batch directory for batch_ingest) of its start.
    EXPECT_LE(max_seen, before + static_cast<std::size_t>(p.batch_files + 2))
        << WorkloadName(w);
  }
}

TEST(Generator, NamespaceRootsSplitEvenlyAcrossShards) {
  Params p;
  const auto roots = NamespaceRoots(p);
  ASSERT_EQ(roots.size(), 8u);
  loco::core::ShardMap shards(2);
  int on_zero = 0;
  for (const auto& r : roots) on_zero += shards.ShardOf(r) == 0 ? 1 : 0;
  EXPECT_EQ(on_zero, 4);
}

TEST(Generator, WideWorkDirsAlternateShards) {
  Params p;
  const auto dirs = WideWorkDirs(p);
  ASSERT_EQ(dirs.size(), 4u);
  loco::core::ShardMap shards(2);
  for (std::size_t c = 0; c < dirs.size(); ++c) {
    EXPECT_NE(shards.ShardOf(dirs[c]), shards.ShardOf(dirs[(c + 1) % dirs.size()]))
        << "the side-cycle rename of client " << c << " must cross shards";
  }
}

// --- Span analysis -----------------------------------------------------------

TEST(AnalyzeSpans, LeavesOutMetricsWithoutSamples) {
  // One create call with one RPC to fms1 that joins a handler span with one
  // KV put into fms.dirents.
  std::vector<Span> spans(4);
  spans[0] = Span{1, 0, 0, 0, 1000, 0, static_cast<std::uint16_t>(OpKind::kCreate),
                  static_cast<std::uint8_t>(Layer::kClient), 0, 0};
  spans[1] = Span{2, 1, 77, 100, 900, 1, loco::core::proto::kFmsCreate,
                  static_cast<std::uint8_t>(Layer::kRpc), 2, 0};
  spans[2] = Span{3, 0, 77, 200, 800, 0, loco::core::proto::kFmsCreate,
                  static_cast<std::uint8_t>(Layer::kHandler), 2, 1};
  spans[3] = Span{4, 3, 0, 300, 500, 64, static_cast<std::uint16_t>(KvOp::kPut),
                  static_cast<std::uint8_t>(Layer::kKv), 4, 1};
  Metrics m;
  AnalyzeSpans(spans, 1.0, &m);
  EXPECT_DOUBLE_EQ(m.at("client.rpcs_per_op.create").value, 1);
  EXPECT_DOUBLE_EQ(m.at("fms.handler_us_p50.create").value, 0.6);
  EXPECT_DOUBLE_EQ(m.at("kv.put_value_bytes_mean.fms.dirents").value, 64);
  EXPECT_DOUBLE_EQ(m.at("trace.rpc_join_ratio").value, 1);
  // Nothing issued these: they are absent, not 0.
  for (const char* name : {"client.rpcs_per_op.stat", "fms.handler_us_p50.getattr",
                           "dms.handler_us_p50.mkdir", "net.rpc_us_p50.dms",
                           "kv.put_us_p50.dms.dirs", "kv.scan_us_p50", "dms.self_us_p50"}) {
    EXPECT_EQ(m.count(name), 0u) << name;
  }
}

// --- Decorator faithfulness ------------------------------------------------

// Channel that serves calls from in-process handlers and logs every request
// and response.
class RecordingChannel final : public loco::net::Channel {
 public:
  struct Call {
    loco::net::NodeId node;
    std::uint16_t opcode;
    std::string request;
    loco::ErrCode code;
    std::string response;
  };
  explicit RecordingChannel(std::map<loco::net::NodeId, loco::net::RpcHandler*> h)
      : handlers_(std::move(h)) {}
  void CallAsync(loco::net::NodeId server, std::uint16_t opcode,
                 std::string payload,
                 std::function<void(loco::net::RpcResponse)> done) override {
    loco::net::RpcResponse r = handlers_.at(server)->Handle(opcode, payload);
    log.push_back(Call{server, opcode, payload, r.code, r.payload});
    done(std::move(r));
  }
  std::vector<Call> log;

 private:
  std::map<loco::net::NodeId, loco::net::RpcHandler*> handlers_;
};

struct Servers {
  explicit Servers(bool decorated) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      loco::core::DirectoryMetadataServer::Options o;
      o.sid = 0xfffe - i;
      if (decorated) o.kv_decorator = TimedKvFactory({0, 1});
      dms.push_back(std::make_unique<loco::core::DirectoryMetadataServer>(o));
      loco::core::FileMetadataServer::Options f;
      f.sid = i + 1;
      if (decorated) f.kv_decorator = TimedKvFactory({2, 3, 4});
      fms.push_back(std::make_unique<loco::core::FileMetadataServer>(f));
    }
    // Server indexes as in deploy.h: dms0, dms1, fms1, fms2.
    for (int i = 0; i < 2; ++i) {
      handlers.push_back(std::make_unique<TimedHandler>(dms[i].get(), i));
    }
    for (int i = 0; i < 2; ++i) {
      handlers.push_back(std::make_unique<TimedHandler>(fms[i].get(), 2 + i));
    }
  }
  // Node id -> handler (timed wrapper when decorated, else the service).
  loco::net::RpcHandler* At(loco::net::NodeId node, bool decorated) {
    const int idx = node == 0 ? 0 : node == 901 ? 1 : node == 1 ? 2 : 3;
    if (decorated) return handlers[idx].get();
    return idx < 2 ? static_cast<loco::net::RpcHandler*>(dms[idx].get())
                   : fms[idx - 2].get();
  }
  std::vector<std::unique_ptr<loco::core::DirectoryMetadataServer>> dms;
  std::vector<std::unique_ptr<loco::core::FileMetadataServer>> fms;
  std::vector<std::unique_ptr<TimedHandler>> handlers;
};

// Two top-level directory names owned by different DMS shards.
std::pair<std::string, std::string> CrossShardDirs() {
  loco::core::ShardMap shards(2);
  std::string a, b;
  for (int i = 0; a.empty() || b.empty(); ++i) {
    const std::string name = "/d" + std::to_string(i);
    (shards.ShardOf(name) == 0 ? a : b) = name;
  }
  return {a, b};
}

TEST(Decorators, DecoratedServersAnswerByteForByte) {
  Servers plain(false);
  std::map<loco::net::NodeId, loco::net::RpcHandler*> plain_handlers;
  for (loco::net::NodeId n : {0u, 901u, 1u, 2u}) plain_handlers[n] = plain.At(n, false);
  RecordingChannel channel(plain_handlers);
  loco::core::LocoClient::Config cfg;
  cfg.dms = {0, 901};
  cfg.fms = {1, 2};
  cfg.object_stores = {1000};
  std::uint64_t clock = 1000;
  cfg.now = [&clock] { return clock++; };
  loco::core::LocoClient client(channel, cfg);

  const auto [a, b] = CrossShardDirs();
  ASSERT_TRUE(RunInline(client.Mkdir(a, 0755)).ok());
  ASSERT_TRUE(RunInline(client.Mkdir(b, 0755)).ok());
  ASSERT_TRUE(RunInline(client.Mkdir(a + "/sub", 0755)).ok());
  ASSERT_TRUE(RunInline(client.Create(a + "/f", 0644)).ok());
  ASSERT_TRUE(RunInline(client.StatFile(a + "/f")).ok());
  ASSERT_TRUE(RunInline(client.Chmod(a + "/sub", 0700)).ok());
  ASSERT_TRUE(RunInline(client.ChmodFile(a + "/f", 0600)).ok());
  ASSERT_TRUE(RunInline(client.Rename(a + "/sub", a + "/sub2")).ok());
  ASSERT_TRUE(RunInline(client.Rename(a + "/sub2", b + "/sub3")).ok());
  ASSERT_TRUE(RunInline(client.StatDir(b + "/sub3")).ok());
  ASSERT_GT(channel.log.size(), 10u);

  // Replay every request through the decorated servers, with tracing on so
  // the spans are actually taken, and compare the answers.
  Servers decorated(true);
  Recorder recorder(1 << 16);
  Recorder::Install(&recorder);
  for (std::size_t i = 0; i < channel.log.size(); ++i) {
    const auto& call = channel.log[i];
    loco::net::HandlerContext ctx;
    ctx.client_id = 77;
    ctx.trace_id = i + 1;
    const loco::net::RpcResponse r =
        decorated.At(call.node, true)->HandleCtx(call.opcode, call.request, ctx);
    EXPECT_EQ(r.code, call.code) << "call " << i << " opcode " << call.opcode;
    EXPECT_EQ(r.payload, call.response) << "call " << i << " opcode " << call.opcode;
  }
  Recorder::Install(nullptr);
  const std::vector<Span> spans = recorder.Drain();
  std::size_t handler_spans = 0, kv_spans = 0;
  for (const Span& s : spans) {
    if (s.layer == static_cast<std::uint8_t>(Layer::kHandler)) {
      ++handler_spans;
      EXPECT_NE(s.trace_id, 0u);
    }
    if (s.layer == static_cast<std::uint8_t>(Layer::kKv)) {
      ++kv_spans;
      EXPECT_NE(s.parent, 0u) << "kv span without its handler";
    }
  }
  EXPECT_EQ(handler_spans, channel.log.size());
  EXPECT_GT(kv_spans, handler_spans);
}

// Inner handler that remembers the context it was called with.
class ContextProbe final : public loco::net::RpcHandler {
 public:
  loco::net::RpcResponse Handle(std::uint16_t, std::string_view) override {
    ++plain_calls;
    return {};
  }
  loco::net::RpcResponse HandleCtx(std::uint16_t, std::string_view,
                                   const loco::net::HandlerContext& ctx) override {
    seen = ctx;
    return {};
  }
  loco::net::HandlerContext seen;
  int plain_calls = 0;
};

TEST(Decorators, HandlerForwardsClientAndTraceId) {
  ContextProbe probe;
  TimedHandler timed(&probe, 2);
  loco::net::HandlerContext ctx;
  ctx.client_id = 0xabc;
  ctx.trace_id = 0x1234;
  timed.HandleCtx(1, "x", ctx);
  EXPECT_EQ(probe.seen.client_id, 0xabcu);
  EXPECT_EQ(probe.seen.trace_id, 0x1234u);
  EXPECT_EQ(probe.plain_calls, 0);
  timed.Handle(1, "x");
  EXPECT_EQ(probe.plain_calls, 1);
}

// Store that counts which virtuals were reached.
class CountingKv final : public loco::kv::Kv {
 public:
  loco::Status Put(std::string_view, std::string_view) override { ++puts; return {}; }
  loco::Status Get(std::string_view, std::string*) const override { ++gets; return {}; }
  loco::Status Delete(std::string_view) override { return {}; }
  bool Contains(std::string_view) const override { ++contains; return true; }
  loco::Status PatchValue(std::string_view, std::size_t, std::string_view) override {
    ++patches;
    return {};
  }
  loco::Status ReadValueAt(std::string_view, std::size_t, std::size_t,
                           std::string*) const override {
    ++read_at;
    return {};
  }
  std::size_t Size() const override { return 3; }
  loco::Status ScanPrefix(std::string_view, std::size_t,
                          std::vector<loco::kv::Entry>*) const override {
    return {};
  }
  void ForEach(const std::function<bool(std::string_view, std::string_view)>&)
      const override {}
  bool Ordered() const noexcept override { return true; }
  loco::kv::KvStats stats() const noexcept override {
    loco::kv::KvStats s;
    s.puts = 99;
    return s;
  }
  void ResetStats() noexcept override { ++resets; }
  int puts = 0, patches = 0, resets = 0;
  mutable int gets = 0, contains = 0, read_at = 0;
};

TEST(Decorators, KvForwardsEveryVirtual) {
  auto inner = std::make_unique<CountingKv>();
  CountingKv* raw = inner.get();
  TimedKv kv(std::move(inner), 4);
  std::string out;
  EXPECT_TRUE(kv.PatchValue("k", 0, "p").ok());
  EXPECT_TRUE(kv.ReadValueAt("k", 0, 1, &out).ok());
  EXPECT_TRUE(kv.Contains("k"));
  EXPECT_EQ(kv.stats().puts, 99u);
  kv.ResetStats();
  EXPECT_EQ(kv.Size(), 3u);
  EXPECT_TRUE(kv.Ordered());
  // In-place patches stay patches: no Get+Put emulation by the base class.
  EXPECT_EQ(raw->patches, 1);
  EXPECT_EQ(raw->puts, 0);
  EXPECT_EQ(raw->gets, 0);
  EXPECT_EQ(raw->read_at, 1);
  EXPECT_EQ(raw->contains, 1);
  EXPECT_EQ(raw->resets, 1);
}

}  // namespace
}  // namespace livebench
