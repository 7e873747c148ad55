#include "analyze.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "core/proto.h"
#include "deploy.h"
#include "stats.h"
#include "workload.h"

namespace livebench {

namespace proto = loco::core::proto;

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

Interval Of(const Span& s) { return Interval{s.start_ns, s.end_ns}; }
double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Dur(const Span& s) { return Us(s.end_ns - s.start_ns); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

bool IsDmsServer(int where) { return where == 0 || where == 1; }
bool IsFmsServer(int where) { return where == 2 || where == 3; }

// Span graph: children by parent (same-thread nesting) and the handler span
// each RPC joins through (trace id, server).
struct Graph {
  explicit Graph(const std::vector<Span>& spans) {
    std::uint64_t max_id = 0;
    for (const Span& s : spans) max_id = std::max(max_id, s.id);
    std::vector<std::uint32_t> pos(max_id + 1, kNone);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      pos[spans[i].id] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> parent(spans.size(), kNone);
    offsets.assign(spans.size() + 1, 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t p = spans[i].parent;
      if (p != 0 && p <= max_id && pos[p] != kNone) {
        parent[i] = pos[p];
        ++offsets[pos[p] + 1];
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) offsets[i + 1] += offsets[i];
    children.resize(offsets.back());
    std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (parent[i] != kNone) children[fill[parent[i]]++] = static_cast<std::uint32_t>(i);
    }
    handler_of.reserve(spans.size() / 4);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.layer == static_cast<std::uint8_t>(Layer::kHandler) && s.trace_id != 0) {
        handler_of.emplace(Key(s.trace_id, s.where), static_cast<std::uint32_t>(i));
      }
    }
  }

  static std::uint64_t Key(std::uint64_t trace_id, std::uint8_t where) {
    return trace_id * 256 + where;
  }
  std::uint32_t JoinedHandler(const Span& rpc) const {
    const auto it = handler_of.find(Key(rpc.trace_id, rpc.where));
    return it == handler_of.end() ? kNone : it->second;
  }
  template <typename Fn>
  void ForChildren(std::size_t i, Fn fn) const {
    for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) fn(children[k]);
  }

  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> children;
  std::unordered_map<std::uint64_t, std::uint32_t> handler_of;
};

// Time of one client call split over the layers it blocked on.
struct Split {
  double client = 0, transport = 0, handler = 0, kv = 0;
};

Split SplitCall(const std::vector<Span>& spans, const Graph& g, std::size_t call) {
  Split out;
  std::vector<Interval> rpcs;
  g.ForChildren(call, [&](std::uint32_t r) {
    rpcs.push_back(Of(spans[r]));
    const std::uint32_t h = g.JoinedHandler(spans[r]);
    if (h == kNone) {
      out.transport += Dur(spans[r]);
      return;
    }
    out.transport += Us(SelfTime(Of(spans[r]), {Of(spans[h])}));
    std::vector<Interval> kvs;
    g.ForChildren(h, [&](std::uint32_t k) { kvs.push_back(Of(spans[k])); });
    const double handler_self = Us(SelfTime(Of(spans[h]), kvs));
    out.handler += handler_self;
    out.kv += Dur(spans[h]) - handler_self;
  });
  out.client = Us(SelfTime(Of(spans[call]), rpcs));
  return out;
}

// Label of an opcode the workloads issue ("create", "lookup", ...).
std::string OpcodeName(std::uint16_t opcode) {
  switch (opcode) {
    case proto::kDmsMkdir: return "mkdir";
    case proto::kDmsRmdir: return "rmdir";
    case proto::kDmsLookup: return "lookup";
    case proto::kDmsStat: return "stat";
    case proto::kDmsReaddir: return "readdir";
    case proto::kDmsChmod: return "chmod";
    case proto::kDmsRename: return "rename";
    case proto::kDmsRenamePrepare: return "rename_prepare";
    case proto::kDmsRenameCommit: return "rename_commit";
    case proto::kDmsRenameFinish: return "rename_finish";
    case proto::kDmsRenameAbort: return "rename_abort";
    case proto::kFmsCreate: return "create";
    case proto::kFmsRemove: return "remove";
    case proto::kFmsGetAttr: return "getattr";
    case proto::kFmsReaddir: return "readdir";
    case proto::kFmsCheckEmpty: return "check_empty";
    case proto::kFmsBatchCreate: return "batch_create";
    case proto::kFmsBatchStat: return "batch_stat";
    case proto::kFmsReaddirPlus: return "readdir_plus";
    case proto::kFmsCloseSession: return "close_session";
    default: return "op" + std::to_string(opcode);
  }
}

// The handler opcodes reported per role, in metric-name order.
const std::vector<std::uint16_t>& ReportedOpcodes(bool dms) {
  static const std::vector<std::uint16_t> kDms = {
      proto::kDmsMkdir,         proto::kDmsRmdir,         proto::kDmsLookup,
      proto::kDmsReaddir,       proto::kDmsChmod,         proto::kDmsRename,
      proto::kDmsRenamePrepare, proto::kDmsRenameCommit,  proto::kDmsRenameFinish};
  static const std::vector<std::uint16_t> kFms = {
      proto::kFmsCreate,      proto::kFmsRemove,     proto::kFmsGetAttr,
      proto::kFmsReaddir,     proto::kFmsCheckEmpty, proto::kFmsBatchCreate,
      proto::kFmsBatchStat,   proto::kFmsReaddirPlus};
  return dms ? kDms : kFms;
}

}  // namespace

void AnalyzeSpans(const std::vector<Span>& spans, double wall_s, Metrics* out) {
  const Graph g(spans);
  const auto set = [out](const std::string& name, double v, const char* unit) {
    (*out)[name] = Metric{v, unit};
  };
  // A metric with no samples (an op or store the workload does not
  // exercise) is left out rather than reported as 0.
  const auto p50 = [&](const std::string& name, std::vector<double> v) {
    if (!v.empty()) set(name, Median(std::move(v)), "us");
  };
  const auto p99 = [&](const std::string& name, std::vector<double> v) {
    if (!v.empty()) set(name, TailPercentile(std::move(v), 0.99).value, "us");
  };
  const auto ratio = [&](const std::string& name, double num, double den,
                         const char* unit) {
    if (den > 0) set(name, num / den, unit);
  };

  // Client layer: self time, RPC fan-out per op kind, rename fan-out.
  std::vector<double> client_self;
  std::vector<double> rpcs_per_kind(kOpKindCount, 0);
  std::vector<double> calls_per_kind(kOpKindCount, 0);
  std::vector<std::size_t> creates;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer != static_cast<std::uint8_t>(Layer::kClient)) continue;
    std::vector<Interval> rpcs;
    g.ForChildren(i, [&](std::uint32_t r) { rpcs.push_back(Of(spans[r])); });
    client_self.push_back(Us(SelfTime(Of(s), rpcs)));
    if (s.aux < kOpKindCount) {
      rpcs_per_kind[s.aux] += static_cast<double>(rpcs.size());
      calls_per_kind[s.aux] += 1;
    }
    if (s.aux == static_cast<std::uint16_t>(OpKind::kCreate) ||
        s.aux == static_cast<std::uint16_t>(OpKind::kCreateMany)) {
      creates.push_back(i);
    }
  }
  p50("client.self_us_p50", client_self);
  for (int k = 0; k < kOpKindCount; ++k) {
    ratio(std::string("client.rpcs_per_op.") + OpName(static_cast<OpKind>(k)),
          rpcs_per_kind[k], calls_per_kind[k], "count");
  }
  const auto rename = static_cast<std::size_t>(OpKind::kRename);
  ratio("rename.rpcs_per_op", rpcs_per_kind[rename], calls_per_kind[rename], "count");

  // Client side of the wire: round trips by role, items per frame, and the
  // transport share (round trip minus the joined handler).
  std::vector<double> rpc_us[2];
  std::vector<double> transport;
  double items = 0, frames = 0, joined = 0;
  for (const Span& s : spans) {
    if (s.layer != static_cast<std::uint8_t>(Layer::kRpc)) continue;
    if (IsDmsServer(s.where)) rpc_us[0].push_back(Dur(s));
    if (IsFmsServer(s.where)) rpc_us[1].push_back(Dur(s));
    items += s.value;
    frames += 1;
    const std::uint32_t h = g.JoinedHandler(s);
    if (h == kNone) continue;
    joined += 1;
    transport.push_back(Us(SelfTime(Of(s), {Of(spans[h])})));
  }
  p50("net.rpc_us_p50.dms", rpc_us[0]);
  p50("net.rpc_us_p50.fms", rpc_us[1]);
  p99("net.rpc_us_p99.dms", rpc_us[0]);
  p99("net.rpc_us_p99.fms", rpc_us[1]);
  ratio("net.items_per_frame", items, frames, "count");
  p50("net.transport_us_p50", transport);
  p99("net.transport_us_p99", transport);
  ratio("trace.rpc_join_ratio", joined, frames, "ratio");

  // Handlers: latency per opcode, self time (minus KV), busy fraction.
  std::map<std::pair<bool, std::uint16_t>, std::vector<double>> by_opcode;
  std::vector<double> handler_self[2];
  std::vector<double> busy_us(kServers, 0);
  double handlers = 0, kv_ops = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer != static_cast<std::uint8_t>(Layer::kHandler)) continue;
    if (s.where < kServers) busy_us[s.where] += Dur(s);
    handlers += 1;
    std::vector<Interval> kvs;
    g.ForChildren(i, [&](std::uint32_t k) { kvs.push_back(Of(spans[k])); });
    kv_ops += static_cast<double>(kvs.size());
    if (!IsDmsServer(s.where) && !IsFmsServer(s.where)) continue;
    const bool dms = IsDmsServer(s.where);
    by_opcode[{dms, s.aux}].push_back(Dur(s));
    handler_self[dms ? 0 : 1].push_back(Us(SelfTime(Of(s), kvs)));
  }
  for (const bool dms : {true, false}) {
    for (std::uint16_t op : ReportedOpcodes(dms)) {
      p50(std::string(dms ? "dms" : "fms") + ".handler_us_p50." + OpcodeName(op),
          by_opcode[{dms, op}]);
    }
  }
  p50("dms.self_us_p50", handler_self[0]);
  p50("fms.self_us_p50", handler_self[1]);
  const double capacity_us = wall_s * 1e6 * kWorkers;
  ratio("dms.busy_frac.shard0", busy_us[0], capacity_us, "ratio");
  ratio("dms.busy_frac.shard1", busy_us[1], capacity_us, "ratio");
  ratio("fms.busy_frac", busy_us[2] + busy_us[3], 2 * capacity_us, "ratio");
  ratio("kv.ops_per_rpc", kv_ops, handlers, "count");

  // KV: puts per store (latency, value size), gets, scans.
  std::vector<std::vector<double>> put_us(kStores), put_bytes(kStores);
  std::vector<double> get_us, scan_us;
  for (const Span& s : spans) {
    if (s.layer != static_cast<std::uint8_t>(Layer::kKv)) continue;
    const auto op = static_cast<KvOp>(s.aux);
    if (op == KvOp::kPut && s.where < kStores) {
      put_us[s.where].push_back(Dur(s));
      put_bytes[s.where].push_back(s.value);
    } else if (op == KvOp::kGet || op == KvOp::kContains || op == KvOp::kReadAt) {
      get_us.push_back(Dur(s));
    } else if (op == KvOp::kScan || op == KvOp::kForEach) {
      scan_us.push_back(Dur(s));
    }
  }
  for (int st = 0; st < kStores; ++st) {
    const std::string store = StoreName(st);
    if (put_us[st].empty()) continue;
    p50("kv.put_us_p50." + store, put_us[st]);
    p99("kv.put_us_p99." + store, put_us[st]);
    set("kv.put_value_bytes_mean." + store, Mean(put_bytes[st]), "bytes");
  }
  p50("kv.get_us_p50", get_us);
  p50("kv.scan_us_p50", scan_us);

  // Tail attribution: where the slowest 1% of create calls spent their time.
  std::sort(creates.begin(), creates.end(), [&](std::size_t a, std::size_t b) {
    return Dur(spans[a]) > Dur(spans[b]);
  });
  const std::size_t tail = std::min(
      creates.size(), std::max<std::size_t>(10, creates.size() / 100));
  Split sum;
  double total = 0;
  for (std::size_t i = 0; i < tail; ++i) {
    const Split s = SplitCall(spans, g, creates[i]);
    sum.client += s.client;
    sum.transport += s.transport;
    sum.handler += s.handler;
    sum.kv += s.kv;
    total += Dur(spans[creates[i]]);
  }
  if (tail == 0) return;
  set("tail.create_us", Dur(spans[creates[tail - 1]]), "us");
  ratio("tail.create_share.client", sum.client, total, "ratio");
  ratio("tail.create_share.transport", sum.transport, total, "ratio");
  ratio("tail.create_share.handler", sum.handler, total, "ratio");
  ratio("tail.create_share.kv", sum.kv, total, "ratio");
}

bool WriteChromeTrace(const std::vector<Span>& spans, std::int64_t from_ns,
                      std::int64_t window_ns, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) {
    if (s.start_ns >= from_ns && s.start_ns < from_ns + window_ns) by_id[s.id] = &s;
  }
  std::vector<const Span*> picked;
  for (const auto& [id, s] : by_id) picked.push_back(s);
  std::sort(picked.begin(), picked.end(),
            [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
  // Process 0 is the benchmark's clients, 1 + i is server i.
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"args\":{\"name\":\"clients\"}}");
  for (int s = 0; s < kServers; ++s) {
    std::fprintf(f, ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"args\":{\"name\":\"%s\"}}", 1 + s, ServerName(s));
  }
  for (const Span* s : picked) {
    std::string name;
    int pid = 0;
    switch (static_cast<Layer>(s->layer)) {
      case Layer::kClient:
        name = std::string("client.") + OpName(static_cast<OpKind>(s->aux));
        break;
      case Layer::kRpc:
        name = "rpc." + OpcodeName(s->aux) + "@" + ServerName(s->where);
        break;
      case Layer::kHandler:
        name = std::string(ServerName(s->where)) + "." + OpcodeName(s->aux);
        pid = 1 + s->where;
        break;
      case Layer::kKv: {
        name = std::string("kv.") + StoreName(s->where) + "." +
               KvOpName(static_cast<KvOp>(s->aux));
        const auto it = by_id.find(s->parent);
        pid = it != by_id.end() ? 1 + it->second->where : kServers + 1;
        break;
      }
    }
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
                 "\"span\":%llu,\"parent\":%llu,\"value\":%u}}",
                 name.c_str(), pid, static_cast<unsigned>(s->thread),
                 static_cast<double>(s->start_ns - from_ns) / 1e3,
                 static_cast<double>(s->end_ns - s->start_ns) / 1e3,
                 static_cast<unsigned long long>(s->trace_id),
                 static_cast<unsigned long long>(s->id),
                 static_cast<unsigned long long>(s->parent), s->value);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace livebench
