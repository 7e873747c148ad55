#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "core/shard.h"
#include "net/task.h"
#include "trace.h"

namespace livebench {

using loco::ErrCode;
using loco::net::RunInline;

namespace {

constexpr std::uint32_t kDirMode = 0755;
constexpr std::uint32_t kDirModeAlt = 0775;
constexpr std::uint32_t kFileMode = 0644;

// "<prefix><client>_<n>": a name only `client` ever creates.
std::string OwnedName(const char* prefix, int client, std::uint64_t n) {
  return prefix + std::to_string(client) + "_" + std::to_string(n);
}

std::string LeafFile(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "f%02d", i);
  return buf;
}

std::vector<std::string> LeafFiles(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(LeafFile(i));
  return out;
}

Op MakeOp(OpKind kind, std::string path, std::string path2 = {},
          std::uint32_t mode = 0, std::vector<std::string> names = {}) {
  Op op;
  op.kind = kind;
  op.path = std::move(path);
  op.path2 = std::move(path2);
  op.mode = mode;
  op.names = std::move(names);
  return op;
}

std::uint64_t MixSeed(std::uint64_t seed, Workload w, int client) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull;
  x ^= (static_cast<std::uint64_t>(w) + 1) * 0xbf58476d1ce4e5b9ull;
  x ^= (static_cast<std::uint64_t>(client) + 1) * 0x94d049bb133111ebull;
  return x;
}

}  // namespace

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate: return "create";
    case OpKind::kCreateMany: return "create_many";
    case OpKind::kStat: return "stat";
    case OpKind::kStatMany: return "stat_many";
    case OpKind::kUnlink: return "unlink";
    case OpKind::kMkdir: return "mkdir";
    case OpKind::kRmdir: return "rmdir";
    case OpKind::kRename: return "rename";
    case OpKind::kReaddir: return "readdir";
    case OpKind::kReaddirPlus: return "readdir_plus";
    case OpKind::kChmod: return "chmod";
  }
  return "?";
}

bool Op::mutating() const {
  switch (kind) {
    case OpKind::kCreate:
    case OpKind::kCreateMany:
    case OpKind::kUnlink:
    case OpKind::kMkdir:
    case OpKind::kRmdir:
    case OpKind::kRename:
    case OpKind::kChmod:
      return true;
    default:
      return false;
  }
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWideDir: return "wide_dir";
    case Workload::kBatchIngest: return "batch_ingest";
    case Workload::kNamespace: return "namespace";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kWideDir, Workload::kBatchIngest,
                     Workload::kNamespace}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<std::string> NamespaceRoots(const Params& p) {
  const loco::core::ShardMap shards(static_cast<std::size_t>(p.dms_shards));
  const int quota = p.ns_subtrees / p.dms_shards;
  std::vector<int> taken(static_cast<std::size_t>(p.dms_shards), 0);
  std::vector<std::string> roots;
  for (int i = 0; static_cast<int>(roots.size()) < p.ns_subtrees; ++i) {
    const std::string name = "/n" + std::to_string(i);
    const std::size_t shard = shards.ShardOf(name);
    if (taken[shard] < quota) {
      ++taken[shard];
      roots.push_back(name);
    }
  }
  return roots;
}

std::vector<std::string> WideWorkDirs(const Params& p) {
  const loco::core::ShardMap shards(static_cast<std::size_t>(p.dms_shards));
  std::vector<std::vector<std::string>> by_shard(static_cast<std::size_t>(p.dms_shards));
  std::vector<std::string> dirs;
  for (int i = 0; static_cast<int>(dirs.size()) < p.clients; ++i) {
    const std::string name = "/ws" + std::to_string(i);
    by_shard[shards.ShardOf(name)].push_back(name);
    // Client c takes the next directory of shard c % shards.
    const auto want = static_cast<std::size_t>(static_cast<int>(dirs.size()) % p.dms_shards);
    if (!by_shard[want].empty()) {
      dirs.push_back(by_shard[want].front());
      by_shard[want].erase(by_shard[want].begin());
    }
  }
  return dirs;
}

std::string NamespaceLeaf(const std::vector<std::string>& roots, int k) {
  return roots[static_cast<std::size_t>(k)] + "/a/b/c";
}

std::vector<Op> SharedPreload(Workload w, const Params& p) {
  std::vector<Op> ops;
  if (w == Workload::kWideDir) {
    ops.push_back(MakeOp(OpKind::kMkdir, "/wide", {}, kDirMode));
  } else if (w == Workload::kNamespace) {
    const std::vector<std::string> roots = NamespaceRoots(p);
    for (int k = 0; k < p.ns_subtrees; ++k) {
      std::string path = roots[static_cast<std::size_t>(k)];
      ops.push_back(MakeOp(OpKind::kMkdir, path, {}, kDirMode));
      for (const char* part : {"/a", "/b", "/c"}) {
        path += part;
        ops.push_back(MakeOp(OpKind::kMkdir, path, {}, kDirMode));
      }
      ops.push_back(MakeOp(OpKind::kCreateMany, path, {}, kFileMode,
                           LeafFiles(p.ns_leaf_files)));
    }
  }
  return ops;
}

Generator::Generator(Workload w, const Params& p, std::uint64_t seed,
                     int client)
    : w_(w), p_(p), client_(client), rng_(MixSeed(seed, w, client)) {
  if (w_ == Workload::kNamespace) roots_ = NamespaceRoots(p_);
  if (w_ == Workload::kWideDir) roots_ = WideWorkDirs(p_);
}

std::vector<std::string> Generator::FreshNames(int n) {
  std::vector<std::string> names;
  std::unordered_set<std::string> seen;
  while (static_cast<int>(names.size()) < n) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "f%08llx",
                  static_cast<unsigned long long>(rng_.Next() & 0xffffffffull));
    if (seen.insert(buf).second) names.emplace_back(buf);
  }
  return names;
}

std::vector<Op> Generator::Preload() {
  std::vector<Op> ops;
  const int c = client_;
  const std::string aged = "/h" + std::to_string(c);
  ops.push_back(MakeOp(OpKind::kMkdir, aged, {}, kDirMode));
  for (int i = 0; i < p_.aged_dirs; ++i) {
    const std::string dir = aged + "/d" + std::to_string(i);
    ops.push_back(MakeOp(OpKind::kMkdir, dir, {}, kDirMode));
    ops.push_back(MakeOp(OpKind::kCreateMany, dir, {}, kFileMode, LeafFiles(p_.aged_files)));
  }
  switch (w_) {
    case Workload::kWideDir: {
      const int per_client = p_.wide_width / p_.clients;
      std::vector<std::string> chunk;
      for (int i = 0; i < per_client; ++i) {
        std::string name = OwnedName("c", c, next_++);
        live_.push_back(name);
        chunk.push_back(std::move(name));
        if (chunk.size() == 64 || i + 1 == per_client) {
          ops.push_back(MakeOp(OpKind::kCreateMany, "/wide", {}, kFileMode,
                               std::move(chunk)));
          chunk.clear();
        }
      }
      ops.push_back(MakeOp(OpKind::kMkdir, roots_[static_cast<std::size_t>(c)], {}, kDirMode));
      ws_mode_ = kDirMode;
      break;
    }
    case Workload::kBatchIngest: {
      const std::string parent = "/b" + std::to_string(c);
      ops.push_back(MakeOp(OpKind::kMkdir, parent, {}, kDirMode));
      for (int i = 0; i < p_.batch_keep; ++i) {
        const std::uint64_t d = next_++;
        const std::string dir = parent + "/d" + std::to_string(d);
        std::vector<std::string> names = FreshNames(p_.batch_files);
        ops.push_back(MakeOp(OpKind::kMkdir, dir, {}, kDirMode));
        ops.push_back(MakeOp(OpKind::kCreateMany, dir, {}, kFileMode, names));
        dir_names_[d] = std::move(names);
        dirs_.push_back(d);
      }
      break;
    }
    case Workload::kNamespace: {
      for (int i = 0; i < p_.ns_work_dirs; ++i) {
        const int leaf = static_cast<int>(rng_.Uniform(p_.ns_subtrees));
        std::string name = OwnedName("w", c, next_++);
        ops.push_back(MakeOp(OpKind::kMkdir,
                             NamespaceLeaf(roots_, leaf) + "/" + name, {},
                             kDirMode));
        work_.emplace_back(std::move(name), leaf);
      }
      for (int k = 0; k < p_.ns_subtrees; ++k) {
        if (k % p_.clients == c) leaf_modes_[k] = kDirMode;
      }
      break;
    }
  }
  return ops;
}

Op Generator::Next() {
  switch (w_) {
    case Workload::kWideDir: return NextWide();
    case Workload::kBatchIngest: return NextBatch();
    case Workload::kNamespace: return NextNamespace();
  }
  return {};
}

// 46% StatFile, 23% Create, 23% Unlink of the oldest file (creates and
// unlinks alternate, so the width stays put), and an 8% side cycle, so
// every end-to-end and per-layer metric has samples: mkdir in our work
// directory, rename it within it or (every other cycle) into the next
// client's, a cross-shard 2PC, readdir of the wide directory, chmod of our
// work directory (the previous client holds a lease on it from its renames,
// so the chmod is pushed to it as an invalidation), rmdir of the renamed
// directory.
Op Generator::NextWide() {
  const std::uint64_t r = rng_.Uniform(100);
  if (r < 8) {
    const auto nc = static_cast<std::size_t>(client_);
    const std::string& base = roots_[nc];
    const std::string& next = roots_[(nc + 1) % roots_.size()];
    const std::string made = base + "/s" + std::to_string(side_);
    const std::string moved =
        (side_ % 2 == 0 ? base : next) + "/" + OwnedName("r", client_, side_);
    const int step = step_;
    step_ = (step_ + 1) % 5;
    switch (step) {
      case 0: return MakeOp(OpKind::kMkdir, made, {}, kDirMode);
      case 1: return MakeOp(OpKind::kRename, made, moved);
      case 2:
        return MakeOp(OpKind::kReaddir, "/wide", {}, 0,
                      std::vector<std::string>(live_.begin(), live_.end()));
      case 3:
        ws_mode_ = ws_mode_ == kDirMode ? kDirModeAlt : kDirMode;
        return MakeOp(OpKind::kChmod, base, {}, ws_mode_);
      default:
        ++side_;
        return MakeOp(OpKind::kRmdir, moved);
    }
  }
  if (r < 54) {
    return MakeOp(OpKind::kStat,
                  "/wide/" + live_[rng_.Uniform(live_.size())]);
  }
  create_next_ = !create_next_;
  if (!create_next_) {
    std::string name = OwnedName("c", client_, next_++);
    live_.push_back(name);
    return MakeOp(OpKind::kCreate, "/wide/" + name, {}, kFileMode);
  }
  std::string victim = std::move(live_.front());
  live_.pop_front();
  return MakeOp(OpKind::kUnlink, "/wide/" + victim);
}

// One ingest cycle: Mkdir t<i>, CreateMany, StatMany, Rename t<i> -> d<i>
// (checkpoint commit), ReaddirPlus, then retire the oldest checkpoint
// (Unlink each file, Rmdir), so each client keeps batch_keep directories.
Op Generator::NextBatch() {
  const std::string parent = "/b" + std::to_string(client_);
  const std::string tmp = parent + "/t" + std::to_string(next_);
  const std::string dst = parent + "/d" + std::to_string(next_);
  const int n = p_.batch_files;
  const int step = step_++;
  if (step == 0) {
    batch_ = FreshNames(n);
    return MakeOp(OpKind::kMkdir, tmp, {}, kDirMode);
  }
  if (step == 1) return MakeOp(OpKind::kCreateMany, tmp, {}, kFileMode, batch_);
  if (step == 2) return MakeOp(OpKind::kStatMany, tmp, {}, 0, batch_);
  if (step == 3) return MakeOp(OpKind::kRename, tmp, dst);
  if (step == 4) {
    std::vector<std::string> sorted = batch_;
    std::sort(sorted.begin(), sorted.end());
    dir_names_[next_] = std::move(batch_);
    dirs_.push_back(next_);
    ++next_;
    // Removal order of the oldest directory's files, seed-shuffled.
    batch_ = dir_names_[dirs_.front()];
    for (std::size_t i = batch_.size(); i > 1; --i) {
      std::swap(batch_[i - 1], batch_[rng_.Uniform(i)]);
    }
    return MakeOp(OpKind::kReaddirPlus, dst, {}, 0, std::move(sorted));
  }
  const std::string victim = parent + "/d" + std::to_string(dirs_.front());
  if (step < 5 + n) {
    return MakeOp(OpKind::kUnlink,
                  victim + "/" + batch_[static_cast<std::size_t>(step - 5)]);
  }
  dir_names_.erase(dirs_.front());
  dirs_.pop_front();
  step_ = 0;
  return MakeOp(OpKind::kRmdir, victim);
}

// 36% StatFile of a preloaded leaf file, 14% Readdir of a leaf, 24%
// Mkdir/Rmdir of a work directory (alternating), 10% Chmod of a leaf this
// client owns, 10% Rename of a work directory into another subtree (about
// half cross the DMS shards), 6% Create/Unlink of a file (alternating).
Op Generator::NextNamespace() {
  const int subtrees = p_.ns_subtrees;
  const std::uint64_t r = rng_.Uniform(100);
  const auto leaf = [&](int k) { return NamespaceLeaf(roots_, k); };
  const auto rand_leaf = [&] { return static_cast<int>(rng_.Uniform(subtrees)); };
  if (r < 36) {
    const int k = rand_leaf();
    return MakeOp(OpKind::kStat,
                  leaf(k) + "/" +
                      LeafFile(static_cast<int>(rng_.Uniform(p_.ns_leaf_files))));
  }
  if (r < 50) {
    return MakeOp(OpKind::kReaddir, leaf(rand_leaf()), {}, 0,
                  LeafFiles(p_.ns_leaf_files));
  }
  if (r < 74) {
    create_next_ = !create_next_;
    if (!create_next_) {
      const int k = rand_leaf();
      std::string name = OwnedName("w", client_, next_++);
      Op op = MakeOp(OpKind::kMkdir, leaf(k) + "/" + name, {}, kDirMode);
      work_.emplace_back(std::move(name), k);
      return op;
    }
    auto [name, k] = std::move(work_.front());
    work_.pop_front();
    return MakeOp(OpKind::kRmdir, leaf(k) + "/" + name);
  }
  if (r < 84 && !leaf_modes_.empty()) {
    auto it = leaf_modes_.begin();
    std::advance(it, chmod_turn_++ % static_cast<int>(leaf_modes_.size()));
    it->second = it->second == kDirMode ? kDirModeAlt : kDirMode;
    return MakeOp(OpKind::kChmod, leaf(it->first), {}, it->second);
  }
  if (r < 94) {
    auto& [name, k] = work_[rng_.Uniform(work_.size())];
    int to = static_cast<int>(rng_.Uniform(subtrees - 1));
    if (to >= k) ++to;
    Op op = MakeOp(OpKind::kRename, leaf(k) + "/" + name, leaf(to) + "/" + name);
    k = to;
    return op;
  }
  step_ = !step_;
  if (step_) {
    std::string path =
        leaf(rand_leaf()) + "/" + OwnedName("x", client_, next_++);
    live_.push_back(path);
    return MakeOp(OpKind::kCreate, std::move(path), {}, kFileMode);
  }
  std::string victim = std::move(live_.front());
  live_.pop_front();
  return MakeOp(OpKind::kUnlink, std::move(victim));
}

void Ledger::Apply(const Op& op) {
  switch (op.kind) {
    case OpKind::kCreate:
      entries_[op.path] = Expect{true, false, 0};
      break;
    case OpKind::kCreateMany:
      for (const std::string& n : op.names) {
        entries_[op.path + "/" + n] = Expect{true, false, 0};
      }
      break;
    case OpKind::kUnlink:
      entries_[op.path] = Expect{false, false, 0};
      break;
    case OpKind::kMkdir:
      entries_[op.path] = Expect{true, true, op.mode};
      break;
    case OpKind::kRmdir: {
      // The directory's absence covers everything that was under it, so its
      // (already absent) children leave the ledger.
      const std::string prefix = op.path + "/";
      entries_.erase(entries_.lower_bound(prefix), entries_.lower_bound(op.path + "0"));
      entries_[op.path] = Expect{false, true, 0};
      break;
    }
    case OpKind::kChmod:
      entries_[op.path] = Expect{true, true, op.mode};
      break;
    case OpKind::kRename: {
      Expect root{true, true, 0};
      if (auto it = entries_.find(op.path); it != entries_.end()) {
        root = it->second;
        it->second = Expect{false, true, 0};
      } else {
        entries_[op.path] = Expect{false, true, 0};
      }
      const std::string prefix = op.path + "/";
      std::vector<std::pair<std::string, Expect>> moved;
      for (auto it = entries_.lower_bound(prefix);
           it != entries_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
           ++it) {
        if (!it->second.present) continue;
        moved.emplace_back(op.path2 + it->first.substr(op.path.size()),
                           it->second);
        it->second.present = false;
        it->second.mode = 0;
      }
      root.present = true;
      entries_[op.path2] = root;
      for (auto& [k, v] : moved) entries_[k] = v;
      break;
    }
    default:
      break;
  }
}

void Ledger::Merge(const Ledger& other) {
  for (const auto& [k, v] : other.entries_) entries_[k] = v;
}

bool Execute(loco::core::LocoClient& client, const Op& op, std::string* why) {
  const auto fail = [&](const std::string& what) {
    *why = std::string(OpName(op.kind)) + " " + op.path + ": " + what;
    return false;
  };
  const auto status = [&](const loco::Status& s) {
    return s.ok() ? true : fail(s.ToString());
  };
  switch (op.kind) {
    case OpKind::kCreate:
      return status(RunInline(client.Create(op.path, op.mode)));
    case OpKind::kUnlink:
      return status(RunInline(client.Unlink(op.path)));
    case OpKind::kMkdir:
      return status(RunInline(client.Mkdir(op.path, op.mode)));
    case OpKind::kRmdir:
      return status(RunInline(client.Rmdir(op.path)));
    case OpKind::kRename:
      return status(RunInline(client.Rename(op.path, op.path2)));
    case OpKind::kChmod:
      return status(RunInline(client.Chmod(op.path, op.mode)));
    case OpKind::kStat: {
      auto r = RunInline(client.StatFile(op.path));
      if (!r.ok()) return status(r.status());
      return r->is_dir ? fail("is a directory") : true;
    }
    case OpKind::kCreateMany: {
      auto r = RunInline(client.CreateMany(op.path, op.names, op.mode));
      if (!r.ok()) return status(r.status());
      if (r->size() != op.names.size()) return fail("short batch reply");
      for (ErrCode code : *r) {
        if (code != ErrCode::kOk) return fail("batch entry failed");
      }
      return true;
    }
    case OpKind::kStatMany: {
      auto r = RunInline(client.StatMany(op.path, op.names));
      if (!r.ok()) return status(r.status());
      if (r->size() != op.names.size()) return fail("short batch reply");
      for (const auto& e : *r) {
        if (e.code != ErrCode::kOk || e.attr.is_dir) {
          return fail("batch entry missing");
        }
      }
      return true;
    }
    case OpKind::kReaddir: {
      auto r = RunInline(client.Readdir(op.path));
      if (!r.ok()) return status(r.status());
      std::unordered_set<std::string> seen;
      for (const auto& e : *r) seen.insert(e.name);
      for (const std::string& n : op.names) {
        if (seen.count(n) == 0) return fail("listing lacks " + n);
      }
      return true;
    }
    case OpKind::kReaddirPlus: {
      auto r = RunInline(client.ReaddirPlus(op.path));
      if (!r.ok()) return status(r.status());
      if (r->size() != op.names.size()) return fail("listing size differs");
      for (std::size_t i = 0; i < r->size(); ++i) {
        const auto& e = (*r)[i];
        if (e.name != op.names[i] || e.is_dir || e.code != ErrCode::kOk) {
          return fail("listing entry " + e.name + " differs");
        }
      }
      return true;
    }
  }
  return fail("unknown op");
}

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunClient(loco::core::LocoClient& client, Generator& gen,
               std::int64_t start_ns, std::int64_t deadline_ns, int windows,
               int client_index, const Params& p, Ledger* ledger,
               ClientTally* tally) {
  const loco::core::ShardMap shards(static_cast<std::size_t>(p.dms_shards));
  tally->windows.assign(static_cast<std::size_t>(windows), WindowTally{});
  const std::int64_t span_ns = std::max<std::int64_t>(1, deadline_ns - start_ns);
  std::string why;
  while (SteadyNs() < deadline_ns) {
    const Op op = gen.Next();
    const std::int64_t t0 = SteadyNs();
    bool ok;
    {
      ScopedSpan span(Layer::kClient, static_cast<std::uint16_t>(op.kind),
                      static_cast<std::uint8_t>(client_index));
      ok = Execute(client, op, &why);
    }
    const std::int64_t t1 = SteadyNs();
    const auto w = static_cast<std::size_t>(std::clamp<std::int64_t>(
        (t1 - start_ns) * windows / span_ns, 0, windows - 1));
    WindowTally& window = tally->windows[w];
    window.latency_us[static_cast<std::size_t>(op.kind)].push_back(
        static_cast<double>(t1 - t0) / 1e3);
    tally->attempted += op.items();
    if (!ok) {
      tally->failed += op.items();
      if (tally->first_error.empty()) tally->first_error = why;
      continue;
    }
    window.items += op.items();
    ledger->Apply(op);
    if (op.mutating()) tally->mutating += op.items();
    if (op.kind == OpKind::kRename) {
      ++tally->rename_total;
      if (shards.ShardOf(op.path) != shards.ShardOf(op.path2)) {
        ++tally->rename_cross;
      }
    }
  }
}

}  // namespace livebench
