#include "core/client.h"

#include <algorithm>
#include <atomic>

#include "common/clock.h"
#include "core/layout.h"
#include "core/proto.h"
#include "fs/path.h"
#include "fs/wire.h"
#include "net/wire.h"

namespace loco::core {

namespace {

// Decode an Attr-only response payload.
Result<fs::Attr> AttrFrom(const net::RpcResponse& resp) {
  if (!resp.ok()) return ErrStatus(resp.code);
  fs::Attr attr;
  if (!fs::Unpack(resp.payload, attr)) return ErrStatus(ErrCode::kCorruption);
  return attr;
}

Status StatusFrom(const net::RpcResponse& resp) { return Status(resp.code); }

// Transaction id for a cross-shard rename transfer: unique enough that two
// transfers alive at once never collide (wall clock + process-local counter),
// and never zero (the protocol reserves 0).
std::uint64_t MintTxid() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t c = counter.fetch_add(1, std::memory_order_relaxed);
  return ((static_cast<std::uint64_t>(common::WallClockNs()) << 12) ^ c) | 1;
}

// Root attributes are replicated on every shard (docs/SHARDING.md): a
// mutation targeting "/" must apply everywhere, so fan it out and surface
// the first failing leg.  Any other path goes to its owning shard only.
net::Task<net::RpcResponse> CallDmsWrite(net::Channel& channel,
                                         const std::vector<net::NodeId>& dms,
                                         net::NodeId owner,
                                         std::string_view path,
                                         std::uint16_t opcode,
                                         std::string payload) {
  if (path == "/" && dms.size() > 1) {
    auto responses =
        co_await net::CallMany(channel, dms, opcode, std::move(payload));
    for (net::RpcResponse& r : responses) {
      if (!r.ok()) co_return std::move(r);
    }
    co_return std::move(responses.front());
  }
  co_return co_await net::Call(channel, owner, opcode, std::move(payload));
}

}  // namespace

void NotifyFanout::Add(LocoClient* client) {
  std::lock_guard<std::mutex> lock(mu_);
  clients_.push_back(client);
}

void NotifyFanout::Remove(LocoClient* client) {
  std::lock_guard<std::mutex> lock(mu_);
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
}

void NotifyFanout::Invalidate(const std::string& path, bool subtree,
                              std::uint64_t wall_ts_ns) {
  // mu_ is held across the callbacks so ~LocoClient (which calls Remove)
  // cannot complete while a push still holds its pointer.
  std::lock_guard<std::mutex> lock(mu_);
  for (LocoClient* client : clients_) {
    client->OnInvalidate(path, subtree, wall_ts_ns);
  }
}

void NotifyFanout::Resync() {
  std::lock_guard<std::mutex> lock(mu_);
  for (LocoClient* client : clients_) client->OnResync();
}

LocoClient::LocoClient(net::Channel& channel, Config config)
    : channel_(channel),
      cfg_(std::move(config)),
      ring_(cfg_.fms),
      shards_(cfg_.dms.size()) {
  if (cfg_.dms.empty()) cfg_.dms.push_back(0);  // legacy single-DMS default
  if (cfg_.fanout) cfg_.fanout->Add(this);
}

LocoClient::~LocoClient() {
  if (cfg_.fanout) cfg_.fanout->Remove(this);
}

void LocoClient::InvalidatePrefix(const std::string& path) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  InvalidatePrefixLocked(path);
}

void LocoClient::InvalidatePrefixLocked(const std::string& path) {
  const std::string prefix = path + "/";
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first == path || it->first.rfind(prefix, 0) == 0) {
      it = cache_.erase(it);
      metric_invalidations_->Add();
    } else {
      ++it;
    }
  }
}

void LocoClient::ClearCache() noexcept {
  std::lock_guard<std::mutex> lock(cache_mu_);
  metric_invalidations_->Add(cache_.size());
  cache_.clear();
}

void LocoClient::NoteSubdir(std::string_view parent, std::string_view name,
                            bool present) {
  if (!cfg_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto it = cache_.find(std::string(parent));
  if (it == cache_.end()) return;
  if (present) {
    it->second.subdirs.emplace(name);
  } else {
    it->second.subdirs.erase(std::string(name));
  }
}

void LocoClient::OnInvalidate(const std::string& path, bool subtree,
                              std::uint64_t wall_ts_ns) {
  (void)subtree;  // prefix invalidation already covers the whole subtree
  // Drop the directory and everything cached under it: a chmod on `path`
  // changes the ancestor ACL evaluation every descendant lease relied on,
  // so the conservative sweep matches what the local mutation paths do.
  InvalidatePrefix(path);
  if (wall_ts_ns != 0) {
    const std::uint64_t now =
        static_cast<std::uint64_t>(common::WallClockNs());
    if (now > wall_ts_ns) {
      metric_invalidation_latency_->Record(
          static_cast<common::Nanos>(now - wall_ts_ns));
    }
  }
}

void LocoClient::OnResync() { ClearCache(); }

net::Task<Result<fs::Attr>> LocoClient::LookupDir(std::string path,
                                                  std::uint32_t want,
                                                  std::string shadow_name) {
  if (cfg_.cache_enabled) {
    // Copy the leased state out under the lock: a push-plane invalidation
    // may erase the entry the moment the lock drops.
    bool hit = false;
    bool shadowed = false;
    fs::Attr attr;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      const auto it = cache_.find(path);
      if (it != cache_.end() && Now() < it->second.expires_at) {
        hit = true;
        attr = it->second.attr;
        shadowed = !shadow_name.empty() &&
                   it->second.subdirs.count(shadow_name) != 0;
        ++cache_hits_;
        metric_hits_->Add();
      } else {
        ++cache_misses_;
        metric_misses_->Add();
      }
    }
    if (hit) {
      // Leased local evaluation, same order as the DMS: permission bits
      // first, then the subdirectory shadow check against the leased name
      // set (ancestor checks were covered when the lease was granted).
      if (want != 0 &&
          !fs::CheckPermission(identity_, attr.mode, attr.uid, attr.gid, want)) {
        co_return ErrStatus(ErrCode::kPermission);
      }
      if (shadowed) co_return ErrStatus(ErrCode::kExists);
      co_return attr;
    }
  }
  fs::Attr attr;
  std::vector<std::string> subdirs;
  if (path == "/" && cfg_.dms.size() > 1) {
    // The root is replicated per shard and its subdir set is partitioned:
    // each shard's reply lists the top-level directories that shard owns.
    // Fan out, take the attrs from shard 0 (the root's canonical owner) and
    // the union of the name sets; each shard also grants its own lease, so
    // every shard pushes invalidations for the entries it contributed.
    auto responses =
        co_await net::CallMany(channel_, cfg_.dms, proto::kDmsLookup,
                               fs::Pack(path, identity_, want, shadow_name));
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].ok()) co_return ErrStatus(responses[i].code);
      fs::Attr shard_attr;
      std::vector<std::string> shard_subdirs;
      if (!fs::Unpack(responses[i].payload, shard_attr, shard_subdirs)) {
        co_return ErrStatus(ErrCode::kCorruption);
      }
      if (i == 0) attr = shard_attr;
      subdirs.insert(subdirs.end(),
                     std::make_move_iterator(shard_subdirs.begin()),
                     std::make_move_iterator(shard_subdirs.end()));
    }
  } else {
    net::RpcResponse resp =
        co_await net::Call(channel_, DmsFor(path), proto::kDmsLookup,
                           fs::Pack(path, identity_, want, shadow_name));
    if (!resp.ok()) co_return ErrStatus(resp.code);
    if (!fs::Unpack(resp.payload, attr, subdirs)) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
  }
  if (cfg_.cache_enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    CacheEntry& entry = cache_[path];
    entry.attr = attr;
    entry.expires_at = Now() + cfg_.lease_ns;
    entry.subdirs.clear();
    entry.subdirs.insert(std::make_move_iterator(subdirs.begin()),
                         std::make_move_iterator(subdirs.end()));
  }
  co_return attr;
}

net::Task<Status> LocoClient::ClassifyMissingFile(std::string path) {
  net::RpcResponse resp = co_await net::Call(
      channel_, DmsFor(path), proto::kDmsStat, fs::Pack(path, identity_));
  // If a directory exists at this path the file op mis-typed its target;
  // other resolution failures (e.g. kPermission on an ancestor) are the
  // authoritative answer and pass through.
  if (resp.ok()) co_return ErrStatus(ErrCode::kIsDir);
  if (resp.code == ErrCode::kNotFound) co_return ErrStatus(ErrCode::kNotFound);
  co_return ErrStatus(resp.code);
}

// ----------------------------------------------------------------- mkdir --

net::Task<Status> LocoClient::Mkdir(std::string path, std::uint32_t mode) {
  net::RpcResponse resp =
      co_await net::Call(channel_, DmsFor(path), proto::kDmsMkdir,
                         fs::Pack(path, mode, identity_, Now()));
  if (resp.ok()) {
    // Keep any live lease on the parent shadow-accurate.
    NoteSubdir(fs::ParentPath(path), fs::BaseName(path), true);
  }
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::Rmdir(std::string path) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(ErrCode::kInvalid);
  }
  auto dir = co_await LookupDir(path, 0, {});
  if (!dir.ok()) {
    if (dir.code() != ErrCode::kNotFound) co_return dir.status();
    // Maybe a file: report kNotDir to match the contract.
    auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
    if (parent.ok()) {
      net::RpcResponse probe = co_await net::Call(
          channel_, FmsFor(parent->uuid, fs::BaseName(path)), proto::kFmsGetAttr,
          fs::Pack(parent->uuid, std::string(fs::BaseName(path))));
      if (probe.ok()) co_return ErrStatus(ErrCode::kNotDir);
    }
    co_return ErrStatus(ErrCode::kNotFound);
  }
  // Phase 2: every FMS must confirm no file of this directory lives there
  // (the paper's rmdir fan-out, §4.2.1 observation 3).
  std::vector<net::NodeId> fms = cfg_.fms;
  auto checks = co_await net::CallMany(channel_, std::move(fms),
                                       proto::kFmsCheckEmpty,
                                       fs::Pack(dir->uuid));
  for (const net::RpcResponse& check : checks) {
    if (check.code == ErrCode::kNotEmpty) co_return ErrStatus(ErrCode::kNotEmpty);
    if (!check.ok()) co_return ErrStatus(check.code);
  }
  // Phase 3: remove on the owning shard (which re-checks subdir emptiness).
  net::RpcResponse resp =
      co_await net::Call(channel_, DmsFor(path), proto::kDmsRmdir,
                         fs::Pack(path, identity_, std::uint8_t{1}));
  if (resp.ok()) {
    InvalidatePrefix(path);
    NoteSubdir(fs::ParentPath(path), fs::BaseName(path), false);
  }
  co_return StatusFrom(resp);
}

net::Task<Result<std::vector<fs::DirEntry>>> LocoClient::Readdir(
    std::string path) {
  fs::Attr dir_attr;
  std::vector<fs::DirEntry> entries;
  if (path == "/" && cfg_.dms.size() > 1) {
    // The root's subdir list is partitioned per shard: merge every shard's
    // contribution (attrs from shard 0, the canonical root owner).
    auto responses = co_await net::CallMany(
        channel_, cfg_.dms, proto::kDmsReaddir, fs::Pack(path, identity_));
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].ok()) co_return ErrStatus(responses[i].code);
      fs::Attr shard_attr;
      std::vector<fs::DirEntry> shard_entries;
      if (!fs::Unpack(responses[i].payload, shard_attr, shard_entries)) {
        co_return ErrStatus(ErrCode::kCorruption);
      }
      if (i == 0) dir_attr = shard_attr;
      entries.insert(entries.end(),
                     std::make_move_iterator(shard_entries.begin()),
                     std::make_move_iterator(shard_entries.end()));
    }
  } else {
    net::RpcResponse resp = co_await net::Call(
        channel_, DmsFor(path), proto::kDmsReaddir, fs::Pack(path, identity_));
    if (!resp.ok()) {
      if (resp.code != ErrCode::kNotFound || path == "/") {
        co_return ErrStatus(resp.code);
      }
      // Maybe a file path.
      auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                       fs::kModeExec, {});
      if (parent.ok()) {
        net::RpcResponse probe = co_await net::Call(
            channel_, FmsFor(parent->uuid, fs::BaseName(path)),
            proto::kFmsGetAttr,
            fs::Pack(parent->uuid, std::string(fs::BaseName(path))));
        if (probe.ok()) co_return ErrStatus(ErrCode::kNotDir);
      }
      co_return ErrStatus(ErrCode::kNotFound);
    }
    if (!fs::Unpack(resp.payload, dir_attr, entries)) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
  }
  // Pull the file entries from every FMS (the paper's readdir fan-out).
  std::vector<net::NodeId> fms = cfg_.fms;
  auto responses = co_await net::CallMany(channel_, std::move(fms),
                                          proto::kFmsReaddir,
                                          fs::Pack(dir_attr.uuid));
  for (const net::RpcResponse& r : responses) {
    if (!r.ok()) co_return ErrStatus(r.code);
    std::vector<fs::DirEntry> files;
    if (!fs::Unpack(r.payload, files)) co_return ErrStatus(ErrCode::kCorruption);
    entries.insert(entries.end(), std::make_move_iterator(files.begin()),
                   std::make_move_iterator(files.end()));
  }
  std::sort(entries.begin(), entries.end(),
            [](const fs::DirEntry& a, const fs::DirEntry& b) {
              return a.name < b.name;
            });
  co_return entries;
}

// ------------------------------------------------------------ batched ops --

net::Task<Result<std::vector<ErrCode>>> LocoClient::CreateMany(
    std::string dir_path, std::vector<std::string> names, std::uint32_t mode) {
  if (!fs::IsValidPath(dir_path)) co_return ErrStatus(ErrCode::kInvalid);
  auto parent =
      co_await LookupDir(dir_path, fs::kModeWrite | fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  // Shadow check against the leased subdir set — the same name list the DMS
  // consults for a single create's shadow_name; a shadowed entry fails
  // locally with kExists instead of reaching the FMS.
  std::unordered_set<std::string> shadow;
  if (cfg_.cache_enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const auto it = cache_.find(dir_path);
    if (it != cache_.end()) shadow = it->second.subdirs;
  }
  const std::uint64_t ts = Now();
  std::vector<ErrCode> codes(names.size(), ErrCode::kOk);
  std::unordered_map<net::NodeId, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (shadow.count(names[i]) != 0) {
      codes[i] = ErrCode::kExists;
      continue;
    }
    groups[FmsFor(parent->uuid, names[i])].push_back(i);
  }
  for (auto& [node, idxs] : groups) {
    std::vector<std::string> subops;
    subops.reserve(idxs.size());
    for (const std::size_t i : idxs) {
      subops.push_back(fs::Pack(parent->uuid, names[i], mode, identity_, ts));
    }
    net::RpcResponse resp =
        co_await net::Call(channel_, node, proto::kFmsBatchCreate,
                           net::wire::EncodeBatchRequest(subops));
    if (!resp.ok()) {
      for (const std::size_t i : idxs) codes[i] = resp.code;
      continue;
    }
    std::vector<net::wire::BatchItem> items;
    if (!net::wire::DecodeBatchResponse(resp.payload, &items) ||
        items.size() != idxs.size()) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      codes[idxs[j]] = items[j].code;
    }
  }
  co_return codes;
}

net::Task<Result<std::vector<LocoClient::StatEntry>>> LocoClient::StatMany(
    std::string dir_path, std::vector<std::string> names) {
  if (!fs::IsValidPath(dir_path)) co_return ErrStatus(ErrCode::kInvalid);
  auto parent = co_await LookupDir(dir_path, fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  std::vector<StatEntry> results(names.size());
  std::unordered_map<net::NodeId, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < names.size(); ++i) {
    groups[FmsFor(parent->uuid, names[i])].push_back(i);
  }
  for (auto& [node, idxs] : groups) {
    std::vector<std::string> subops;
    subops.reserve(idxs.size());
    for (const std::size_t i : idxs) {
      subops.push_back(fs::Pack(parent->uuid, names[i]));
    }
    net::RpcResponse resp =
        co_await net::Call(channel_, node, proto::kFmsBatchStat,
                           net::wire::EncodeBatchRequest(subops));
    if (!resp.ok()) {
      for (const std::size_t i : idxs) results[i].code = resp.code;
      continue;
    }
    std::vector<net::wire::BatchItem> items;
    if (!net::wire::DecodeBatchResponse(resp.payload, &items) ||
        items.size() != idxs.size()) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      StatEntry& out = results[idxs[j]];
      out.code = items[j].code;
      if (out.code == ErrCode::kOk &&
          !fs::Unpack(items[j].payload, out.attr)) {
        co_return ErrStatus(ErrCode::kCorruption);
      }
    }
  }
  co_return results;
}

net::Task<Result<std::vector<ErrCode>>> LocoClient::MkdirMany(
    std::vector<std::string> paths, std::uint32_t mode) {
  std::vector<ErrCode> codes(paths.size(), ErrCode::kOk);
  const std::uint64_t ts = Now();
  // One frame per owning shard, preserving the caller's order within each
  // group.  Dependent paths ("a", then "a/b") share a top-level component
  // and therefore a shard, so in-order application still holds per frame.
  std::unordered_map<net::NodeId, std::vector<std::size_t>> groups;
  std::vector<net::NodeId> order;  // deterministic frame order
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!fs::IsValidPath(paths[i]) || paths[i] == "/") {
      codes[i] = ErrCode::kInvalid;
      continue;
    }
    const net::NodeId node = DmsFor(paths[i]);
    auto [it, inserted] = groups.try_emplace(node);
    if (inserted) order.push_back(node);
    it->second.push_back(i);
  }
  for (const net::NodeId node : order) {
    const std::vector<std::size_t>& sent = groups[node];
    std::vector<std::string> subops;
    subops.reserve(sent.size());
    for (const std::size_t i : sent) {
      subops.push_back(fs::Pack(paths[i], mode, identity_, ts));
    }
    net::RpcResponse resp =
        co_await net::Call(channel_, node, proto::kDmsBatchMkdir,
                           net::wire::EncodeBatchRequest(subops));
    if (!resp.ok()) {
      for (const std::size_t i : sent) codes[i] = resp.code;
      continue;
    }
    std::vector<net::wire::BatchItem> items;
    if (!net::wire::DecodeBatchResponse(resp.payload, &items) ||
        items.size() != sent.size()) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
    for (std::size_t j = 0; j < sent.size(); ++j) {
      const std::size_t i = sent[j];
      codes[i] = items[j].code;
      if (codes[i] == ErrCode::kOk) {
        // Keep any live lease on the parent shadow-accurate, like Mkdir.
        NoteSubdir(fs::ParentPath(paths[i]), fs::BaseName(paths[i]), true);
      }
    }
  }
  co_return codes;
}

net::Task<Result<std::vector<ErrCode>>> LocoClient::PutMany(
    std::string dir_path, std::vector<PutEntry> entries) {
  if (!fs::IsValidPath(dir_path)) co_return ErrStatus(ErrCode::kInvalid);
  auto parent = co_await LookupDir(dir_path, fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  const std::uint64_t ts = Now();
  std::vector<ErrCode> codes(entries.size(), ErrCode::kOk);

  // Phase 1: the metadata half — one kFmsBatchSetSize frame per FMS the
  // names hash to.  Each reply item carries the file's uuid, which decides
  // the data half's routing.
  std::vector<fs::Uuid> uuids(entries.size());
  std::unordered_map<net::NodeId, std::vector<std::size_t>> fms_groups;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    fms_groups[FmsFor(parent->uuid, entries[i].name)].push_back(i);
  }
  for (auto& [node, idxs] : fms_groups) {
    std::vector<std::string> subops;
    subops.reserve(idxs.size());
    for (const std::size_t i : idxs) {
      subops.push_back(fs::Pack(parent->uuid, entries[i].name, identity_,
                                static_cast<std::uint64_t>(entries[i].data.size()),
                                std::uint8_t{1}, ts));
    }
    net::RpcResponse resp =
        co_await net::Call(channel_, node, proto::kFmsBatchSetSize,
                           net::wire::EncodeBatchRequest(subops));
    if (!resp.ok()) {
      for (const std::size_t i : idxs) codes[i] = resp.code;
      continue;
    }
    std::vector<net::wire::BatchItem> items;
    if (!net::wire::DecodeBatchResponse(resp.payload, &items) ||
        items.size() != idxs.size()) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      const std::size_t i = idxs[j];
      codes[i] = items[j].code;
      if (codes[i] != ErrCode::kOk) continue;
      std::uint64_t new_size = 0;
      if (!fs::Unpack(items[j].payload, uuids[i], new_size)) {
        co_return ErrStatus(ErrCode::kCorruption);
      }
    }
  }

  // Phase 2: the data half — one kObjBatchPut frame per object store the
  // uuids place onto.  Only entries whose metadata update succeeded ship.
  std::unordered_map<net::NodeId, std::vector<std::size_t>> obj_groups;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (codes[i] == ErrCode::kOk) obj_groups[ObjFor(uuids[i])].push_back(i);
  }
  for (auto& [node, idxs] : obj_groups) {
    std::vector<std::string> subops;
    subops.reserve(idxs.size());
    for (const std::size_t i : idxs) {
      subops.push_back(fs::Pack(uuids[i], std::uint64_t{0}, entries[i].data));
    }
    net::RpcResponse resp =
        co_await net::Call(channel_, node, proto::kObjBatchPut,
                           net::wire::EncodeBatchRequest(subops));
    if (!resp.ok()) {
      for (const std::size_t i : idxs) codes[i] = resp.code;
      continue;
    }
    std::vector<net::wire::BatchItem> items;
    if (!net::wire::DecodeBatchResponse(resp.payload, &items) ||
        items.size() != idxs.size()) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      codes[idxs[j]] = items[j].code;
    }
  }
  co_return codes;
}

net::Task<Result<std::vector<LocoClient::EntryPlus>>> LocoClient::ReaddirPlus(
    std::string path) {
  fs::Attr dir_attr;
  std::vector<fs::DirEntry> subdirs;
  if (path == "/" && cfg_.dms.size() > 1) {
    // Partitioned root subdir list: merge every shard's slice (see Readdir).
    auto responses = co_await net::CallMany(
        channel_, cfg_.dms, proto::kDmsReaddir, fs::Pack(path, identity_));
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].ok()) co_return ErrStatus(responses[i].code);
      fs::Attr shard_attr;
      std::vector<fs::DirEntry> shard_subdirs;
      if (!fs::Unpack(responses[i].payload, shard_attr, shard_subdirs)) {
        co_return ErrStatus(ErrCode::kCorruption);
      }
      if (i == 0) dir_attr = shard_attr;
      subdirs.insert(subdirs.end(),
                     std::make_move_iterator(shard_subdirs.begin()),
                     std::make_move_iterator(shard_subdirs.end()));
    }
  } else {
    net::RpcResponse resp = co_await net::Call(
        channel_, DmsFor(path), proto::kDmsReaddir, fs::Pack(path, identity_));
    if (!resp.ok()) co_return ErrStatus(resp.code);
    if (!fs::Unpack(resp.payload, dir_attr, subdirs)) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
  }
  std::vector<EntryPlus> entries;
  for (fs::DirEntry& d : subdirs) {
    EntryPlus e;
    e.name = std::move(d.name);
    e.is_dir = true;
    entries.push_back(std::move(e));
  }
  // One round trip per FMS replaces the per-file GetAttr fan-out a plain
  // readdir + stat loop would issue.
  std::vector<net::NodeId> fms = cfg_.fms;
  auto responses = co_await net::CallMany(channel_, std::move(fms),
                                          proto::kFmsReaddirPlus,
                                          fs::Pack(dir_attr.uuid));
  for (const net::RpcResponse& r : responses) {
    if (!r.ok()) co_return ErrStatus(r.code);
    std::vector<net::wire::BatchItem> items;
    if (!net::wire::DecodeBatchResponse(r.payload, &items)) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
    for (net::wire::BatchItem& item : items) {
      EntryPlus e;
      e.code = item.code;
      if (item.code == ErrCode::kOk) {
        if (!fs::Unpack(item.payload, e.name, e.attr)) {
          co_return ErrStatus(ErrCode::kCorruption);
        }
      } else if (!fs::Unpack(item.payload, e.name)) {
        co_return ErrStatus(ErrCode::kCorruption);
      }
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const EntryPlus& a, const EntryPlus& b) { return a.name < b.name; });
  co_return entries;
}

// ------------------------------------------------------------------ files --

net::Task<Status> LocoClient::Create(std::string path, std::uint32_t mode) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(ErrCode::kInvalid);
  }
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeWrite | fs::kModeExec, name);
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp = co_await net::Call(
      channel_, FmsFor(parent->uuid, name), proto::kFmsCreate,
      fs::Pack(parent->uuid, name, mode, identity_, Now()));
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::Unlink(std::string path) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(ErrCode::kInvalid);
  }
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeWrite | fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp =
      co_await net::Call(channel_, FmsFor(parent->uuid, name), proto::kFmsRemove,
                         fs::Pack(parent->uuid, name, identity_));
  if (resp.code == ErrCode::kNotFound) co_return co_await ClassifyMissingFile(path);
  co_return StatusFrom(resp);
}

net::Task<Result<fs::Attr>> LocoClient::StatFile(std::string path) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(ErrCode::kInvalid);
  }
  const std::string name(fs::BaseName(path));
  auto parent =
      co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp =
      co_await net::Call(channel_, FmsFor(parent->uuid, name), proto::kFmsGetAttr,
                         fs::Pack(parent->uuid, name));
  co_return AttrFrom(resp);
}

net::Task<Result<fs::Attr>> LocoClient::StatDir(std::string path) {
  if (path == "/" || !cfg_.cache_enabled) {
    net::RpcResponse resp = co_await net::Call(
        channel_, DmsFor(path), proto::kDmsStat, fs::Pack(path, identity_));
    co_return AttrFrom(resp);
  }
  co_return co_await LookupDir(std::move(path), 0, {});
}

net::Task<Result<fs::Attr>> LocoClient::Stat(std::string path) {
  if (path == "/") co_return co_await StatDir(std::move(path));
  auto file = co_await StatFile(path);
  // Fall back to the DMS when no file exists — and also when the file's
  // FMS is unreachable: the path may name a directory, which the (healthy)
  // DMS can still resolve.
  if (file.ok() || (file.code() != ErrCode::kNotFound &&
                    file.code() != ErrCode::kUnavailable)) {
    co_return file;
  }
  auto dir = co_await StatDir(std::move(path));
  if (!dir.ok() && dir.code() == ErrCode::kNotFound &&
      file.code() == ErrCode::kUnavailable) {
    co_return file.status();  // genuinely unknown: report the outage
  }
  co_return dir;
}

net::Task<Status> LocoClient::ChmodFile(std::string path, std::uint32_t mode) {
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp = co_await net::Call(
      channel_, FmsFor(parent->uuid, name), proto::kFmsChmod,
      fs::Pack(parent->uuid, name, identity_, mode, Now()));
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::Chmod(std::string path, std::uint32_t mode) {
  if (!fs::IsValidPath(path)) co_return ErrStatus(ErrCode::kInvalid);
  // Same fallback policy as Stat: consult the DMS when no file exists and
  // also when the file's FMS is unreachable — the path may name a directory
  // the (healthy) DMS can still serve.
  Status file = ErrStatus(ErrCode::kNotFound);
  if (path != "/") {
    file = co_await ChmodFile(path, mode);
    if (file.code() != ErrCode::kNotFound &&
        file.code() != ErrCode::kUnavailable) {
      co_return file;
    }
  }
  net::RpcResponse resp =
      co_await CallDmsWrite(channel_, cfg_.dms, DmsFor(path), path,
                            proto::kDmsChmod,
                            fs::Pack(path, identity_, mode, Now()));
  if (resp.ok()) InvalidatePrefix(path);
  if (resp.code == ErrCode::kNotFound &&
      file.code() == ErrCode::kUnavailable) {
    co_return file;  // genuinely unknown: report the outage
  }
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::ChownFile(std::string path, std::uint32_t uid,
                                        std::uint32_t gid) {
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp = co_await net::Call(
      channel_, FmsFor(parent->uuid, name), proto::kFmsChown,
      fs::Pack(parent->uuid, name, identity_, uid, gid, Now()));
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::Chown(std::string path, std::uint32_t uid,
                                    std::uint32_t gid) {
  if (!fs::IsValidPath(path)) co_return ErrStatus(ErrCode::kInvalid);
  Status file = ErrStatus(ErrCode::kNotFound);
  if (path != "/") {
    file = co_await ChownFile(path, uid, gid);
    if (file.code() != ErrCode::kNotFound &&
        file.code() != ErrCode::kUnavailable) {
      co_return file;
    }
  }
  net::RpcResponse resp =
      co_await CallDmsWrite(channel_, cfg_.dms, DmsFor(path), path,
                            proto::kDmsChown,
                            fs::Pack(path, identity_, uid, gid, Now()));
  if (resp.ok()) InvalidatePrefix(path);
  if (resp.code == ErrCode::kNotFound &&
      file.code() == ErrCode::kUnavailable) {
    co_return file;  // genuinely unknown: report the outage
  }
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::AccessFile(std::string path, std::uint32_t want) {
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp = co_await net::Call(
      channel_, FmsFor(parent->uuid, name), proto::kFmsAccess,
      fs::Pack(parent->uuid, name, identity_, want));
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::Access(std::string path, std::uint32_t want) {
  if (!fs::IsValidPath(path)) co_return ErrStatus(ErrCode::kInvalid);
  Status file = ErrStatus(ErrCode::kNotFound);
  if (path != "/") {
    file = co_await AccessFile(path, want);
    if (file.code() != ErrCode::kNotFound &&
        file.code() != ErrCode::kUnavailable) {
      co_return file;
    }
  }
  net::RpcResponse resp =
      co_await net::Call(channel_, DmsFor(path), proto::kDmsAccess,
                         fs::Pack(path, identity_, want));
  if (resp.code == ErrCode::kNotFound &&
      file.code() == ErrCode::kUnavailable) {
    co_return file;  // genuinely unknown: report the outage
  }
  co_return StatusFrom(resp);
}

net::Task<Status> LocoClient::Utimens(std::string path, std::uint64_t mtime,
                                      std::uint64_t atime) {
  if (!fs::IsValidPath(path)) co_return ErrStatus(ErrCode::kInvalid);
  Status file = ErrStatus(ErrCode::kNotFound);
  if (path != "/") {
    const std::string name(fs::BaseName(path));
    auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
    if (!parent.ok()) co_return parent.status();
    net::RpcResponse fresp = co_await net::Call(
        channel_, FmsFor(parent->uuid, name), proto::kFmsUtimens,
        fs::Pack(parent->uuid, name, identity_, mtime, atime));
    if (fresp.code != ErrCode::kNotFound &&
        fresp.code != ErrCode::kUnavailable) {
      co_return StatusFrom(fresp);
    }
    file = StatusFrom(fresp);
  }
  net::RpcResponse resp =
      co_await CallDmsWrite(channel_, cfg_.dms, DmsFor(path), path,
                            proto::kDmsUtimens,
                            fs::Pack(path, identity_, mtime, atime));
  if (resp.ok()) InvalidatePrefix(path);
  if (resp.code == ErrCode::kNotFound &&
      file.code() == ErrCode::kUnavailable) {
    co_return file;  // genuinely unknown: report the outage
  }
  co_return StatusFrom(resp);
}

// ------------------------------------------------------------------- data --

net::Task<Result<fs::Attr>> LocoClient::Open(std::string path) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(path == "/" ? ErrCode::kIsDir : ErrCode::kInvalid);
  }
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp =
      co_await net::Call(channel_, FmsFor(parent->uuid, name), proto::kFmsOpen,
                         fs::Pack(parent->uuid, name, identity_));
  if (resp.code == ErrCode::kNotFound) {
    co_return co_await ClassifyMissingFile(path);
  }
  co_return AttrFrom(resp);
}

net::Task<Status> LocoClient::Close(std::string path) {
  // LocoFS keeps no server-side open state beyond the file session the FMS
  // registered on Open/Create: drop it now (kFmsCloseSession) instead of
  // letting it age out or die with the connection.  Best-effort — close
  // itself never fails: a missing parent, an unreachable FMS, or an
  // anonymous (no-hello) peer all leave nothing worth closing.
  if (!fs::IsValidPath(path) || path == "/") co_return OkStatus();
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)), 0, {});
  if (parent.ok()) {
    // Session maintenance, not serving work: a saturated FMS may shed it
    // (the session then ages out via TTL or the disconnect hook).
    net::CallMeta close_meta;
    close_meta.priority = net::Priority::kBackground;
    (void)co_await net::Call(channel_, FmsFor(parent->uuid, name),
                             proto::kFmsCloseSession,
                             fs::Pack(parent->uuid, name), close_meta);
  }
  co_return OkStatus();
}

net::Task<Status> LocoClient::Truncate(std::string path, std::uint64_t size) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(path == "/" ? ErrCode::kIsDir : ErrCode::kInvalid);
  }
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp = co_await net::Call(
      channel_, FmsFor(parent->uuid, name), proto::kFmsSetSize,
      fs::Pack(parent->uuid, name, identity_, size, std::uint8_t{1}, Now()));
  if (resp.code == ErrCode::kNotFound) co_return co_await ClassifyMissingFile(path);
  if (!resp.ok()) co_return StatusFrom(resp);
  fs::Uuid uuid;
  std::uint64_t new_size = 0;
  if (!fs::Unpack(resp.payload, uuid, new_size)) {
    co_return ErrStatus(ErrCode::kCorruption);
  }
  net::RpcResponse obj = co_await net::Call(
      channel_, ObjFor(uuid), proto::kObjTruncate, fs::Pack(uuid, size));
  co_return StatusFrom(obj);
}

net::Task<Status> LocoClient::Write(std::string path, std::uint64_t offset,
                                    std::string data) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(path == "/" ? ErrCode::kIsDir : ErrCode::kInvalid);
  }
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp = co_await net::Call(
      channel_, FmsFor(parent->uuid, name), proto::kFmsSetSize,
      fs::Pack(parent->uuid, name, identity_, offset + data.size(),
               std::uint8_t{0}, Now()));
  if (resp.code == ErrCode::kNotFound) co_return co_await ClassifyMissingFile(path);
  if (!resp.ok()) co_return StatusFrom(resp);
  fs::Uuid uuid;
  std::uint64_t new_size = 0;
  if (!fs::Unpack(resp.payload, uuid, new_size)) {
    co_return ErrStatus(ErrCode::kCorruption);
  }
  net::RpcResponse obj =
      co_await net::Call(channel_, ObjFor(uuid), proto::kObjWrite,
                         fs::Pack(uuid, offset, data));
  co_return StatusFrom(obj);
}

net::Task<Result<std::string>> LocoClient::Read(std::string path,
                                                std::uint64_t offset,
                                                std::uint64_t length) {
  if (!fs::IsValidPath(path) || path == "/") {
    co_return ErrStatus(path == "/" ? ErrCode::kIsDir : ErrCode::kInvalid);
  }
  const std::string name(fs::BaseName(path));
  auto parent = co_await LookupDir(std::string(fs::ParentPath(path)),
                                   fs::kModeExec, {});
  if (!parent.ok()) co_return parent.status();
  net::RpcResponse resp = co_await net::Call(
      channel_, FmsFor(parent->uuid, name), proto::kFmsSetAtime,
      fs::Pack(parent->uuid, name, identity_, Now()));
  if (resp.code == ErrCode::kNotFound) {
    Status classified = co_await ClassifyMissingFile(path);
    co_return classified;
  }
  if (!resp.ok()) co_return ErrStatus(resp.code);
  fs::Uuid uuid;
  std::uint64_t size = 0;
  if (!fs::Unpack(resp.payload, uuid, size)) {
    co_return ErrStatus(ErrCode::kCorruption);
  }
  if (offset >= size) co_return std::string();
  const std::uint64_t n = std::min(length, size - offset);
  net::RpcResponse obj =
      co_await net::Call(channel_, ObjFor(uuid), proto::kObjRead,
                         fs::Pack(uuid, offset, n, size));
  if (!obj.ok()) co_return ErrStatus(obj.code);
  std::string data;
  if (!fs::Unpack(obj.payload, data)) co_return ErrStatus(ErrCode::kCorruption);
  co_return data;
}

// ----------------------------------------------------------------- rename --

net::Task<Status> LocoClient::Rename(std::string from, std::string to) {
  if (!fs::IsValidPath(from) || !fs::IsValidPath(to) || from == "/" ||
      to == "/") {
    co_return ErrStatus(ErrCode::kInvalid);
  }
  if (from == to) co_return OkStatus();
  if (to.size() > from.size() && to.compare(0, from.size(), from) == 0 &&
      to[from.size()] == '/') {
    co_return ErrStatus(ErrCode::kInvalid);
  }

  // Try f-rename first: read the raw fixed-layout parts from the source FMS.
  const std::string from_name(fs::BaseName(from));
  const std::string to_name(fs::BaseName(to));
  auto src_parent = co_await LookupDir(std::string(fs::ParentPath(from)),
                                       fs::kModeWrite | fs::kModeExec, {});
  if (!src_parent.ok()) co_return src_parent.status();
  net::RpcResponse raw = co_await net::Call(
      channel_, FmsFor(src_parent->uuid, from_name), proto::kFmsReadRaw,
      fs::Pack(src_parent->uuid, from_name));
  if (raw.ok()) {
    auto dst_parent = co_await LookupDir(std::string(fs::ParentPath(to)),
                                         fs::kModeWrite | fs::kModeExec, {});
    if (!dst_parent.ok()) co_return dst_parent.status();
    // A directory at the destination shadows the file rename.
    net::RpcResponse dir_probe = co_await net::Call(
        channel_, DmsFor(to), proto::kDmsStat, fs::Pack(to, identity_));
    if (dir_probe.ok()) co_return ErrStatus(ErrCode::kExists);
    std::string access, content;
    if (!fs::Unpack(raw.payload, access, content)) {
      co_return ErrStatus(ErrCode::kCorruption);
    }
    net::RpcResponse ins = co_await net::Call(
        channel_, FmsFor(dst_parent->uuid, to_name), proto::kFmsInsertRaw,
        fs::Pack(dst_parent->uuid, to_name, access, content));
    if (!ins.ok()) co_return StatusFrom(ins);
    net::RpcResponse rm = co_await net::Call(
        channel_, FmsFor(src_parent->uuid, from_name), proto::kFmsRemove,
        fs::Pack(src_parent->uuid, from_name, identity_));
    if (!rm.ok()) {
      // The insert applied but the remove did not: two dirents now share one
      // file uuid.  Converge the namespace toward the outcome we report.  A
      // shed remove (kOverloaded) definitely never executed, but an earlier
      // attempt may have applied ambiguously, so probe the source: gone means
      // the remove did land (the rename is complete); still present means we
      // undo the insert so the reported failure matches the namespace.  Best
      // effort — a probe or undo that itself fails leaves the duplicate for
      // fsck to resolve.
      net::RpcResponse probe = co_await net::Call(
          channel_, FmsFor(src_parent->uuid, from_name), proto::kFmsGetAttr,
          fs::Pack(src_parent->uuid, from_name));
      if (probe.code == ErrCode::kNotFound) co_return OkStatus();
      if (probe.ok()) {
        (void)co_await net::Call(
            channel_, FmsFor(dst_parent->uuid, to_name), proto::kFmsRemove,
            fs::Pack(dst_parent->uuid, to_name, identity_));
      }
    }
    co_return StatusFrom(rm);
  }
  if (raw.code != ErrCode::kNotFound) co_return StatusFrom(raw);

  // d-rename.  Source existence is verified first: a missing source
  // dominates any destination-side condition.
  net::RpcResponse src_probe = co_await net::Call(
      channel_, DmsFor(from), proto::kDmsStat, fs::Pack(from, identity_));
  if (!src_probe.ok()) co_return StatusFrom(src_probe);

  // The destination must not exist as a file either.
  auto dst_parent = co_await LookupDir(std::string(fs::ParentPath(to)), 0, {});
  if (dst_parent.ok()) {
    net::RpcResponse file_probe = co_await net::Call(
        channel_, FmsFor(dst_parent->uuid, to_name), proto::kFmsGetAttr,
        fs::Pack(dst_parent->uuid, to_name));
    if (file_probe.ok()) co_return ErrStatus(ErrCode::kExists);
  }
  const net::NodeId src_node = DmsFor(from);
  const net::NodeId dst_node = DmsFor(to);
  if (src_node != dst_node) {
    co_return co_await RenameAcrossShards(std::move(from), std::move(to),
                                          src_node, dst_node);
  }
  net::RpcResponse resp = co_await net::Call(
      channel_, src_node, proto::kDmsRename, fs::Pack(from, to, identity_));
  if (resp.ok()) {
    InvalidatePrefix(from);
    NoteSubdir(fs::ParentPath(from), from_name, false);
    NoteSubdir(fs::ParentPath(to), to_name, true);
  }
  co_return StatusFrom(resp);
}

// Cross-shard directory rename (docs/SHARDING.md): a client-driven 2PC with
// a durable intent on the source shard and a durable incoming marker on the
// destination shard.  The commit installs the moved root last, so "`to`
// exists at the destination with the moved root's uuid" is the transfer's
// commit point — every recovery decision (here, in fsck, and in the daemon
// intent GC) branches on that single predicate.
net::Task<Status> LocoClient::RenameAcrossShards(std::string from,
                                                 std::string to,
                                                 net::NodeId src_node,
                                                 net::NodeId dst_node) {
  const std::uint64_t txid = MintTxid();

  // Phase 1: prepare — persist the intent, lock the subtree against other
  // mutations, and package its d-inodes + dirent lists.
  net::RpcResponse prep =
      co_await net::Call(channel_, src_node, proto::kDmsRenamePrepare,
                         fs::Pack(from, to, txid, identity_));
  // Failure responses leave no durable source state; a transport timeout may
  // have persisted the intent, which the source daemon's intent GC ages out.
  if (!prep.ok()) co_return StatusFrom(prep);
  std::vector<std::string> entries;
  if (!fs::Unpack(prep.payload, entries)) {
    (void)co_await net::Call(channel_, src_node, proto::kDmsRenameAbort,
                             fs::Pack(txid));
    co_return ErrStatus(ErrCode::kCorruption);
  }
  // The moved root's uuid (the rel == "" entry) identifies *our* transfer at
  // the destination in the ambiguity probe below.
  fs::Uuid moved_uuid;
  bool have_uuid = false;
  for (const std::string& e : entries) {
    std::string rel, dinode, dirent_value;
    if (!fs::Unpack(e, rel, dinode, dirent_value) || !rel.empty()) continue;
    moved_uuid = DirInodeLayout::Parse(dinode).uuid;
    have_uuid = true;
    break;
  }
  if (!have_uuid) {
    (void)co_await net::Call(channel_, src_node, proto::kDmsRenameAbort,
                             fs::Pack(txid));
    co_return ErrStatus(ErrCode::kCorruption);
  }

  // Rollback helper.  Order matters: the destination must be fenced (its
  // tombstone blocks a still-queued commit) *before* the source intent is
  // dropped — aborting the source first could let a late commit materialize
  // an orphan subtree no intent points at.  If the fence cannot be
  // confirmed, the source intent is left in place for fsck/GC.
  auto roll_back = [this, txid, src_node, dst_node]() -> net::Task<bool> {
    net::RpcResponse fence =
        co_await net::Call(channel_, dst_node, proto::kDmsAbortIncoming,
                           fs::Pack(txid, std::uint8_t{1}));
    if (!fence.ok()) co_return false;
    (void)co_await net::Call(channel_, src_node, proto::kDmsRenameAbort,
                             fs::Pack(txid));
    co_return true;
  };

  // Phase 2: commit on the destination shard.
  net::RpcResponse commit =
      co_await net::Call(channel_, dst_node, proto::kDmsRenameCommit,
                         fs::Pack(txid, to, identity_, entries));
  if (!commit.ok()) {
    // kTimeout/kUnavailable mean the frame may still execute server-side;
    // every other code is a response the destination actually sent, i.e. a
    // definite "not committed".
    const bool ambiguous = commit.code == ErrCode::kTimeout ||
                           commit.code == ErrCode::kUnavailable;
    if (!ambiguous) {
      (void)co_await roll_back();
      co_return StatusFrom(commit);
    }
    net::RpcResponse probe = co_await net::Call(
        channel_, dst_node, proto::kDmsStat, fs::Pack(to, identity_));
    if (probe.ok()) {
      fs::Attr attr;
      if (fs::Unpack(probe.payload, attr) && attr.uuid == moved_uuid) {
        // Our transfer landed after all: fall through to Finish.
      } else {
        // A foreign directory occupies the destination.
        (void)co_await roll_back();
        co_return ErrStatus(ErrCode::kExists);
      }
    } else if (probe.code == ErrCode::kNotFound) {
      (void)co_await roll_back();
      co_return StatusFrom(commit);
    } else {
      // Probe unreachable: resolution is left to fsck / the intent GC.
      co_return StatusFrom(commit);
    }
  }

  // Phase 3: finish — drop the source copy.  Best effort: the destination
  // already owns the subtree, and an unreachable source resolves via its
  // intent (dst root present => roll forward).
  (void)co_await net::Call(channel_, src_node, proto::kDmsRenameFinish,
                           fs::Pack(txid));

  InvalidatePrefix(from);
  NoteSubdir(fs::ParentPath(from), fs::BaseName(from), false);
  NoteSubdir(fs::ParentPath(to), fs::BaseName(to), true);
  co_return OkStatus();
}

}  // namespace loco::core
