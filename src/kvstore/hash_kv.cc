#include "kvstore/hash_kv.h"

#include <cassert>
#include <utility>

#include "common/hash.h"
#include "kvstore/wal_records.h"

namespace loco::kv {

namespace {
constexpr std::size_t kInitialCapacity = 64;
constexpr double kMaxLoad = 0.70;

std::uint64_t KeyHash(std::string_view key) noexcept {
  // Never zero/used as "empty" marker; Mix64 of FNV avoids clustering.
  return common::Mix64(common::Fnv1a64(key)) | 1;
}
}  // namespace

HashKV::HashKV(const KvOptions& options) : options_(options) {
  slots_.resize(kInitialCapacity);
}

Status HashKV::Open() {
  if (options_.dir.empty()) return OkStatus();
  const std::string path = options_.dir + "/hashkv.wal";
  replaying_ = true;
  auto replayed = Wal::Replay(path, [this](std::string_view rec) {
    walrec::Record r;
    if (!walrec::Decode(rec, &r)) return;
    switch (r.op) {
      case walrec::kOpPut: InsertNoLog(r.key, r.value); break;
      case walrec::kOpDelete: EraseNoLog(r.key); break;
      case walrec::kOpPatch: (void)PatchNoLog(r.key, r.offset, r.value); break;
      case walrec::kOpAppend: AppendNoLog(r.key, r.value); break;
    }
  });
  replaying_ = false;
  if (!replayed.ok()) return replayed.status();
  return wal_.Open(path, options_.sync_writes);
}

std::size_t HashKV::ProbeDistance(std::size_t slot_index,
                                  std::uint64_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  const std::size_t home = static_cast<std::size_t>(hash) & mask;
  return (slot_index - home) & mask;
}

void HashKV::Rehash(std::size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(new_capacity);
  size_ = 0;
  for (Slot& s : old) {
    if (s.used) InsertNoLog(s.key, s.value);
  }
}

void HashKV::InsertNoLog(std::string_view key, std::string_view value) {
  if (static_cast<double>(size_ + 1) >
      kMaxLoad * static_cast<double>(slots_.size())) {
    Rehash(slots_.size() * 2);
  }
  const std::size_t mask = slots_.size() - 1;
  Slot incoming;
  incoming.hash = KeyHash(key);
  incoming.used = true;
  incoming.key.assign(key);
  incoming.value.assign(value);

  std::size_t idx = static_cast<std::size_t>(incoming.hash) & mask;
  std::size_t dist = 0;
  for (;;) {
    Slot& s = slots_[idx];
    if (!s.used) {
      s = std::move(incoming);
      ++size_;
      return;
    }
    if (s.hash == incoming.hash && s.key == incoming.key) {
      s.value = std::move(incoming.value);  // overwrite existing
      return;
    }
    const std::size_t their_dist = ProbeDistance(idx, s.hash);
    if (their_dist < dist) {  // robin hood: steal from the rich
      std::swap(s, incoming);
      dist = their_dist;
    }
    idx = (idx + 1) & mask;
    ++dist;
  }
}

bool HashKV::EraseNoLog(std::string_view key) {
  const std::uint64_t hash = KeyHash(key);
  const std::size_t mask = slots_.size() - 1;
  std::size_t idx = static_cast<std::size_t>(hash) & mask;
  std::size_t dist = 0;
  for (;;) {
    Slot& s = slots_[idx];
    if (!s.used || dist > ProbeDistance(idx, s.hash)) return false;
    if (s.hash == hash && s.key == key) break;
    idx = (idx + 1) & mask;
    ++dist;
  }
  // Backward-shift deletion keeps probe chains dense.
  std::size_t hole = idx;
  for (;;) {
    const std::size_t next = (hole + 1) & mask;
    Slot& n = slots_[next];
    if (!n.used || ProbeDistance(next, n.hash) == 0) break;
    slots_[hole] = std::move(n);
    n.used = false;
    n.key.clear();
    n.value.clear();
    hole = next;
  }
  slots_[hole].used = false;
  slots_[hole].key.clear();
  slots_[hole].value.clear();
  --size_;
  return true;
}

Status HashKV::PatchNoLog(std::string_view key, std::uint64_t offset,
                          std::string_view patch) {
  Slot* s = Find(key);
  if (s == nullptr) return ErrStatus(ErrCode::kNotFound);
  if (offset + patch.size() > s->value.size()) {
    return ErrStatus(ErrCode::kInvalid, "patch out of range");
  }
  s->value.replace(static_cast<std::size_t>(offset), patch.size(), patch);
  return OkStatus();
}

void HashKV::AppendNoLog(std::string_view key, std::string_view suffix) {
  if (Slot* s = Find(key); s != nullptr) {
    s->value.append(suffix);
  } else {
    InsertNoLog(key, suffix);
  }
}

HashKV::Slot* HashKV::Find(std::string_view key) noexcept {
  return const_cast<Slot*>(std::as_const(*this).Find(key));
}

const HashKV::Slot* HashKV::Find(std::string_view key) const noexcept {
  const std::uint64_t hash = KeyHash(key);
  const std::size_t mask = slots_.size() - 1;
  std::size_t idx = static_cast<std::size_t>(hash) & mask;
  std::size_t dist = 0;
  for (;;) {
    const Slot& s = slots_[idx];
    if (!s.used || dist > ProbeDistance(idx, s.hash)) return nullptr;
    if (s.hash == hash && s.key == key) return &s;
    idx = (idx + 1) & mask;
    ++dist;
  }
}

Status HashKV::LogAppend(const std::string& record) {
  if (!wal_.IsOpen() || replaying_) return OkStatus();
  stats_.io_ops += 1;
  stats_.io_bytes += record.size() + 8;  // + frame header
  return wal_.Append(record);
}

Status HashKV::Put(std::string_view key, std::string_view value) {
  stats_.puts += 1;
  stats_.bytes_written += key.size() + value.size();
  InsertNoLog(key, value);
  return LogAppend(walrec::EncodePut(key, value));
}

Status HashKV::Get(std::string_view key, std::string* value) const {
  stats_.gets += 1;
  const Slot* s = Find(key);
  if (s == nullptr) return ErrStatus(ErrCode::kNotFound);
  value->assign(s->value);
  stats_.bytes_read += s->value.size();
  return OkStatus();
}

Status HashKV::Delete(std::string_view key) {
  stats_.deletes += 1;
  if (!EraseNoLog(key)) return ErrStatus(ErrCode::kNotFound);
  return LogAppend(walrec::EncodeDelete(key));
}

bool HashKV::Contains(std::string_view key) const {
  stats_.gets += 1;
  return Find(key) != nullptr;
}

Status HashKV::PatchValue(std::string_view key, std::size_t offset,
                          std::string_view patch) {
  stats_.patches += 1;
  LOCO_RETURN_IF_ERROR(PatchNoLog(key, offset, patch));
  stats_.bytes_written += patch.size();
  return LogAppend(walrec::EncodePatch(key, offset, patch));
}

Status HashKV::Append(std::string_view key, std::string_view suffix) {
  stats_.appends += 1;
  stats_.bytes_written += suffix.size();
  AppendNoLog(key, suffix);
  return LogAppend(walrec::EncodeAppend(key, suffix));
}

Status HashKV::ReadValueAt(std::string_view key, std::size_t offset,
                           std::size_t len, std::string* out) const {
  stats_.gets += 1;
  const Slot* s = Find(key);
  if (s == nullptr) return ErrStatus(ErrCode::kNotFound);
  if (offset + len > s->value.size()) {
    return ErrStatus(ErrCode::kInvalid, "read out of range");
  }
  out->assign(s->value, offset, len);
  stats_.bytes_read += len;
  return OkStatus();
}

Status HashKV::ScanPrefix(std::string_view prefix, std::size_t limit,
                          std::vector<Entry>* out) const {
  stats_.scans += 1;
  // Hash mode has no key order: every record must be visited (the cost the
  // paper's Fig. 14 attributes to "hash DB" renames).
  for (const Slot& s : slots_) {
    if (!s.used) continue;
    stats_.scan_items += 1;
    if (s.key.size() >= prefix.size() &&
        std::string_view(s.key).substr(0, prefix.size()) == prefix) {
      out->emplace_back(s.key, s.value);
      stats_.bytes_read += s.value.size();
      if (limit != 0 && out->size() >= limit) break;
    }
  }
  return OkStatus();
}

void HashKV::ForEach(
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  stats_.scans += 1;
  for (const Slot& s : slots_) {
    if (!s.used) continue;
    stats_.scan_items += 1;
    if (!fn(s.key, s.value)) return;
  }
}

}  // namespace loco::kv
