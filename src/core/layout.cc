#include "core/layout.h"

#include "common/hash.h"

namespace loco::core {

namespace {

// Visit each record of a dirent value as fn(name, is_tombstone); a truncated
// trailing record ends the walk.
template <typename Fn>
void ForEachDirentRecord(std::string_view value, Fn&& fn) {
  std::size_t pos = 0;
  while (value.size() - pos >= 4) {
    const std::uint32_t word = common::LoadAt<std::uint32_t>(value, pos);
    const std::size_t len = word & ~kDirentTombstone;
    if (value.size() - pos - 4 < len) return;
    fn(value.substr(pos + 4, len), (word & kDirentTombstone) != 0);
    pos += 4 + len;
  }
}

void PutDirentRecord(std::string* out, std::string_view name, bool tombstone) {
  const std::uint32_t word = static_cast<std::uint32_t>(name.size()) |
                             (tombstone ? kDirentTombstone : 0);
  const std::size_t at = out->size();
  out->resize(at + 4);
  common::StoreAt<std::uint32_t>(out, at, word);
  out->append(name);
}

struct DirentRecord {
  std::string_view name;
  bool tombstone;
  bool cancelled;
};

// Mark the live records the tombstones cancel.  Each tombstoned name gets a
// slot in a flat hash table holding the FIFO of its live occurrences not yet
// cancelled (linked through `next`); a tombstone cancels the FIFO's head.
// O(n) expected, one allocation per array.
void CancelTombstoned(std::vector<DirentRecord>* records,
                      std::size_t tombstones) {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Slot {
    std::uint32_t name = kNone;  // a record carrying the slot's name
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  std::vector<DirentRecord>& recs = *records;
  std::size_t mask = 15;
  while (mask + 1 < 2 * tombstones) mask = mask * 2 + 1;
  std::vector<Slot> table(mask + 1);
  std::vector<std::uint64_t> hashes(recs.size());
  // The slot for `i`'s name; an empty slot if the name is not tombstoned.
  auto slot_of = [&](std::size_t i) -> Slot& {
    for (std::size_t at = hashes[i] & mask;; at = (at + 1) & mask) {
      Slot& s = table[at];
      if (s.name == kNone || (hashes[s.name] == hashes[i] &&
                              recs[s.name].name == recs[i].name)) {
        return s;
      }
    }
  };
  for (std::size_t i = 0; i < recs.size(); ++i) {
    hashes[i] = common::WyMix(recs[i].name, 0);
    if (recs[i].tombstone) {
      Slot& s = slot_of(i);
      if (s.name == kNone) s.name = static_cast<std::uint32_t>(i);
    }
  }
  std::vector<std::uint32_t> next(recs.size(), kNone);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Slot& s = slot_of(i);
    if (s.name == kNone) continue;  // never tombstoned: stays live
    if (!recs[i].tombstone) {
      if (s.head == kNone) {
        s.head = static_cast<std::uint32_t>(i);
      } else {
        next[s.tail] = static_cast<std::uint32_t>(i);
      }
      s.tail = static_cast<std::uint32_t>(i);
    } else if (s.head != kNone) {
      recs[s.head].cancelled = true;
      s.head = next[s.head];
    }
  }
}

// Record counts of a dirent value, and how many times `name` is live in it.
struct DirentCounts {
  std::size_t records = 0;
  std::size_t tombstones = 0;
  std::size_t listed = 0;
};

DirentCounts CountDirents(std::string_view value, std::string_view name) {
  DirentCounts c;
  ForEachDirentRecord(value, [&](std::string_view candidate, bool tombstone) {
    ++c.records;
    c.tombstones += tombstone ? 1 : 0;
    if (candidate != name) return;
    if (!tombstone) {
      ++c.listed;
    } else if (c.listed > 0) {
      --c.listed;
    }
  });
  return c;
}

}  // namespace

std::vector<std::string> ParseDirentList(std::string_view value) {
  std::size_t count = 0;
  std::size_t tombstones = 0;
  ForEachDirentRecord(value, [&](std::string_view, bool tombstone) {
    ++count;
    tombstones += tombstone ? 1 : 0;
  });
  std::vector<std::string> names;
  names.reserve(count - tombstones);
  if (tombstones == 0) {
    ForEachDirentRecord(value, [&](std::string_view name, bool) {
      names.emplace_back(name);
    });
    return names;
  }
  std::vector<DirentRecord> records;
  records.reserve(count);
  ForEachDirentRecord(value, [&](std::string_view name, bool tombstone) {
    records.push_back(DirentRecord{name, tombstone, false});
  });
  CancelTombstoned(&records, tombstones);
  for (const DirentRecord& r : records) {
    if (!r.tombstone && !r.cancelled) names.emplace_back(r.name);
  }
  return names;
}

bool DirentListContains(std::string_view value, std::string_view name) {
  return CountDirents(value, name).listed > 0;
}

Status AppendDirent(kv::Kv* dirents, fs::Uuid dir, std::string_view name) {
  std::string record;
  PutDirentRecord(&record, name, false);
  return dirents->Append(DirentKey(dir), record);
}

Status RemoveDirent(kv::Kv* dirents, fs::Uuid dir, std::string_view name) {
  const std::string key = DirentKey(dir);
  std::string value;
  LOCO_RETURN_IF_ERROR(dirents->Get(key, &value));
  const DirentCounts c = CountDirents(value, name);
  if (c.listed == 0) return ErrStatus(ErrCode::kNotFound);

  std::string tombstone;
  PutDirentRecord(&tombstone, name, true);
  // Each tombstone cancels at most one name, so with this one appended at
  // most 2 * (tombstones + 1) of the records + 1 are dead: append while that
  // bound does not exceed the live rest.
  if (4 * (c.tombstones + 1) <= c.records + 1) {
    return dirents->Append(key, tombstone);
  }

  value += tombstone;
  const std::vector<std::string> names = ParseDirentList(value);
  if (names.empty()) return dirents->Delete(key);
  std::string compacted;
  for (const std::string& n : names) PutDirentRecord(&compacted, n, false);
  return dirents->Put(key, compacted);
}

}  // namespace loco::core
