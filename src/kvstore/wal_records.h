// Shared WAL record encoding for the mutation log of HashKV / BTreeKV and
// the LSM write path.  One record per logical mutation:
//   put:    [kOpPut][bytes key][bytes value]
//   delete: [kOpDelete][bytes key]
//   patch:  [kOpPatch][bytes key][u64 offset][bytes patch]
//   append: [kOpAppend][bytes key][bytes suffix]
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/codec.h"

namespace loco::kv::walrec {

constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpDelete = 2;
constexpr std::uint8_t kOpPatch = 3;
constexpr std::uint8_t kOpAppend = 4;

inline std::string EncodePut(std::string_view key, std::string_view value) {
  common::Writer w;
  w.PutU8(kOpPut);
  w.PutBytes(key);
  w.PutBytes(value);
  return w.Take();
}

inline std::string EncodeDelete(std::string_view key) {
  common::Writer w;
  w.PutU8(kOpDelete);
  w.PutBytes(key);
  return w.Take();
}

inline std::string EncodePatch(std::string_view key, std::uint64_t offset,
                               std::string_view patch) {
  common::Writer w;
  w.PutU8(kOpPatch);
  w.PutBytes(key);
  w.PutU64(offset);
  w.PutBytes(patch);
  return w.Take();
}

inline std::string EncodeAppend(std::string_view key, std::string_view suffix) {
  common::Writer w;
  w.PutU8(kOpAppend);
  w.PutBytes(key);
  w.PutBytes(suffix);
  return w.Take();
}

// One decoded record; `value` is the put value, patch bytes or append
// suffix (empty for a delete).  Views point into the record buffer.
struct Record {
  std::uint8_t op = 0;
  std::string_view key;
  std::string_view value;
  std::uint64_t offset = 0;
};

// False for a malformed record or an unknown op; replay skips those.
inline bool Decode(std::string_view rec, Record* out) {
  common::Reader r(rec);
  out->op = r.GetU8();
  out->key = r.GetBytes();
  switch (out->op) {
    case kOpPut:
    case kOpAppend:
      out->value = r.GetBytes();
      break;
    case kOpDelete:
      out->value = {};
      break;
    case kOpPatch:
      out->offset = r.GetU64();
      out->value = r.GetBytes();
      break;
    default:
      return false;
  }
  return r.ok();
}

}  // namespace loco::kv::walrec
