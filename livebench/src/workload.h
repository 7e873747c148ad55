// The three closed-loop workloads: deterministic per-client operation
// generators, the client-side ledger of acknowledged operations, and the
// loop that drives one client.
//
// A generator is a pure function of (workload, parameters, seed, client):
// it tracks the namespace its own operations produce, assuming each one
// succeeds, so the same seed always yields the same operation sequence no
// matter how fast the servers answer.  Every client works in names it owns,
// so no client's sequence depends on another's.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/client.h"

namespace livebench {

enum class OpKind : std::uint8_t {
  kCreate = 0,
  kCreateMany,
  kStat,
  kStatMany,
  kUnlink,
  kMkdir,
  kRmdir,
  kRename,
  kReaddir,
  kReaddirPlus,
  kChmod,
};
constexpr int kOpKindCount = 11;
const char* OpName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kStat;
  std::string path;   // target; the directory for *Many and ReaddirPlus
  std::string path2;  // rename destination
  std::uint32_t mode = 0;
  // CreateMany/StatMany: the names; ReaddirPlus: the exact listing
  // expected; Readdir: names the listing must include.
  std::vector<std::string> names;

  // Items this call completes: a batched call counts its entries.
  std::uint64_t items() const {
    return kind == OpKind::kCreateMany || kind == OpKind::kStatMany
               ? names.size()
               : 1;
  }
  bool mutating() const;
  bool operator==(const Op& o) const {
    return kind == o.kind && path == o.path && path2 == o.path2 &&
           mode == o.mode && names == o.names;
  }
};

enum class Workload { kWideDir, kBatchIngest, kNamespace };
const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

struct Params {
  int clients = 4;
  // Every workload: an aged namespace each client loads first and the
  // timed phase never touches (/h<c>/d<i>, aged_dirs directories of
  // aged_files files each).  It gives the set-up real work to measure.
  int aged_dirs = 64;
  int aged_files = 64;
  // wide_dir: files preloaded into the shared directory (its width).
  int wide_width = 400;
  // batch_ingest: files per ingested directory, live directories per client.
  int batch_files = 64;
  int batch_keep = 4;
  // namespace: top-level subtrees (half per DMS shard), files per leaf
  // directory, work directories per client.
  int ns_subtrees = 8;
  int ns_leaf_files = 50;
  int ns_work_dirs = 8;
  int dms_shards = 2;
};

// namespace: the top-level subtree names, half owned by each DMS shard, and
// the depth-4 leaf directory of subtree k.
std::vector<std::string> NamespaceRoots(const Params& p);
// wide_dir: each client's work directory (/ws<i>); consecutive clients sit
// on different DMS shards, so a rename into the next client's directory
// crosses shards.
std::vector<std::string> WideWorkDirs(const Params& p);
std::string NamespaceLeaf(const std::vector<std::string>& roots, int k);

// Operations that build the directories all clients share (run once, before
// any client's own preload).
std::vector<Op> SharedPreload(Workload w, const Params& p);

class Generator {
 public:
  Generator(Workload w, const Params& p, std::uint64_t seed, int client);

  // This client's own preload, run before the timed phase.
  std::vector<Op> Preload();
  // The next timed operation.
  Op Next();

 private:
  Op NextWide();
  Op NextBatch();
  Op NextNamespace();
  // `n` distinct random file names.
  std::vector<std::string> FreshNames(int n);

  Workload w_;
  Params p_;
  int client_;
  loco::common::Rng rng_;
  std::uint64_t next_ = 0;     // next fresh name index
  // Alternation of add/remove pairs: wide_dir files, namespace work dirs.
  bool create_next_ = true;
  // Position in a multi-op cycle (wide_dir side cycle, batch_ingest cycle);
  // namespace: the file create/unlink alternation.
  int step_ = 0;
  std::uint64_t side_ = 0;     // wide_dir side-cycle index
  std::uint32_t ws_mode_ = 0;  // wide_dir: the mode last set on our /ws dir
  std::deque<std::string> live_;  // wide_dir / namespace files: oldest first
  // batch_ingest: live directory indexes (oldest first) with their file
  // names, and the current batch (after the ReaddirPlus step: the oldest
  // directory's files in removal order).
  std::deque<std::uint64_t> dirs_;
  std::map<std::uint64_t, std::vector<std::string>> dir_names_;
  std::vector<std::string> batch_;
  // wide_dir: work directories; namespace: subtree roots.  namespace: work
  // directories (name, leaf index), modes of
  // the leaf directories this client chmods.
  std::vector<std::string> roots_;
  std::deque<std::pair<std::string, int>> work_;
  std::map<int, std::uint32_t> leaf_modes_;
  int chmod_turn_ = 0;
};

// Expected state of one path after every acknowledged operation.
struct Expect {
  bool present = false;
  bool is_dir = false;
  std::uint32_t mode = 0;  // 0 = not checked
};

// The client-side log, folded: path -> expected state.  Apply only
// acknowledged operations.
class Ledger {
 public:
  void Apply(const Op& op);
  void Merge(const Ledger& other);
  const std::map<std::string, Expect>& entries() const { return entries_; }

 private:
  std::map<std::string, Expect> entries_;
};

// Issue `op` on `client` and check what came back (every batch entry OK,
// listings complete).  Returns true on success; otherwise *why says why.
bool Execute(loco::core::LocoClient& client, const Op& op, std::string* why);

// What one client completed in one window of a timed phase.
struct WindowTally {
  std::vector<std::vector<double>> latency_us =
      std::vector<std::vector<double>>(kOpKindCount);
  std::uint64_t items = 0;  // acknowledged items
};

// Per-client tallies of a timed phase, split into equal windows by
// completion time (calls completing after the deadline join the last).
struct ClientTally {
  std::vector<WindowTally> windows;
  std::uint64_t attempted = 0;  // items
  std::uint64_t failed = 0;     // items
  std::uint64_t mutating = 0;   // acknowledged mutating items
  std::uint64_t rename_cross = 0;
  std::uint64_t rename_total = 0;
  std::string first_error;
};

// Run `gen` on `client` from `start_ns` until `deadline_ns` (steady clock),
// recording into *tally (`windows` windows) and folding acknowledged
// operations into *ledger.  In the traced run each call is a client span.
void RunClient(loco::core::LocoClient& client, Generator& gen,
               std::int64_t start_ns, std::int64_t deadline_ns, int windows,
               int client_index, const Params& p, Ledger* ledger,
               ClientTally* tally);

std::int64_t SteadyNs();

}  // namespace livebench
