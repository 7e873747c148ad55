#include "verify.h"

#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/connect.h"
#include "fs/path.h"
#include "net/task.h"

namespace livebench {

using loco::ErrCode;
using loco::net::RunInline;

namespace {

constexpr std::size_t kStatChunk = 512;

struct Child {
  std::string name;
  bool is_dir = false;
};

// One unit of checking: a directory (present or absent), or the files of a
// present directory.
struct Task {
  std::string dir;
  Expect expect;
  std::vector<Child> children;          // expected listing (present dirs)
  std::vector<std::string> present_files;
  std::vector<std::string> absent_files;
};

class Checker {
 public:
  explicit Checker(loco::core::LocoClient& c) : c_(c) {}

  void Run(const Task& t) {
    if (!t.expect.present) {
      auto r = RunInline(c_.StatDir(t.dir));
      Note(r.code() == ErrCode::kNotFound, "dir still present: " + t.dir);
      return;
    }
    auto st = RunInline(c_.StatDir(t.dir));
    if (!Note(st.ok() && st->is_dir, "dir missing: " + t.dir)) return;
    if (t.expect.mode != 0) {
      Note((st->mode & 07777) == t.expect.mode, "dir mode differs: " + t.dir);
    }
    auto listing = RunInline(c_.Readdir(t.dir));
    if (Note(listing.ok(), "readdir failed: " + t.dir)) {
      std::set<std::pair<std::string, bool>> got;
      for (const auto& e : *listing) got.emplace(e.name, e.is_dir);
      std::set<std::pair<std::string, bool>> want;
      for (const Child& ch : t.children) want.emplace(ch.name, ch.is_dir);
      Note(got == want, "listing differs: " + t.dir + " (" +
                            std::to_string(got.size()) + " entries, want " +
                            std::to_string(want.size()) + ")");
    }
    StatFiles(t.dir, t.present_files, true);
    StatFiles(t.dir, t.absent_files, false);
  }

  VerifyResult result;

 private:
  void StatFiles(const std::string& dir, const std::vector<std::string>& names,
                 bool present) {
    for (std::size_t i = 0; i < names.size(); i += kStatChunk) {
      const std::size_t n = std::min(kStatChunk, names.size() - i);
      std::vector<std::string> chunk(names.begin() + i, names.begin() + i + n);
      auto r = RunInline(c_.StatMany(dir, chunk));
      if (!Note(r.ok() && r->size() == n, "stat batch failed: " + dir)) continue;
      for (std::size_t k = 0; k < n; ++k) {
        const auto& e = (*r)[k];
        const bool ok = present ? e.code == ErrCode::kOk && !e.attr.is_dir
                                : e.code == ErrCode::kNotFound;
        Note(ok, std::string(present ? "file missing: " : "file still present: ") +
                     dir + "/" + chunk[k]);
      }
    }
  }

  bool Note(bool ok, const std::string& what) {
    ++result.checked;
    if (!ok) {
      ++result.mismatches;
      if (result.examples.size() < 5) result.examples.push_back(what);
    }
    return ok;
  }

  loco::core::LocoClient& c_;
};

std::vector<Task> PlanTasks(const Ledger& ledger) {
  std::map<std::string, Task> dirs;
  for (const auto& [path, e] : ledger.entries()) {
    if (e.is_dir) {
      Task& t = dirs[path];
      t.dir = path;
      t.expect = e;
    }
  }
  for (const auto& [path, e] : ledger.entries()) {
    const std::string parent(loco::fs::ParentPath(path));
    const auto it = dirs.find(parent);
    // Entries under an absent (or unlisted) directory are covered by the
    // directory's own absence check.
    if (it == dirs.end() || !it->second.expect.present) continue;
    const std::string name(loco::fs::BaseName(path));
    if (e.present) it->second.children.push_back(Child{name, e.is_dir});
    if (!e.is_dir) {
      (e.present ? it->second.present_files : it->second.absent_files)
          .push_back(name);
    }
  }
  std::vector<Task> tasks;
  for (auto& [path, t] : dirs) tasks.push_back(std::move(t));
  return tasks;
}

}  // namespace

VerifyResult Verify(const std::string& connect_spec, const Ledger& ledger,
                    int threads) {
  const std::vector<Task> tasks = PlanTasks(ledger);
  VerifyResult total;
  std::mutex mu;
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      auto opts = loco::core::ClientOptions::FromSpec(connect_spec);
      auto mount = opts.ok() ? loco::core::Connect(*opts)
                             : loco::Result<loco::core::MountHandle>(opts.status());
      if (!mount.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        total.error = mount.status().ToString();
        return;
      }
      loco::core::LocoClient::Config cfg = mount->config;
      cfg.now = [] { return static_cast<std::uint64_t>(loco::common::WallClockNs()); };
      loco::core::LocoClient client(mount->rpc(), cfg);
      Checker checker(client);
      for (std::size_t i = static_cast<std::size_t>(w); i < tasks.size();
           i += static_cast<std::size_t>(threads)) {
        checker.Run(tasks[i]);
      }
      std::lock_guard<std::mutex> lock(mu);
      total.checked += checker.result.checked;
      total.mismatches += checker.result.mismatches;
      for (const std::string& ex : checker.result.examples) {
        if (total.examples.size() < 5) total.examples.push_back(ex);
      }
    });
  }
  for (auto& t : workers) t.join();
  return total;
}

}  // namespace livebench
