#include "benchlib/mdtest.h"

#include <cstdio>
#include <memory>

#include "fs/path.h"
#include "net/task.h"
#include "sim/simulation.h"

namespace loco::bench {

namespace {

std::string ItemPath(const std::string& workdir, fs::FsOp op, int index) {
  char name[32];
  const bool is_dir_item = op == fs::FsOp::kMkdir || op == fs::FsOp::kRmdir ||
                           op == fs::FsOp::kStatDir;
  std::snprintf(name, sizeof(name), is_dir_item ? "D%06d" : "f%06d", index);
  return fs::JoinPath(workdir, name);
}

// Issue one measured operation.  Statuses are reduced to Status so the
// driver can count errors uniformly.
net::Task<Status> IssueOp(fs::FileSystemClient& fsc, fs::FsOp op,
                          std::string path, std::uint64_t io_bytes) {
  switch (op) {
    case fs::FsOp::kMkdir:
      co_return co_await fsc.Mkdir(std::move(path), fs::kDefaultDirMode);
    case fs::FsOp::kRmdir:
      co_return co_await fsc.Rmdir(std::move(path));
    case fs::FsOp::kCreate:
      co_return co_await fsc.Create(std::move(path), fs::kDefaultFileMode);
    case fs::FsOp::kUnlink:
      co_return co_await fsc.Unlink(std::move(path));
    case fs::FsOp::kStatFile: {
      auto attr = co_await fsc.StatFile(std::move(path));
      co_return attr.status();
    }
    case fs::FsOp::kStatDir: {
      auto attr = co_await fsc.StatDir(std::move(path));
      co_return attr.status();
    }
    case fs::FsOp::kReaddir: {
      auto entries = co_await fsc.Readdir(std::move(path));
      co_return entries.status();
    }
    // Attribute ops target the file items (f%06d), so the typed fast paths
    // apply — implementations skip the file-vs-directory fallback probe.
    case fs::FsOp::kChmod:
      co_return co_await fsc.ChmodFile(std::move(path), 0600);
    case fs::FsOp::kChown:
      co_return co_await fsc.ChownFile(std::move(path), fsc.identity().uid,
                                       4242);
    case fs::FsOp::kAccess:
      co_return co_await fsc.AccessFile(std::move(path), fs::kModeRead);
    case fs::FsOp::kTruncate:
      co_return co_await fsc.Truncate(std::move(path), 0);
    case fs::FsOp::kUtimens:
      co_return co_await fsc.Utimens(std::move(path), 1111, 2222);
    case fs::FsOp::kOpen: {
      auto attr = co_await fsc.Open(path);
      if (!attr.ok()) co_return attr.status();
      co_return co_await fsc.Close(std::move(path));
    }
    case fs::FsOp::kWrite: {
      std::string data(io_bytes, 'w');
      co_return co_await fsc.Write(std::move(path), 0, std::move(data));
    }
    case fs::FsOp::kRead: {
      auto data = co_await fsc.Read(std::move(path), 0, io_bytes);
      co_return data.status();
    }
    default:
      co_return ErrStatus(ErrCode::kUnsupported);
  }
}

struct ClientCtx {
  std::unique_ptr<sim::SimChannel> channel;
  std::unique_ptr<fs::FileSystemClient> fsc;
  std::string workdir;
  std::vector<std::string> setup_chain;  // directories to mkdir at setup
};

// Run one phase to completion (all clients drain their op lists).
sim::RunStats RunPhase(sim::Simulation* sim, sim::SimCluster* cluster,
                       std::vector<ClientCtx>* clients, fs::FsOp op,
                       int items, int readdir_repeat, std::uint64_t io_bytes) {
  sim::RunStats stats;
  std::vector<std::unique_ptr<sim::ClosedLoopClient>> drivers;
  drivers.reserve(clients->size());
  for (ClientCtx& ctx : *clients) {
    auto source = [&ctx, op, items, readdir_repeat, io_bytes, next = 0](
                      net::Channel&) mutable
        -> std::optional<sim::ClosedLoopClient::Op> {
      const int total = op == fs::FsOp::kReaddir ? readdir_repeat : items;
      if (next >= total) return std::nullopt;
      std::string path = op == fs::FsOp::kReaddir
                             ? ctx.workdir
                             : ItemPath(ctx.workdir, op, next);
      ++next;
      return sim::ClosedLoopClient::Op{
          IssueOp(*ctx.fsc, op, std::move(path), io_bytes),
          static_cast<int>(op)};
    };
    drivers.push_back(std::make_unique<sim::ClosedLoopClient>(
        cluster, ctx.channel.get(), std::move(source), &stats));
  }
  for (auto& d : drivers) d->Start();
  sim->Run();
  return stats;
}

}  // namespace

MdtestResult RunMdtest(const MdtestConfig& config) {
  sim::Simulation sim;
  sim::SimCluster cluster(&sim, config.cluster);
  DeployOptions deploy = config.deploy;
  deploy.metadata_servers = config.metadata_servers;
  Deployment dep = Deploy(config.system, &cluster, deploy);

  fs::TimeFn now = [&sim] { return static_cast<std::uint64_t>(sim.Now()); };

  std::vector<ClientCtx> clients(static_cast<std::size_t>(config.clients));
  for (int i = 0; i < config.clients; ++i) {
    ClientCtx& ctx = clients[static_cast<std::size_t>(i)];
    ctx.channel = cluster.NewClientChannel();
    ctx.fsc = dep.make_client(*ctx.channel, now);
    std::string dir = "/c" + std::to_string(i);
    ctx.setup_chain.push_back(dir);
    for (int level = 1; level < config.depth; ++level) {
      dir += "/d" + std::to_string(level);
      ctx.setup_chain.push_back(dir);
    }
    ctx.workdir = dir;
  }

  // Setup phase (not measured): each client builds its directory chain.
  {
    sim::RunStats setup_stats;
    std::vector<std::unique_ptr<sim::ClosedLoopClient>> drivers;
    for (ClientCtx& ctx : clients) {
      auto source = [&ctx, next = std::size_t{0}](net::Channel&) mutable
          -> std::optional<sim::ClosedLoopClient::Op> {
        if (next >= ctx.setup_chain.size()) return std::nullopt;
        std::string path = ctx.setup_chain[next++];
        return sim::ClosedLoopClient::Op{
            ctx.fsc->Mkdir(std::move(path), fs::kDefaultDirMode), -1};
      };
      drivers.push_back(std::make_unique<sim::ClosedLoopClient>(
          &cluster, ctx.channel.get(), std::move(source), &setup_stats));
    }
    for (auto& d : drivers) d->Start();
    sim.Run();
  }

  MdtestResult result;
  for (fs::FsOp op : config.phases) {
    sim::RunStats stats =
        RunPhase(&sim, &cluster, &clients, op, config.items_per_client,
                 config.readdir_repeat, config.io_bytes);
    PhaseResult phase;
    phase.op = op;
    phase.ops = stats.total_ops();
    phase.errors = stats.TotalErrors();
    phase.iops = stats.Throughput();
    phase.latency = stats.Latency(static_cast<int>(op));
    result.phases.push_back(std::move(phase));
  }
  result.total_events = sim.EventsProcessed();
  return result;
}

ClientSweepResult FindOptimalClients(MdtestConfig base, fs::FsOp op,
                                     const std::vector<int>& candidates) {
  ClientSweepResult result;
  base.phases = {op};
  for (int clients : candidates) {
    MdtestConfig cfg = base;
    cfg.clients = clients;
    const MdtestResult run = RunMdtest(cfg);
    const PhaseResult* phase = run.Phase(op);
    const double iops = phase != nullptr ? phase->iops : 0;
    result.sweep.emplace_back(clients, iops);
    if (iops > result.best_iops) {
      result.best_iops = iops;
      result.best_clients = clients;
    }
  }
  return result;
}

}  // namespace loco::bench
