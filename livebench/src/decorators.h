// Timing decorators the traced run installs around each layer's public
// interface.  Each one forwards every virtual of the interface it wraps, so a
// decorated server behaves byte-for-byte like an undecorated one; it only
// adds a span around the call when a Recorder is active.
//
//   TimedKv      — kv::Kv, installed through the servers' Options::kv_decorator
//                  (forwarding PatchValue/ReadValueAt/Contains matters: the
//                  base-class defaults would turn an in-place patch into a
//                  Get+Put and change what the store does).
//   TimedHandler — net::RpcHandler between TcpServer and the DMS/FMS/OSD;
//                  forwards HandleCtx so the client id and trace id reach the
//                  inner handler (see the warning in net/rpc.h).
//   TimedChannel — net::Channel between a LocoClient and its mount's
//                  (resilient) channel; one span per client-issued RPC.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/kv.h"
#include "net/rpc.h"
#include "trace.h"

namespace livebench {

class TimedKv final : public loco::kv::Kv {
 public:
  TimedKv(std::unique_ptr<loco::kv::Kv> inner, std::uint8_t store)
      : inner_(std::move(inner)), store_(store) {}

  loco::Status Put(std::string_view key, std::string_view value) override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kPut), store_, 0, Bytes(value));
    return inner_->Put(key, value);
  }
  loco::Status Get(std::string_view key, std::string* value) const override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kGet), store_);
    return inner_->Get(key, value);
  }
  loco::Status Delete(std::string_view key) override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kDelete), store_);
    return inner_->Delete(key);
  }
  bool Contains(std::string_view key) const override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kContains), store_);
    return inner_->Contains(key);
  }
  loco::Status PatchValue(std::string_view key, std::size_t offset,
                          std::string_view patch) override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kPatch), store_, 0, Bytes(patch));
    return inner_->PatchValue(key, offset, patch);
  }
  loco::Status ReadValueAt(std::string_view key, std::size_t offset,
                           std::size_t len, std::string* out) const override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kReadAt), store_);
    return inner_->ReadValueAt(key, offset, len, out);
  }
  std::size_t Size() const override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kSize), store_);
    return inner_->Size();
  }
  loco::Status ScanPrefix(std::string_view prefix, std::size_t limit,
                          std::vector<loco::kv::Entry>* out) const override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kScan), store_);
    return inner_->ScanPrefix(prefix, limit, out);
  }
  void ForEach(const std::function<bool(std::string_view, std::string_view)>&
                   fn) const override {
    ScopedSpan span(Layer::kKv, Op(KvOp::kForEach), store_);
    inner_->ForEach(fn);
  }
  bool Ordered() const noexcept override { return inner_->Ordered(); }
  loco::kv::KvStats stats() const noexcept override { return inner_->stats(); }
  void ResetStats() noexcept override { inner_->ResetStats(); }

 private:
  static std::uint16_t Op(KvOp op) { return static_cast<std::uint16_t>(op); }
  static std::uint32_t Bytes(std::string_view v) {
    return static_cast<std::uint32_t>(v.size());
  }

  std::unique_ptr<loco::kv::Kv> inner_;
  std::uint8_t store_;
};

// Options::kv_decorator factory.  The servers decorate their stores in a
// fixed order (DMS: dirs, dirents; FMS: access, content, dirents), so the
// n-th call wraps the n-th store of `stores`.  Each entry of `stores` is the
// global store index recorded in the KV spans.
inline std::function<std::unique_ptr<loco::kv::Kv>(std::unique_ptr<loco::kv::Kv>)>
TimedKvFactory(std::vector<std::uint8_t> stores) {
  auto next = std::make_shared<std::size_t>(0);
  return [stores = std::move(stores), next](std::unique_ptr<loco::kv::Kv> inner)
             -> std::unique_ptr<loco::kv::Kv> {
    const std::uint8_t store =
        *next < stores.size() ? stores[*next] : stores.back();
    ++*next;
    return std::make_unique<TimedKv>(std::move(inner), store);
  };
}

class TimedHandler final : public loco::net::RpcHandler {
 public:
  TimedHandler(loco::net::RpcHandler* inner, std::uint8_t server)
      : inner_(inner), server_(server) {}

  loco::net::RpcResponse Handle(std::uint16_t opcode,
                                std::string_view payload) override {
    ScopedSpan span(Layer::kHandler, opcode, server_);
    return inner_->Handle(opcode, payload);
  }
  loco::net::RpcResponse HandleCtx(std::uint16_t opcode,
                                   std::string_view payload,
                                   const loco::net::HandlerContext& ctx) override {
    ScopedSpan span(Layer::kHandler, opcode, server_, ctx.trace_id);
    return inner_->HandleCtx(opcode, payload, ctx);
  }

 private:
  loco::net::RpcHandler* inner_;
  std::uint8_t server_;
};

// Items carried by one request frame: the sub-op count of a batch envelope,
// else 1.  (kFmsReaddirPlus carries no envelope on the request; its reply's
// entry count is added by TimedChannel.)
std::uint32_t FrameItems(std::uint16_t opcode, std::string_view payload);

class TimedChannel final : public loco::net::Channel {
 public:
  // `servers` maps the mount's node ids to the server indexes recorded in
  // RPC spans (the same indexes the TimedHandlers use).
  TimedChannel(loco::net::Channel& inner,
               std::map<loco::net::NodeId, std::uint8_t> servers)
      : inner_(inner), servers_(std::move(servers)) {}

  void CallAsync(loco::net::NodeId server, std::uint16_t opcode,
                 std::string payload,
                 std::function<void(loco::net::RpcResponse)> done) override {
    loco::net::CallMeta meta;
    meta.trace_id = loco::net::NextTraceId();
    CallAsyncMeta(server, opcode, std::move(payload), meta, std::move(done));
  }
  void CallAsyncMeta(loco::net::NodeId server, std::uint16_t opcode,
                     std::string payload, const loco::net::CallMeta& meta,
                     std::function<void(loco::net::RpcResponse)> done) override;

 private:
  loco::net::Channel& inner_;
  std::map<loco::net::NodeId, std::uint8_t> servers_;
};

}  // namespace livebench
