#include "decorators.h"

#include "core/proto.h"
#include "net/wire.h"

namespace livebench {

namespace proto = loco::core::proto;

std::uint32_t FrameItems(std::uint16_t opcode, std::string_view payload) {
  switch (opcode) {
    case proto::kDmsBatchMkdir:
    case proto::kFmsBatchCreate:
    case proto::kFmsBatchStat:
    case proto::kFmsBatchSetSize:
    case proto::kObjBatchPut: {
      std::vector<std::string_view> subops;
      if (loco::net::wire::DecodeBatchRequest(payload, &subops)) {
        return static_cast<std::uint32_t>(subops.size());
      }
      return 1;
    }
    default:
      return 1;
  }
}

void TimedChannel::CallAsyncMeta(
    loco::net::NodeId server, std::uint16_t opcode, std::string payload,
    const loco::net::CallMeta& meta,
    std::function<void(loco::net::RpcResponse)> done) {
  if (Recorder::Active() == nullptr) {
    inner_.CallAsyncMeta(server, opcode, std::move(payload), meta,
                         std::move(done));
    return;
  }
  loco::net::CallMeta stamped = meta;
  if (stamped.trace_id == 0) stamped.trace_id = loco::net::NextTraceId();
  const auto it = servers_.find(server);
  const std::uint8_t where = it != servers_.end() ? it->second : 0xff;
  ScopedSpan span(Layer::kRpc, opcode, where, stamped.trace_id,
                  FrameItems(opcode, payload));
  // The TCP stack completes calls inline, before CallAsyncMeta returns, so
  // the span is still open when `done` runs and covers the whole call.
  inner_.CallAsyncMeta(
      server, opcode, std::move(payload), stamped,
      [&span, opcode, done = std::move(done)](loco::net::RpcResponse resp) mutable {
        if (opcode == proto::kFmsReaddirPlus && resp.ok()) {
          std::vector<loco::net::wire::BatchItem> items;
          if (loco::net::wire::DecodeBatchResponse(resp.payload, &items)) {
            span.set_value(static_cast<std::uint32_t>(items.size()));
          }
        }
        done(std::move(resp));
      });
}

}  // namespace livebench
