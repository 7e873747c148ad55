// In-memory span recorder for the traced run.
//
// A span is (layer, name fields, start, end, parent, trace id).  Each thread
// appends to its own chunked buffer, so recording takes no lock; the parent
// of a span is whatever span is open on the same thread when it starts (a
// client call for an RPC, a handler for a KV operation).  RPC spans join the
// server's handler spans through the wire trace id instead, in analysis.
//
// Recording is off unless a Recorder is installed with Recorder::Install;
// the decorators check that with one relaxed load, so the untraced run pays
// nothing beyond a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace livebench {

enum class Layer : std::uint8_t { kClient = 0, kRpc = 1, kHandler = 2, kKv = 3 };

// Kinds of KV call a span can time (aux field of a kKv span).
enum class KvOp : std::uint8_t {
  kPut = 0,
  kGet,
  kDelete,
  kContains,
  kPatch,
  kReadAt,
  kScan,
  kForEach,
  kSize,
};
constexpr int kKvOpCount = 9;
const char* KvOpName(KvOp op);

struct Span {
  std::uint64_t id = 0;        // process-unique, never 0
  std::uint64_t parent = 0;    // 0 = none
  std::uint64_t trace_id = 0;  // wire trace id (rpc / handler spans)
  std::int64_t start_ns = 0;   // steady clock
  std::int64_t end_ns = 0;
  std::uint32_t value = 0;     // kv: value bytes; rpc: items in the frame
  std::uint16_t aux = 0;       // client: OpKind; rpc/handler: opcode; kv: KvOp
  std::uint8_t layer = 0;      // Layer
  std::uint8_t where = 0;      // rpc/handler: server index; kv: store index
  std::uint16_t thread = 0;    // recording thread's buffer (set by Collect)
};

class Recorder {
 public:
  // `cap` bounds the spans kept (memory); spans beyond it are counted in
  // dropped() and not stored.
  explicit Recorder(std::size_t cap) : cap_(cap) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // The active recorder, or nullptr when tracing is off.
  static Recorder* Active() noexcept {
    return active_.load(std::memory_order_acquire);
  }
  static void Install(Recorder* r) noexcept {
    active_.store(r, std::memory_order_release);
  }

  static std::int64_t Now() noexcept;

  std::uint64_t NextId() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // Append a finished span to this thread's buffer.
  void Store(const Span& span) noexcept;

  // The span open on this thread (0 = none); ScopedSpan maintains it.
  static std::uint64_t Current() noexcept;
  static void SetCurrent(std::uint64_t id) noexcept;

  // Move every recorded span out, freeing the buffers.  Call only once the
  // recording threads are quiescent (joined, or their servers stopped).
  std::vector<Span> Drain();
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    std::vector<std::unique_ptr<Span[]>> chunks;
    std::size_t used_in_last = 0;
  };
  static constexpr std::size_t kChunk = 1 << 14;
  Buffer* ThreadBuffer();

  static std::atomic<Recorder*> active_;
  static std::atomic<std::uint64_t> next_serial_;
  const std::uint64_t serial_ = next_serial_.fetch_add(1) + 1;
  const std::size_t cap_;
  std::atomic<std::size_t> stored_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;  // guards buffers_ (registration and Drain)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span on the active recorder; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint16_t aux, std::uint8_t where,
             std::uint64_t trace_id = 0, std::uint32_t value = 0) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_value(std::uint32_t v) noexcept { span_.value = v; }

 private:
  Recorder* rec_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

}  // namespace livebench
