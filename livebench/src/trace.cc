#include "trace.h"

#include <algorithm>
#include <chrono>

namespace livebench {

std::atomic<Recorder*> Recorder::active_{nullptr};
std::atomic<std::uint64_t> Recorder::next_serial_{0};

namespace {
thread_local std::uint64_t t_current = 0;
// Per-thread buffer of the recorder with serial t_serial (a recorder's
// address may be reused by a later one; its serial never is).
thread_local std::uint64_t t_serial = 0;
thread_local void* t_buffer = nullptr;
}  // namespace

const char* KvOpName(KvOp op) {
  switch (op) {
    case KvOp::kPut: return "put";
    case KvOp::kGet: return "get";
    case KvOp::kDelete: return "delete";
    case KvOp::kContains: return "contains";
    case KvOp::kPatch: return "patch";
    case KvOp::kReadAt: return "read_at";
    case KvOp::kScan: return "scan";
    case KvOp::kForEach: return "foreach";
    case KvOp::kSize: return "size";
  }
  return "?";
}

std::int64_t Recorder::Now() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Recorder::Current() noexcept { return t_current; }
void Recorder::SetCurrent(std::uint64_t id) noexcept { t_current = id; }

Recorder::Buffer* Recorder::ThreadBuffer() {
  if (t_serial == serial_) return static_cast<Buffer*>(t_buffer);
  auto buf = std::make_unique<Buffer>();
  Buffer* raw = buf.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buf));
  }
  t_serial = serial_;
  t_buffer = raw;
  return raw;
}

void Recorder::Store(const Span& span) noexcept {
  if (stored_.fetch_add(1, std::memory_order_relaxed) >= cap_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer* buf = ThreadBuffer();
  if (buf->chunks.empty() || buf->used_in_last == kChunk) {
    buf->chunks.push_back(std::make_unique<Span[]>(kChunk));
    buf->used_in_last = 0;
  }
  buf->chunks.back()[buf->used_in_last++] = span;
}

std::vector<Span> Recorder::Drain() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(std::min(stored_.load(), cap_));
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    Buffer& buf = *buffers_[t];
    for (std::size_t c = 0; c < buf.chunks.size(); ++c) {
      const std::size_t n = c + 1 == buf.chunks.size() ? buf.used_in_last : kChunk;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(buf.chunks[c][i]);
        out.back().thread = static_cast<std::uint16_t>(t);
      }
      buf.chunks[c].reset();
    }
    buf.chunks.clear();
    buf.used_in_last = 0;
  }
  return out;
}

ScopedSpan::ScopedSpan(Layer layer, std::uint16_t aux, std::uint8_t where,
                       std::uint64_t trace_id, std::uint32_t value) noexcept
    : rec_(Recorder::Active()) {
  if (rec_ == nullptr) return;
  span_.layer = static_cast<std::uint8_t>(layer);
  span_.aux = aux;
  span_.where = where;
  span_.trace_id = trace_id;
  span_.value = value;
  span_.id = rec_->NextId();
  saved_parent_ = Recorder::Current();
  span_.parent = saved_parent_;
  Recorder::SetCurrent(span_.id);
  span_.start_ns = Recorder::Now();
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  span_.end_ns = Recorder::Now();
  Recorder::SetCurrent(saved_parent_);
  rec_->Store(span_);
}

}  // namespace livebench
