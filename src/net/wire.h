// TCP wire format: length-prefixed binary frames shared by the client and
// server sides of net::TcpChannel / net::TcpServer (docs/NET.md).
//
// Every message is one frame:
//
//   offset  size  field
//        0     4  magic       0x4C4F434Fu ("LOCO"), little-endian
//        4     1  version     kVersion (currently 3; v1/v2 still accepted)
//        5     1  type        1 = request, 2 = response, 3 = notify (v2)
//        6     2  opcode      RPC opcode (core/proto.h, baselines/proto.h)
//        8     8  request id  per-connection correlation id; echoed verbatim
//                             (notify frames carry the per-connection push
//                             sequence number here instead)
//       16     8  trace id    per-operation id threaded through net::Call
//       24     1  code        ErrCode of a response; 0 in requests
//       25     4  payload len bytes that follow the header
//   --- v3 frames only (overload control, docs/OVERLOAD.md) ---
//       29     8  deadline budget  remaining ns the caller will wait; 0 = none.
//                             Re-stamped per hop: each sender writes what is
//                             left of ITS budget, so the receiver can drop
//                             work the caller has already abandoned.
//       37     1  priority    2-bit class: 0 foreground, 1 background,
//                             2 control (higher bits must be zero)
//   ---
//    29/38     …  payload     opcode-specific bytes (fs::Pack tuples)
//
// All integers are little-endian (common::Writer/Reader).  Decoding is
// defensive: bad magic, unknown version, an out-of-range error code or a
// payload length above the negotiated cap surface as ErrCode::kCorruption,
// never as a crash or an unbounded allocation.
//
// Opcode space (16 bits, but metrics tables only distinguish [0, 256)):
//   0   – 223  service RPCs (core/proto.h, baselines/proto.h)
//   224 – 239  notify events, pushed server→client in kNotify frames
//   240 – 255  connection-control RPCs (hello / feature negotiation)
//
// Version negotiation: a v2 client opens a connection with a kCtlHello
// *request* (an ordinary v1-tagged frame, so v1 peers parse it fine and
// merely answer kUnsupported/kInvalid for the unknown opcode) advertising
// its feature bits.  A v2 server intercepts the opcode and replies with its
// own bits plus its current epoch.  Frames are version-tagged with the
// minimum version required to interpret them — request/response with no
// deadline budget and default (foreground) priority stay v1, kNotify is v2,
// and only frames that actually carry the overload-control extension are
// tagged v3 — so both sides degrade to v1 behaviour against an old peer
// with no flag-day upgrade.  A client sends v3 frames only after the hello
// reply granted kFeatureDeadline (net/tcp.cc captures the grant).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace loco::net::wire {

inline constexpr std::uint32_t kMagic = 0x4C4F434Fu;  // "LOCO"
inline constexpr std::uint8_t kVersion = 3;
// Oldest version DecodeHeader still accepts (v1 lacks kNotify and hello).
inline constexpr std::uint8_t kMinVersion = 1;
// Frames that need the notify plane (push frames) are tagged v2.
inline constexpr std::uint8_t kNotifyVersion = 2;
inline constexpr std::size_t kHeaderBytes = 29;
// v3 header: the v1 layout plus the 8-byte deadline budget and 1-byte
// priority class.  Readers size their peek buffers to the largest header.
inline constexpr std::size_t kHeaderBytesV3 = 38;
inline constexpr std::size_t kMaxHeaderBytes = kHeaderBytesV3;

// Header length for a frame tagged `version`.  Unknown future versions fall
// back to the base length; DecodeHeader rejects them regardless.
constexpr std::size_t HeaderLen(std::uint8_t version) noexcept {
  return version >= 3 && version <= kVersion ? kHeaderBytesV3 : kHeaderBytes;
}
// Default cap on a single frame's payload.  Far above any legitimate
// metadata message; guards the peer against hostile length fields.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : std::uint8_t { kRequest = 1, kResponse = 2, kNotify = 3 };

// Reserved opcode ranges (see the file comment).  Everything below
// kNotifyOpcodeBase belongs to the services.
inline constexpr std::uint16_t kNotifyOpcodeBase = 224;  // 224–239
inline constexpr std::uint16_t kControlOpcodeBase = 240;  // 240–255

// Control opcodes.  240 and 245 are transport-level (intercepted by
// TcpServer itself); 241–244 are service-level admin RPCs (core/proto.h).
inline constexpr std::uint16_t kCtlHello = 240;
// Serving-load snapshot (admission queue depths, shed/expired counts, queue
// delay).  Answered inline by the server's event loop — the loop owns the
// queues — so every daemon exposes it without handler changes.
inline constexpr std::uint16_t kCtlLoadStatus = 245;

// Notify opcodes (the opcode field of a kNotify frame).
inline constexpr std::uint16_t kNotifyInvalidate = 224;
inline constexpr std::uint16_t kNotifyServerUp = 225;

// Feature bits exchanged in the hello.
inline constexpr std::uint64_t kFeatureNotify = 1ull << 0;
// Peer understands v3 frames (deadline budget + priority class).  A client
// must not emit a v3 frame before the hello reply grants this bit.
inline constexpr std::uint64_t kFeatureDeadline = 1ull << 1;

// Priority classes carried in the v3 header (2-bit field; 3 is reserved).
// Foreground is the default serving traffic; background marks housekeeping
// (GC probes, fsck scans, session keepalives) that admission control sheds
// first; control marks admin RPCs that must get through under saturation.
inline constexpr std::uint8_t kPriorityForeground = 0;
inline constexpr std::uint8_t kPriorityBackground = 1;
inline constexpr std::uint8_t kPriorityControl = 2;
inline constexpr std::uint8_t kPriorityCount = 3;

// kCtlHello request payload.
struct Hello {
  std::uint32_t proto_version = kVersion;
  std::uint64_t features = 0;   // kFeature* bits the client supports
  std::uint64_t client_id = 0;  // process-unique mount id; 0 = anonymous
};

// kCtlHello response payload.
struct HelloReply {
  std::uint32_t proto_version = kVersion;
  std::uint64_t features = 0;  // bits both sides will use
  std::uint64_t epoch = 0;     // server incarnation; bumps on restart
};

std::string EncodeHello(const Hello& hello);
Status DecodeHello(std::string_view bytes, Hello* out);
std::string EncodeHelloReply(const HelloReply& reply);
Status DecodeHelloReply(std::string_view bytes, HelloReply* out);

struct FrameHeader {
  FrameType type = FrameType::kRequest;
  std::uint16_t opcode = 0;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  ErrCode code = ErrCode::kOk;  // responses only; requests carry kOk
  std::uint32_t payload_len = 0;
  // v3 extension (zero / foreground on v1-v2 frames).  A frame is encoded
  // as v3 exactly when either field departs from its default, so senders
  // simply leave them zeroed against peers that never granted the feature.
  std::uint64_t deadline_budget_ns = 0;  // remaining caller patience; 0 = none
  std::uint8_t priority = kPriorityForeground;
};

// Serialize one complete frame (header.payload_len is taken from `payload`,
// not from the struct).  The caller must keep payload within the peer's cap.
std::string EncodeFrame(const FrameHeader& header, std::string_view payload);

// Append the same frame bytes into a caller-supplied buffer.  The server's
// flush path recycles response buffers through a per-loop arena; encoding
// into a reused string avoids one allocation + memcpy per response.
void EncodeFrameInto(const FrameHeader& header, std::string_view payload,
                     std::string* out);

// Decode the header from `bytes`, which must hold the full header for the
// frame's version — HeaderLen(bytes[4]) bytes; callers peek the version byte
// once kHeaderBytes are buffered.  kCorruption on bad magic / unsupported
// version / invalid type, code or priority.
Status DecodeHeader(std::string_view bytes, FrameHeader* out);

struct Frame {
  FrameHeader header;
  std::string payload;
};

// Incremental frame extractor over a byte stream.  Feed arbitrary chunks
// with Append(); Next() yields complete frames in order and std::nullopt
// while more bytes are needed.  The first framing violation (bad header,
// oversized payload) latches status() to an error and Next() stays empty —
// a corrupt stream cannot resynchronize and the connection must be dropped.
class FrameReader {
 public:
  explicit FrameReader(std::uint32_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void Append(std::string_view bytes) { buf_.append(bytes); }

  std::optional<Frame> Next();

  const Status& status() const noexcept { return status_; }
  // Bytes received but not yet consumed by a completed frame.
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::uint32_t max_payload_;
  std::string buf_;
  std::size_t pos_ = 0;
  Status status_;
};

// One decoded frame whose payload is a view into the reader's refcounted
// receive arena.  `payload` stays valid while `pin` is held, so a handler —
// even one running on a worker thread after the reader has moved on — reads
// the request bytes in place.  zero_copy is false only when the frame
// straddled a chunk boundary and had to be assembled (one copy).
struct PinnedFrame {
  FrameHeader header;
  std::string_view payload;
  std::shared_ptr<const std::string> pin;
  bool zero_copy = false;
};

// Incremental frame extractor without FrameReader's per-payload copy.  Bytes
// land directly in refcounted arena chunks — received in place by
// TcpServer's loop (RecvInto/Commit), or copied in from a foreign buffer
// with Append — and Next() yields payload views pinned into those chunks.  A chunk returns to the internal pool once the reader
// has consumed it and every handler has dropped its pin (use_count == 1),
// so steady-state traffic recycles a handful of chunks with no allocation.
// Same latching error contract as FrameReader: the first framing violation
// poisons the stream and the connection must be dropped.
//
// Single-threaded: one owner drives RecvInto/Commit/Append/Next.  Only the
// pins it hands out may cross threads.
class PinnedFrameReader {
 public:
  explicit PinnedFrameReader(std::uint32_t max_payload = kMaxPayloadBytes,
                             std::size_t chunk_bytes = 64u << 10);

  // Zero-copy receive: a writable region of at least min(min_bytes,
  // chunk_bytes) bytes — the tail of the current chunk, or a fresh chunk.
  // The pointer is stable until Commit (chunks never reallocate).
  char* RecvInto(std::size_t min_bytes, std::size_t* capacity);
  // Publish `n` bytes received into the last RecvInto region.
  void Commit(std::size_t n);
  // Copy path: append bytes received in a foreign buffer.  Decode stays
  // view-based; only this ingest copies.
  void Append(std::string_view bytes);

  std::optional<PinnedFrame> Next();

  const Status& status() const noexcept { return status_; }
  // Bytes received but not yet consumed by a completed frame.
  std::size_t buffered() const noexcept { return buffered_; }
  // Frames whose payload was served in place / had to be assembled.
  std::uint64_t zero_copy_frames() const noexcept { return zero_copy_frames_; }
  std::uint64_t assembled_frames() const noexcept { return assembled_frames_; }

 private:
  struct Chunk {
    std::shared_ptr<std::string> buf;  // preallocated to chunk_bytes
    std::size_t size = 0;              // valid bytes (never buf->resize'd)
  };

  Chunk MakeChunk();               // pooled when a retired chunk is unpinned
  void PopFrontIfExhausted();      // retire a fully-consumed front chunk
  void CopyOut(std::size_t n, char* out);  // copy+consume across chunks

  std::uint32_t max_payload_;
  std::size_t chunk_bytes_;
  std::deque<Chunk> chunks_;
  std::size_t read_off_ = 0;  // into chunks_.front()
  std::size_t buffered_ = 0;
  std::vector<std::shared_ptr<std::string>> pool_;
  std::uint64_t zero_copy_frames_ = 0;
  std::uint64_t assembled_frames_ = 0;
  Status status_;
};

// ---------------------------------------------------------------------------
// Batch sub-op framing
//
// Batch RPCs (proto::kFmsBatchCreate, kFmsBatchStat, kFmsReaddirPlus) pack N
// independent sub-operations into one frame payload:
//
//   request payload    u32 count, then count x { u32 len, len bytes }
//   response payload   u32 count, then count x { u8 code, u32 len, len bytes }
//
// Each sub-payload is the single-op fs::Pack tuple of the underlying opcode
// (kFmsCreate, kFmsGetAttr, one dirent for readdir-plus).  Responses carry a
// per-sub-op ErrCode so one bad entry never poisons its siblings.  Decoding
// is defensive: a declared count that disagrees with the actual payload
// length — truncated items, trailing garbage, or a count far beyond what the
// bytes could hold — fails without over-reading, and handlers surface that
// failure as ErrCode::kCorruption.

struct BatchItem {
  ErrCode code = ErrCode::kOk;  // meaningful in responses; kOk in requests
  std::string payload;
};

std::string EncodeBatchRequest(const std::vector<std::string>& subops);
std::string EncodeBatchResponse(const std::vector<BatchItem>& items);

// Views into `payload`; valid only while the backing bytes live.  Return
// false (leaving *out unspecified) on any count/length disagreement.
bool DecodeBatchRequest(std::string_view payload,
                        std::vector<std::string_view>* out);
bool DecodeBatchResponse(std::string_view payload, std::vector<BatchItem>* out);

}  // namespace loco::net::wire
