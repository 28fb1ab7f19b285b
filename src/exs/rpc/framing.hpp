// Message framing for the RPC tier: fixed-header frames over a byte
// stream.
//
// EXS streams carry bytes, not messages (SOCK_STREAM semantics — §II-A);
// an RPC needs message boundaries back.  This is the thin framing seam the
// RPC client and KV server share: every message is a 16-byte
// little-endian header followed by the key bytes and then the value
// bytes.  The header carries a correlation id so responses can be matched
// to pipelined requests in any completion order, and a one-byte
// op-or-status field whose meaning depends on the message type.
//
// The decoder is incremental: Recv completions hand it arbitrary byte
// runs (a single completion may carry half a header, or three messages
// and a fragment) and it fires the message callback once per complete
// frame, in stream order.  Because the EXS stream is reliable and
// ordered, no resynchronisation markers are needed — the length fields
// alone delimit frames.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace exs::rpc {

enum class MessageType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
};

/// Request operations (MessageHeader::op_or_status on a kRequest).
enum class Op : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kDel = 3,
};

/// Response statuses (MessageHeader::op_or_status on a kResponse).
enum class Status : std::uint8_t {
  kOk = 1,
  kNotFound = 2,
  /// The server declined to serve the request (value slab exhausted or
  /// oversized value) — the "refused" leg of the conservation invariant.
  kRefused = 3,
};

const char* ToString(Op op);
const char* ToString(Status status);

/// Fixed 16-byte wire header, always little-endian regardless of host
/// order (encoded/decoded byte by byte).
struct MessageHeader {
  MessageType type = MessageType::kRequest;
  std::uint8_t op_or_status = 0;
  std::uint16_t key_len = 0;
  std::uint32_t value_len = 0;
  std::uint64_t correlation_id = 0;
};

inline constexpr std::size_t kHeaderBytes = 16;

/// Hard bounds the decoder enforces; a header exceeding either is a
/// framing violation (reported through the decoder's error callback —
/// on a trusted in-simulation peer it means a bug, not an attack).
inline constexpr std::uint16_t kMaxKeyBytes = 1024;
inline constexpr std::uint32_t kMaxValueBytes = 1 * 1024 * 1024;

/// Serialise a header into exactly kHeaderBytes at `out`.
void EncodeHeader(const MessageHeader& h, std::uint8_t* out);
/// Parse kHeaderBytes at `in`; returns false when the type byte or the
/// length bounds are invalid.
bool DecodeHeader(const std::uint8_t* in, MessageHeader* out);

/// One complete decoded message.  The key/value pointers alias the
/// decoder's internal buffer and are valid only for the duration of the
/// callback.
struct MessageView {
  MessageHeader header;
  const std::uint8_t* key = nullptr;    ///< header.key_len bytes
  const std::uint8_t* value = nullptr;  ///< header.value_len bytes

  std::string KeyString() const {
    return std::string(reinterpret_cast<const char*>(key), header.key_len);
  }
};

/// Wire size of a message with these key and value lengths.
inline constexpr std::size_t FrameBytes(std::size_t key_len,
                                        std::uint32_t value_len) {
  return kHeaderBytes + key_len + value_len;
}

/// Encode a whole message (header + key + value) into caller memory:
/// writes FrameBytes(key.size(), value_len) bytes at `out` and returns
/// that count.  The caller owns the buffer, so a registered one can be
/// sent as is.
std::size_t EncodeMessage(MessageType type, std::uint8_t op,
                          std::uint64_t correlation_id, const std::string& key,
                          const std::uint8_t* value, std::uint32_t value_len,
                          std::uint8_t* out);

/// Incremental frame decoder: feed it byte runs as they arrive, get one
/// callback per complete message.  Never throws on malformed input —
/// a bad header stops the decoder and fires the error callback once
/// (the stream has lost framing; nothing after the bad header can be
/// trusted).
class FrameDecoder {
 public:
  using MessageFn = std::function<void(const MessageView&)>;
  using ErrorFn = std::function<void(const std::string&)>;

  explicit FrameDecoder(MessageFn on_message, ErrorFn on_error = nullptr)
      : on_message_(std::move(on_message)), on_error_(std::move(on_error)) {}

  /// Consume `len` bytes; fires on_message for every frame completed.
  void Feed(const std::uint8_t* data, std::size_t len);

  /// True when no partial frame is buffered — the stream sits exactly on
  /// a message boundary (the quiescence condition connection teardown
  /// checks).
  bool Idle() const { return buffer_.empty(); }
  bool Failed() const { return failed_; }
  std::uint64_t messages_decoded() const { return messages_decoded_; }
  std::uint64_t bytes_consumed() const { return bytes_consumed_; }

 private:
  MessageFn on_message_;
  ErrorFn on_error_;
  std::vector<std::uint8_t> buffer_;  ///< partial-frame carry-over
  bool failed_ = false;
  std::uint64_t messages_decoded_ = 0;
  std::uint64_t bytes_consumed_ = 0;
};

}  // namespace exs::rpc
