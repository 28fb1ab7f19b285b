#include "exs/rpc/framing.hpp"

namespace exs::rpc {

const char* ToString(Op op) {
  switch (op) {
    case Op::kGet: return "GET";
    case Op::kPut: return "PUT";
    case Op::kDel: return "DEL";
  }
  return "?";
}

const char* ToString(Status status) {
  switch (status) {
    case Status::kOk: return "OK";
    case Status::kNotFound: return "NOT_FOUND";
    case Status::kRefused: return "REFUSED";
  }
  return "?";
}

namespace {

void PutU16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void PutU64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t GetU16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

}  // namespace

void EncodeHeader(const MessageHeader& h, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(h.type);
  out[1] = h.op_or_status;
  PutU16(out + 2, h.key_len);
  PutU32(out + 4, h.value_len);
  PutU64(out + 8, h.correlation_id);
}

bool DecodeHeader(const std::uint8_t* in, MessageHeader* out) {
  const std::uint8_t type = in[0];
  if (type != static_cast<std::uint8_t>(MessageType::kRequest) &&
      type != static_cast<std::uint8_t>(MessageType::kResponse)) {
    return false;
  }
  out->type = static_cast<MessageType>(type);
  out->op_or_status = in[1];
  out->key_len = GetU16(in + 2);
  out->value_len = GetU32(in + 4);
  out->correlation_id = GetU64(in + 8);
  return out->key_len <= kMaxKeyBytes && out->value_len <= kMaxValueBytes;
}

std::size_t EncodeMessage(MessageType type, std::uint8_t op,
                          std::uint64_t correlation_id, const std::string& key,
                          const std::uint8_t* value, std::uint32_t value_len,
                          std::uint8_t* out) {
  MessageHeader h;
  h.type = type;
  h.op_or_status = op;
  h.key_len = static_cast<std::uint16_t>(key.size());
  h.value_len = value_len;
  h.correlation_id = correlation_id;
  EncodeHeader(h, out);
  std::memcpy(out + kHeaderBytes, key.data(), key.size());
  if (value_len != 0) {
    std::memcpy(out + kHeaderBytes + key.size(), value, value_len);
  }
  return FrameBytes(key.size(), value_len);
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t len) {
  if (failed_ || len == 0) return;
  bytes_consumed_ += len;
  buffer_.insert(buffer_.end(), data, data + len);
  std::size_t offset = 0;
  while (buffer_.size() - offset >= kHeaderBytes) {
    MessageHeader h;
    if (!DecodeHeader(buffer_.data() + offset, &h)) {
      failed_ = true;
      if (on_error_) on_error_("malformed frame header in stream");
      buffer_.clear();
      return;
    }
    const std::size_t frame = kHeaderBytes + h.key_len + h.value_len;
    if (buffer_.size() - offset < frame) break;
    MessageView view;
    view.header = h;
    view.key = buffer_.data() + offset + kHeaderBytes;
    view.value = view.key + h.key_len;
    ++messages_decoded_;
    on_message_(view);
    offset += frame;
  }
  if (offset != 0) buffer_.erase(buffer_.begin(), buffer_.begin() + offset);
}

}  // namespace exs::rpc
