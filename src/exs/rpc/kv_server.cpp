#include "exs/rpc/kv_server.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace exs::rpc {

ValueSlab::ValueSlab(std::uint32_t slots, std::uint32_t slot_bytes)
    : slots_(slots),
      slot_bytes_(slot_bytes),
      arena_(static_cast<std::size_t>(slots) * slot_bytes),
      lengths_(slots, 0),
      pins_(slots, 0),
      zombie_(slots, 0) {
  free_list_.reserve(slots);
  // Pop order is ascending slot index (cosmetic, but deterministic).
  for (std::uint32_t i = slots; i-- > 0;) {
    free_list_.push_back(static_cast<std::int32_t>(i));
  }
}

std::int32_t ValueSlab::Allocate() {
  if (free_list_.empty()) return -1;
  const std::int32_t slot = free_list_.back();
  free_list_.pop_back();
  ++in_use_;
  return slot;
}

void ValueSlab::Release(std::int32_t slot) {
  const auto i = static_cast<std::size_t>(slot);
  if (pins_[i] != 0) {
    // The wire is still reading this slot; the last Unpin frees it.
    if (!zombie_[i]) {
      zombie_[i] = 1;
      ++zombies_;
    }
    return;
  }
  --in_use_;
  free_list_.push_back(slot);
}

void ValueSlab::Pin(std::int32_t slot) {
  ++pins_[static_cast<std::size_t>(slot)];
}

void ValueSlab::Unpin(std::int32_t slot) {
  const auto i = static_cast<std::size_t>(slot);
  assert(pins_[i] != 0);
  if (--pins_[i] == 0 && zombie_[i]) {
    zombie_[i] = 0;
    --zombies_;
    --in_use_;
    free_list_.push_back(slot);
  }
}

KvServer::KvServer(KvServerOptions options)
    : options_(options),
      slab_(options.slab_slots, options.slot_bytes),
      shards_(options.shards == 0 ? 1 : options.shards),
      shard_requests_(shards_.size(), 0) {}

std::uint32_t KvServer::ShardOf(const std::string& key) const {
  // FNV-1a, the repo's standard fingerprint hash.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) h = (h ^ c) * 0x100000001b3ULL;
  return static_cast<std::uint32_t>(h % shards_.size());
}

std::uint64_t KvServer::keys_stored() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.map.size();
  return n;
}

std::size_t KvServer::headers_registered() const {
  std::size_t n = 0;
  for (const auto& m : memory_) n += m->header_chunks.size() * kHeadersPerChunk;
  return n;
}

std::size_t KvServer::headers_free() const {
  std::size_t n = 0;
  for (const auto& m : memory_) n += m->free_headers.size();
  return n;
}

KvServer::DeviceMemory& KvServer::MemoryOn(verbs::Device& device) {
  for (auto& m : memory_) {
    if (m->device == &device) return *m;
  }
  auto& m = *memory_.emplace_back(std::make_unique<DeviceMemory>(device));
  if (slab_.arena_bytes() != 0) {
    m.slab_mr = device.RegisterMemory(slab_.Data(0), slab_.arena_bytes());
  }
  return m;
}

KvServer::Header KvServer::TakeHeader(DeviceMemory& memory) {
  if (memory.free_headers.empty()) {
    const verbs::RegisteredBuffer& chunk = memory.header_chunks.emplace_back(
        *memory.device, kHeadersPerChunk * kHeaderBytes);
    for (std::size_t i = kHeadersPerChunk; i-- > 0;) {
      memory.free_headers.push_back(
          Header{chunk.data() + i * kHeaderBytes, &chunk.region()});
    }
  }
  const Header header = memory.free_headers.back();
  memory.free_headers.pop_back();
  return header;
}

void KvServer::OnAccept(Socket& socket) {
  auto conn = std::make_unique<Conn>();
  Conn* raw = conn.get();
  raw->socket = &socket;
  raw->memory = &MemoryOn(socket.device());
  raw->recv_buffer =
      verbs::RegisteredBuffer(socket.device(), options_.recv_chunk_bytes);
  raw->decoder = std::make_unique<FrameDecoder>(
      [this, raw](const MessageView& v) { OnRequest(*raw, v); },
      [this](const std::string&) { ++stats_.framing_errors; });
  conns_.emplace(&socket, std::move(conn));
  ++stats_.connections_accepted;
  PostRecv(*raw);
}

void KvServer::Attach(Socket& socket) {
  OnAccept(socket);
  Socket* s = &socket;
  socket.events().SetHandler(
      [this, s](const Event& ev) { HandleEvent(*s, ev); });
}

void KvServer::HandleEvent(Socket& socket, const Event& ev) {
  auto it = conns_.find(&socket);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  switch (ev.type) {
    case EventType::kSendComplete: {
      // Oldest first: a single-rail socket completes sends in order.
      auto send = std::find_if(
          conn.sends.begin(), conn.sends.end(),
          [&ev](const SendingResponse& r) { return r.send_id == ev.id; });
      if (send != conn.sends.end()) {
        if (send->pinned_slot >= 0) slab_.Unpin(send->pinned_slot);
        conn.memory->free_headers.push_back(send->header);
        conn.sends.erase(send);
      }
      MaybeReap(socket, conn);
      break;
    }
    case EventType::kRecvComplete:
      conn.recv_outstanding = false;
      if (ev.bytes != 0) {
        stats_.request_bytes += ev.bytes;
        conn.decoder->Feed(conn.recv_buffer.data(), ev.bytes);
      }
      PostRecv(conn);
      break;
    case EventType::kPeerClosed:
      conn.peer_closed = true;
      MaybeReap(socket, conn);
      break;
    case EventType::kError:
      break;
  }
}

void KvServer::OnRequest(Conn& conn, const MessageView& view) {
  if (view.header.type != MessageType::kRequest) {
    ++stats_.framing_errors;
    return;
  }
  ++counters_.requests_received;
  const std::string key = view.KeyString();
  Shard& shard = shards_[ShardOf(key)];
  ++shard_requests_[ShardOf(key)];
  const auto op = static_cast<Op>(view.header.op_or_status);
  const std::uint64_t id = view.header.correlation_id;
  switch (op) {
    case Op::kGet: {
      ++stats_.gets;
      auto it = shard.map.find(key);
      if (it == shard.map.end()) {
        ++stats_.misses;
        Respond(conn, id, Status::kNotFound, -1);
      } else {
        ++stats_.hits;
        Respond(conn, id, Status::kOk, it->second);
      }
      break;
    }
    case Op::kPut: {
      ++stats_.puts;
      if (view.header.value_len > slab_.slot_bytes()) {
        ++stats_.oversize_refusals;
        Respond(conn, id, Status::kRefused, -1);
        break;
      }
      const std::int32_t slot = slab_.Allocate();
      if (slot < 0) {
        ++stats_.slab_full_refusals;
        Respond(conn, id, Status::kRefused, -1);
        break;
      }
      std::memcpy(slab_.Data(slot), view.value, view.header.value_len);
      slab_.SetLength(slot, view.header.value_len);
      auto [it, inserted] = shard.map.emplace(key, slot);
      if (!inserted) {
        slab_.Release(it->second);  // overwrite: old slot frees (or zombies)
        it->second = slot;
      }
      Respond(conn, id, Status::kOk, -1);
      break;
    }
    case Op::kDel: {
      ++stats_.dels;
      auto it = shard.map.find(key);
      if (it == shard.map.end()) {
        ++stats_.misses;
        Respond(conn, id, Status::kNotFound, -1);
      } else {
        ++stats_.hits;
        slab_.Release(it->second);
        shard.map.erase(it);
        Respond(conn, id, Status::kOk, -1);
      }
      break;
    }
    default:
      ++stats_.framing_errors;
      break;
  }
}

void KvServer::Respond(Conn& conn, std::uint64_t correlation_id, Status status,
                       std::int32_t value_slot) {
  if (conn.closed) return;  // teardown raced a late request; nothing to do
  MessageHeader h;
  h.type = MessageType::kResponse;
  h.op_or_status = static_cast<std::uint8_t>(status);
  h.key_len = 0;
  h.value_len = value_slot >= 0 ? slab_.Length(value_slot) : 0;
  h.correlation_id = correlation_id;

  ++counters_.responses_sent;
  if (status == Status::kRefused) {
    ++counters_.refused;
  } else {
    ++counters_.answered;
  }
  stats_.response_bytes += kHeaderBytes + h.value_len;

  SendingResponse send;
  send.header = TakeHeader(*conn.memory);
  EncodeHeader(h, send.header.bytes);
  if (value_slot >= 0) {
    // Gather header + slab slot in one Sendv: no host copy of the value,
    // one completion.  The slot stays pinned until that completion.
    slab_.Pin(value_slot);
    send.pinned_slot = value_slot;
    Socket::IoSlice iov[2] = {
        {send.header.bytes, kHeaderBytes, send.header.region},
        {slab_.Data(value_slot), h.value_len, conn.memory->slab_mr.get()},
    };
    ++stats_.sendv_responses;
    send.send_id = conn.socket->Sendv(iov, h.value_len != 0 ? 2u : 1u);
  } else {
    send.send_id = conn.socket->Send(send.header.bytes, kHeaderBytes,
                                     *send.header.region);
  }
  conn.sends.push_back(send);
}

void KvServer::PostRecv(Conn& conn) {
  if (conn.recv_outstanding || conn.peer_closed || conn.closed) return;
  conn.recv_outstanding = true;
  conn.socket->Recv(conn.recv_buffer.data(), conn.recv_buffer.size(),
                    conn.recv_buffer.region());
}

void KvServer::MaybeReap(Socket& socket, Conn& conn) {
  // Once the peer closed and every response flushed, close our sending
  // side (the peer sees end-of-stream) and drop the connection state.
  if (!conn.peer_closed || !conn.sends.empty() || conn.closed) return;
  conn.closed = true;
  if (!socket.CloseRequested()) socket.Close();
  ++stats_.connections_closed;
  conns_.erase(&socket);
}

}  // namespace exs::rpc
