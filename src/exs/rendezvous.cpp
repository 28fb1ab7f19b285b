#include "exs/rendezvous.hpp"

#include "common/check.hpp"

namespace exs {

// ---------------------------------------------------------------------------
// Sender half: advertise sources, wait for READ-DONE.
// ---------------------------------------------------------------------------

void RendezvousTx::Submit(std::uint64_t id, const void* buf,
                          std::uint64_t len, std::uint32_t rkey) {
  EXS_CHECK_MSG(!shutdown_requested_, "send after Close()");
  if (len == 0) {
    ctx_.metrics->sends_completed.Increment();
    ctx_.events->Push(Event{EventType::kSendComplete, id, 0, false});
    return;
  }
  PendingSend s;
  s.id = id;
  s.addr = reinterpret_cast<std::uint64_t>(buf);
  s.len = len;
  s.rkey = rkey;
  unadvertised_.push_back(s);
  Pump();
}

void RendezvousTx::Pump() {
  while (!unadvertised_.empty() && ctx_.channel->CanSend()) {
    PendingSend s = unadvertised_.front();
    unadvertised_.pop_front();
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kSrcAdvert);
    msg.addr = s.addr;
    msg.rkey = s.rkey;
    msg.len = s.len;
    msg.seq = seq_;
    ctx_.channel->SendControl(msg);
    seq_ += s.len;
    ctx_.metrics->adverts_sent.Increment();  // source advertisements, this direction
    awaiting_.push_back(s);
  }
  if (shutdown_requested_ && !shutdown_sent_ && unadvertised_.empty() &&
      ctx_.channel->CanSend()) {
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kShutdown);
    ctx_.channel->SendControl(msg);
    shutdown_sent_ = true;
  }
}

void RendezvousTx::OnReadDone(std::uint64_t bytes) {
  EXS_CHECK_MSG(!awaiting_.empty(), "READ-DONE with nothing outstanding");
  PendingSend s = awaiting_.front();
  EXS_CHECK_MSG(bytes == s.len, "READ-DONE must cover the whole source");
  awaiting_.pop_front();
  ctx_.metrics->sends_completed.Increment();
  ctx_.metrics->bytes_sent.Add(s.len);
  ctx_.events->Push(Event{EventType::kSendComplete, s.id, s.len, false});
}

void RendezvousTx::RequestShutdown() {
  shutdown_requested_ = true;
  Pump();
}

// ---------------------------------------------------------------------------
// Receiver half: pull with RDMA READ, confirm with READ-DONE.
// ---------------------------------------------------------------------------

void RendezvousRx::Submit(std::uint64_t id, void* buf, std::uint64_t len,
                          std::uint32_t lkey, bool waitall) {
  EXS_CHECK_MSG(len > 0, "zero-length receive is not meaningful");
  if (eof_delivered_) {
    ctx_.metrics->recvs_completed.Increment();
    ctx_.events->Push(Event{EventType::kRecvComplete, id, 0, false});
    return;
  }
  PendingRecv r;
  r.id = id;
  r.addr = reinterpret_cast<std::uint64_t>(buf);
  r.len = len;
  r.lkey = lkey;
  r.waitall = waitall;
  pending_.push_back(r);
  PumpReads();
}

void RendezvousRx::OnSrcAdvert(const wire::ControlMessage& msg) {
  Source src;
  src.addr = msg.addr;
  src.len = msg.len;
  src.rkey = msg.rkey;
  EXS_CHECK_MSG(msg.seq == adverts_seen_seq_, "source adverts out of order");
  adverts_seen_seq_ += msg.len;
  sources_.push_back(src);
  ctx_.metrics->adverts_received.Increment();
  PumpReads();
}

void RendezvousRx::PumpReads() {
  // Claim spans pairing the oldest unclaimed receive bytes with the oldest
  // unclaimed source bytes; both sides progress strictly FIFO, so READ
  // completions (which arrive in order) attribute unambiguously.
  while (true) {
    PendingRecv* recv = nullptr;
    for (auto& r : pending_) {
      if (r.claimed < r.len) {
        recv = &r;
        break;
      }
    }
    Source* src = nullptr;
    for (auto& s : sources_) {
      if (s.claimed < s.len) {
        src = &s;
        break;
      }
    }
    if (recv == nullptr || src == nullptr) break;

    std::uint64_t n = recv->len - recv->claimed;
    if (src->len - src->claimed < n) n = src->len - src->claimed;
    ctx_.channel->PostRead(next_read_id_++,
                           reinterpret_cast<void*>(recv->addr + recv->claimed),
                           recv->lkey, n, src->addr + src->claimed,
                           src->rkey);
    recv->claimed += n;
    src->claimed += n;
    ++outstanding_reads_;
    ctx_.metrics->direct_transfers.Increment();  // READs are zero-copy transfers
    ctx_.metrics->direct_bytes.Add(n);
  }
}

void RendezvousRx::OnReadComplete(std::uint64_t /*wr_id*/,
                                  std::uint64_t bytes) {
  EXS_CHECK(outstanding_reads_ > 0);
  --outstanding_reads_;
  seq_ += bytes;
  ctx_.metrics->direct_bytes_received.Add(bytes);

  // Attribute to the oldest receive still waiting for claimed bytes.
  EXS_CHECK(!pending_.empty());
  PendingRecv* recv = nullptr;
  for (auto& r : pending_) {
    if (r.filled < r.claimed) {
      recv = &r;
      break;
    }
  }
  EXS_CHECK_MSG(recv != nullptr, "READ completion with no waiting receive");
  recv->filled += bytes;

  // And to the oldest source still being drained; confirm when done.
  EXS_CHECK(!sources_.empty());
  Source& src = sources_.front();
  EXS_CHECK(src.completed + bytes <= src.len);
  src.completed += bytes;
  if (src.completed == src.len) {
    done_queue_.push_back(src.len);
    sources_.pop_front();
    FlushDones();
  }

  // Complete receives from the front.
  while (!pending_.empty()) {
    PendingRecv& front = pending_.front();
    bool full = front.filled == front.len;
    bool short_ok = !front.waitall && front.filled > 0 &&
                    front.filled == front.claimed && sources_.empty();
    if (!full && !short_ok) break;
    ctx_.metrics->recvs_completed.Increment();
    ctx_.metrics->bytes_received.Add(front.filled);
    ctx_.events->Push(
        Event{EventType::kRecvComplete, front.id, front.filled, false});
    pending_.pop_front();
  }

  PumpReads();
  MaybeFinishEof();
}

void RendezvousRx::FlushDones() {
  while (!done_queue_.empty() && ctx_.channel->CanSend()) {
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kReadDone);
    msg.freed = done_queue_.front();
    done_queue_.pop_front();
    ctx_.channel->SendControl(msg);
    ctx_.metrics->acks_sent.Increment();  // confirmations, this direction
  }
}

void RendezvousRx::OnShutdown() {
  EXS_CHECK_MSG(!peer_closed_, "duplicate SHUTDOWN");
  peer_closed_ = true;
  MaybeFinishEof();
}

void RendezvousRx::MaybeFinishEof() {
  if (!peer_closed_ || eof_delivered_) return;
  if (!sources_.empty() || outstanding_reads_ > 0) return;  // still pulling
  eof_delivered_ = true;
  while (!pending_.empty()) {
    PendingRecv r = pending_.front();
    pending_.pop_front();
    ctx_.metrics->recvs_completed.Increment();
    ctx_.metrics->bytes_received.Add(r.filled);
    ctx_.events->Push(
        Event{EventType::kRecvComplete, r.id, r.filled, false});
  }
  ctx_.events->Push(Event{EventType::kPeerClosed, 0, 0, false});
}

}  // namespace exs
