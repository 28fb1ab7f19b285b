#include "exs/seqpacket.hpp"

#include "common/check.hpp"

namespace exs {

void SeqPacketTx::Submit(std::uint64_t id, const void* buf, std::uint64_t len,
                         std::uint32_t lkey) {
  EXS_CHECK_MSG(!shutdown_requested_, "send after Close()");
  EXS_CHECK_MSG(len > 0, "empty SEQPACKET message");
  EXS_CHECK_MSG(len <= wire::kMaxWwiChunk,
                "SEQPACKET message exceeds the single-WWI limit");
  PendingSend s;
  s.id = id;
  s.base = static_cast<const std::uint8_t*>(buf);
  s.len = len;
  s.lkey = lkey;
  sends_.push_back(s);
  Pump();
}

void SeqPacketTx::OnAdvert(const wire::ControlMessage& msg) {
  adverts_.push_back(Advert{msg.addr, msg.rkey, msg.len});
  ctx_.metrics->adverts_received.Increment();
  Trace(TraceEventType::kAdvertReceived, msg.len, msg.seq);
  Pump();
}

void SeqPacketTx::RequestShutdown() {
  shutdown_requested_ = true;
  Pump();
}

void SeqPacketTx::Pump() {
  // Message mode: one ADVERT, one WWI, one message — sends wait for
  // adverts and never fall back to buffering.
  while (!sends_.empty() && !adverts_.empty()) {
    if (!ctx_.channel->CanSend()) return;
    PendingSend s = sends_.front();
    Advert a = adverts_.front();
    sends_.pop_front();
    adverts_.pop_front();

    std::uint64_t bytes = s.len < a.len ? s.len : a.len;
    bool truncated = s.len > a.len;
    ctx_.metrics->direct_transfers.Increment();
    ctx_.metrics->direct_bytes.Add(bytes);
    // Traced before seq_ advances, like the stream sender: ev.seq is the
    // cumulative byte count *before* this message.
    Trace(TraceEventType::kDirectPosted, bytes);
    seq_ += bytes;
    awaiting_ack_.push_back(Sent{s.id, bytes, truncated});
    const verbs::Sge sge{reinterpret_cast<std::uint64_t>(s.base),
                         static_cast<std::uint32_t>(bytes), s.lkey};
    ctx_.channel->PostDataWwi(s.id, {&sge, 1}, a.addr, a.rkey,
                              /*indirect=*/false, verbs::ExtHeader{});
  }

  // Orderly close once every queued message has been posted.
  if (shutdown_requested_ && !shutdown_sent_ && sends_.empty() &&
      ctx_.channel->CanSend()) {
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kShutdown);
    ctx_.channel->SendControl(msg);
    shutdown_sent_ = true;
  }
}

void SeqPacketTx::OnWwiComplete(std::uint64_t wr_id) {
  EXS_CHECK(!awaiting_ack_.empty());
  Sent sent = awaiting_ack_.front();
  EXS_CHECK_MSG(sent.id == wr_id, "SEQPACKET completions arrive in order");
  awaiting_ack_.pop_front();
  ctx_.metrics->sends_completed.Increment();
  ctx_.metrics->bytes_sent.Add(sent.bytes);
  ctx_.events->Push(
      Event{EventType::kSendComplete, sent.id, sent.bytes, sent.truncated});
}

void SeqPacketRx::OnShutdown() {
  EXS_CHECK_MSG(!peer_closed_, "duplicate SHUTDOWN");
  peer_closed_ = true;
  // Message mode has no buffering: every sent message was delivered
  // before the SHUTDOWN; waiting receives can never be matched now.
  while (!pending_.empty()) {
    PendingRecv rec = pending_.front();
    pending_.pop_front();
    ctx_.metrics->recvs_completed.Increment();
    ctx_.events->Push(Event{EventType::kRecvComplete, rec.id, 0, false});
  }
  ctx_.events->Push(Event{EventType::kPeerClosed, 0, 0, false});
}

void SeqPacketRx::Submit(std::uint64_t id, void* buf, std::uint64_t len,
                         std::uint32_t rkey) {
  EXS_CHECK_MSG(len > 0, "zero-length receive is not meaningful");
  if (peer_closed_) {
    ctx_.metrics->recvs_completed.Increment();
    ctx_.events->Push(Event{EventType::kRecvComplete, id, 0, false});
    return;
  }
  PendingRecv rec;
  rec.id = id;
  rec.base = static_cast<std::uint8_t*>(buf);
  rec.len = len;
  rec.rkey = rkey;
  pending_.push_back(rec);
  AdvertisePending();
}

void SeqPacketRx::AdvertisePending() {
  for (auto& rec : pending_) {
    if (rec.adverted) continue;
    if (!ctx_.channel->CanSend()) return;
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kAdvert);
    msg.addr = reinterpret_cast<std::uint64_t>(rec.base);
    msg.rkey = rec.rkey;
    msg.len = rec.len;
    // Message mode has no stream sequence; the otherwise-unused seq field
    // carries a monotone ADVERT counter so the invariant checker can
    // verify ordered, loss-free ADVERT delivery.
    msg.seq = ++advert_seq_;
    ctx_.channel->SendControl(msg);
    rec.adverted = true;
    ctx_.metrics->adverts_sent.Increment();
    Trace(TraceEventType::kAdvertSent, rec.len, advert_seq_);
  }
}

void SeqPacketRx::OnData(bool indirect, std::uint64_t len) {
  EXS_CHECK_MSG(!indirect, "SEQPACKET connections have no indirect path");
  EXS_CHECK_MSG(!pending_.empty(), "message arrived with no pending receive");
  PendingRecv rec = pending_.front();
  EXS_CHECK_MSG(rec.adverted, "message arrived for un-advertised receive");
  pending_.pop_front();
  ctx_.metrics->recvs_completed.Increment();
  ctx_.metrics->bytes_received.Add(len);
  ctx_.metrics->direct_bytes_received.Add(len);
  // Traced after seq_ advances, like the stream receiver: ev.seq is the
  // cumulative byte count *including* this message.
  seq_ += len;
  Trace(TraceEventType::kDirectArrived, len);
  ctx_.events->Push(Event{EventType::kRecvComplete, rec.id, len, false});
}

}  // namespace exs
