#include "verbs/queue_pair.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "verbs/srq.hpp"

namespace exs::verbs {

const char* ToString(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess: return "success";
    case WcStatus::kRnrError: return "receiver-not-ready";
    case WcStatus::kLocalLengthError: return "local-length-error";
    case WcStatus::kRemoteAccessError: return "remote-access-error";
    case WcStatus::kWrFlushError: return "wr-flush-error";
    case WcStatus::kRetryExceededError: return "retry-exceeded-error";
  }
  return "?";
}

const char* ToString(WcOpcode opcode) {
  switch (opcode) {
    case WcOpcode::kSend: return "send";
    case WcOpcode::kRdmaWrite: return "rdma-write";
    case WcOpcode::kRdmaWriteWithImm: return "rdma-write-imm";
    case WcOpcode::kRdmaRead: return "rdma-read";
    case WcOpcode::kRecv: return "recv";
    case WcOpcode::kRecvRdmaWithImm: return "recv-rdma-imm";
  }
  return "?";
}

QueuePairStats QueuePairCounters::Stats() const {
  return {.sends_posted = sends_posted.value(),
          .recvs_posted = recvs_posted.value(),
          .payload_bytes_sent = payload_bytes_sent.value(),
          .wire_bytes_sent = wire_bytes_sent.value(),
          .messages_delivered = messages_delivered.value(),
          .rnr_errors = rnr_errors.value(),
          .remote_access_errors = remote_access_errors.value(),
          .length_errors = length_errors.value(),
          .srq_recvs_consumed = srq_recvs_consumed.value(),
          .flushed_wrs = flushed_wrs.value(),
          .wwis_unreached = wwis_unreached.value(),
          .doorbells = doorbells.value(),
          .batched_wrs = batched_wrs.value(),
          .gather_wrs = gather_wrs.value(),
          .sge_entries_posted = sge_entries_posted.value(),
          .sge_bytes_posted = sge_bytes_posted.value()};
}

QueuePair::QueuePair(Device& device, CompletionQueue& send_cq,
                     CompletionQueue& recv_cq, QueuePairCounters* counters)
    : device_(&device),
      send_cq_(&send_cq),
      recv_cq_(&recv_cq),
      own_counters_(counters == nullptr
                        ? std::make_unique<QueuePairCounters>()
                        : nullptr),
      counters_(counters == nullptr ? own_counters_.get() : counters) {
  device.NoteQueuePairCreated();
}

void QueuePair::ConnectPair(QueuePair& a, QueuePair& b) {
  EXS_CHECK_MSG(!a.connected() && !b.connected(),
                "queue pair already connected");
  EXS_CHECK_MSG(&a.device_->fabric() == &b.device_->fabric(),
                "queue pairs must share a fabric");
  EXS_CHECK_MSG(a.device_->node_index() != b.device_->node_index(),
                "RC connection needs two distinct nodes");
  a.peer_ = &b;
  b.peer_ = &a;
  a.tx_channel_ = &a.device_->fabric().channel_from(a.device_->node_index());
  b.tx_channel_ = &b.device_->fabric().channel_from(b.device_->node_index());
}

WcOpcode QueuePair::SendWcOpcode(Opcode op) {
  switch (op) {
    case Opcode::kSend: return WcOpcode::kSend;
    case Opcode::kRdmaWrite: return WcOpcode::kRdmaWrite;
    case Opcode::kRdmaWriteWithImm: return WcOpcode::kRdmaWriteWithImm;
    case Opcode::kRdmaRead: return WcOpcode::kRdmaRead;
  }
  return WcOpcode::kSend;
}

SimDuration QueuePair::AckReturnDelay() const {
  // Transport acknowledgments ride the reverse direction without queueing
  // behind data (they coalesce into headers on real hardware), so they see
  // only the propagation path, including any emulator-added delay.
  const auto& cfg = tx_channel_->config();
  return cfg.propagation + cfg.netem.extra_delay;
}

void QueuePair::PostSend(const SendWorkRequest& wr) {
  PostSendCharged(wr, device_->profile().send_wr_overhead);
}

void QueuePair::PostSendBatch(std::span<const SendWorkRequest> wrs) {
  if (wrs.empty()) return;
  const auto& profile = device_->profile();
  // A killed QP refuses the batch: like a refused single post, its WRs
  // count only as flushed, never as posted or batched.
  if (!killed_) {
    counters_->doorbells.Increment();
    counters_->batched_wrs.Add(wrs.size());
  }
  if (profile.doorbell_cost == 0 && profile.per_wr_cost == 0) {
    // Profile does not decompose the doorbell: a batch costs exactly what
    // N single posts would, so batching changes no timing.
    for (const SendWorkRequest& wr : wrs) {
      PostSendCharged(wr, profile.send_wr_overhead);
    }
    return;
  }
  // One doorbell ring amortised over the batch: the first WR carries the
  // MMIO + driver-entry cost, every WR pays its descriptor work.
  for (std::size_t i = 0; i < wrs.size(); ++i) {
    SimDuration cost = profile.per_wr_cost + (i == 0 ? profile.doorbell_cost : 0);
    PostSendCharged(wrs[i], cost);
  }
}

void QueuePair::PostSendCharged(const SendWorkRequest& wr,
                                SimDuration wr_cost) {
  EXS_CHECK_MSG(connected(), "PostSend on unconnected queue pair");
  EXS_CHECK_MSG(wr.num_sge >= 1 && wr.num_sge <= kMaxSge,
                "send WR gather list length out of [1, kMaxSge]");

  if (killed_) {
    // Error-state QP: the WR never touches the wire and completes
    // immediately with a flush status (real RC error-state semantics —
    // posting is legal, working is not).
    auto pkt = std::make_shared<Packet>();
    pkt->wr = wr;
    pkt->payload_len = wr.total_length();
    pkt->post_time = device_->scheduler().Now();
    counters_->flushed_wrs.Increment();
    NoteUnreached(wr);
    CompleteSend(pkt, WcStatus::kWrFlushError, 0);
    return;
  }

  auto pkt = std::make_shared<Packet>();
  pkt->wr = wr;
  pkt->payload_len = wr.total_length();
  pkt->post_time = device_->scheduler().Now();

  if (wr.opcode == Opcode::kRdmaRead) {
    // The SGE names *local* memory the response lands in.
    EXS_CHECK_MSG(wr.num_sge == 1, "RDMA READ takes a single SGE");
    const MemoryRegion* mr = device_->FindByLkey(wr.sge.lkey);
    EXS_CHECK_MSG(mr != nullptr && mr->Covers(wr.sge.addr, wr.sge.length),
                  "RDMA READ response buffer not registered");
  } else if (wr.inline_data) {
    EXS_CHECK_MSG(wr.num_sge == 1, "inline sends take a single SGE");
    EXS_CHECK_MSG(wr.sge.length <= device_->max_inline(),
                  "inline payload exceeds max_inline");
    // Inline payloads are always carried: the upper layer's control
    // messages must survive even when bulk payload carrying is disabled.
    if (wr.sge.length > 0) {
      pkt->payload.resize(wr.sge.length);
      std::memcpy(pkt->payload.data(),
                  reinterpret_cast<const void*>(wr.sge.addr), wr.sge.length);
    }
  } else if (pkt->payload_len > 0) {
    // Each gather element is validated against its own region — a list may
    // span several registrations.  Zero-length elements are legal padding
    // (real HCAs accept them) and touch no memory.  When the fabric
    // carries payload bytes the HCA's gather DMA is modelled by
    // snapshotting the slices, in order, into one contiguous image.
    if (device_->carry_payload()) pkt->payload.reserve(pkt->payload_len);
    for (std::uint32_t i = 0; i < wr.num_sge; ++i) {
      const Sge& sge = wr.sge_at(i);
      if (sge.length == 0) continue;
      const MemoryRegion* mr = device_->FindByLkey(sge.lkey);
      EXS_CHECK_MSG(mr != nullptr && mr->Covers(sge.addr, sge.length),
                    "send payload not covered by registered memory (lkey)");
      if (device_->carry_payload()) {
        const auto* src = reinterpret_cast<const std::uint8_t*>(sge.addr);
        pkt->payload.insert(pkt->payload.end(), src, src + sge.length);
      }
    }
  }

  counters_->sends_posted.Increment();
  counters_->payload_bytes_sent.Add(pkt->payload_len);
  counters_->sge_entries_posted.Add(wr.num_sge);
  counters_->sge_bytes_posted.Add(wr.total_length());
  if (wr.num_sge > 1) counters_->gather_wrs.Increment();

  if (wr.opcode == Opcode::kRdmaWriteWithImm &&
      device_->profile().emulate_wwi_with_send) {
    // Legacy iWARP has no WRITE WITH IMM: ship the data as a plain RDMA
    // WRITE and the notification as a trailing zero-payload SEND (§II-B).
    // The pair costs two work requests and two wire messages.  The
    // extension header travels on the notification half — it is what
    // consumes the receive and raises the upper layer's event.
    pkt->wr.opcode = Opcode::kRdmaWrite;
    pkt->wr.has_imm = false;
    pkt->wr.ext = {};
    pkt->suppress_success_completion = true;
    ScheduleTransmit(pkt, wr_cost);

    auto notify = std::make_shared<Packet>();
    notify->wr = wr;  // keeps the WWI opcode, imm, extensions and wr_id
    notify->wr.sge = Sge{};
    notify->wr.num_sge = 1;
    notify->payload_len = 0;
    notify->wwi_notify = true;
    notify->notify_len = pkt->payload_len;
    notify->post_time = pkt->post_time;
    counters_->sends_posted.Increment();
    ScheduleTransmit(notify, wr_cost);
    return;
  }

  ScheduleTransmit(pkt, wr_cost);
}

void QueuePair::ScheduleTransmit(const PacketPtr& pkt, SimDuration wr_cost) {
  // Track the packet until its completion is raised so Kill() can flush it.
  // Completed packets are pruned lazily to keep the scan bounded.
  if (outstanding_.size() >= 64) {
    std::erase_if(outstanding_, [](const PacketPtr& p) { return p->done; });
  }
  outstanding_.push_back(pkt);
  // The HCA works through posted WRs FIFO, spending the per-WR overhead on
  // each before handing it to the link.
  SimTime now = device_->scheduler().Now();
  SimTime ready = (now > hca_busy_until_ ? now : hca_busy_until_) + wr_cost;
  hca_busy_until_ = ready;
  device_->scheduler().ScheduleAt(ready, [this, pkt] { Transmit(pkt); });
}

void QueuePair::Transmit(const PacketPtr& pkt) {
  if (killed_) {  // flushed by Kill() before reaching the wire
    NoteUnreached(pkt->wr);
    return;
  }
  std::uint64_t wire_bytes = pkt->payload_len + kWireHeaderBytes +
                             (pkt->wr.has_imm ? 4 : 0) +
                             pkt->wr.ext.WireBytes();
  counters_->wire_bytes_sent.Add(wire_bytes);
  QueuePair* peer = peer_;
  tx_channel_->Transmit(wire_bytes, [this, peer, pkt] {
    WcStatus status = peer->Deliver(pkt, *this);
    if (pkt->wr.opcode != Opcode::kRdmaRead) {
      CompleteSend(pkt, status, AckReturnDelay());
    }
    // READ completions are raised by DeliverRead when the response lands.
  });
}

void QueuePair::CompleteSend(const PacketPtr& pkt, WcStatus status,
                             SimDuration extra_delay) {
  if (pkt->done) return;  // already reported (or flushed by Kill)
  pkt->done = true;
  if (pkt->suppress_success_completion && status == WcStatus::kSuccess) {
    return;  // data half of an emulated WWI; the notification reports
  }
  device_->scheduler().ScheduleAfter(extra_delay, [this, pkt, status] {
    WorkCompletion wc;
    wc.wr_id = pkt->wr.wr_id;
    wc.opcode = SendWcOpcode(pkt->wr.opcode);
    wc.status = status;
    wc.byte_len = static_cast<std::uint32_t>(pkt->payload_len);
    wc.qp = this;
    counters_->completion_latency.Record(device_->scheduler().Now() -
                                         pkt->post_time);
    send_cq_->Push(wc);
  });
}

WcStatus QueuePair::Deliver(const PacketPtr& pkt, QueuePair& sender) {
  if (killed_) {
    // A dead destination neither places bytes nor consumes receives; the
    // sender's transport retries exhaust against silence.
    sender.NoteUnreached(pkt->wr);
    return WcStatus::kRetryExceededError;
  }
  counters_->messages_delivered.Increment();
  const SendWorkRequest& wr = pkt->wr;

  if (pkt->wwi_notify) {
    // Trailing notification of an emulated WWI: the data already landed
    // via the preceding RDMA WRITE (in-order delivery guarantees it).
    RecvWorkRequest recv;
    if (!TakeRecv(&recv)) {
      counters_->rnr_errors.Increment();
      return WcStatus::kRnrError;
    }
    WorkCompletion wc;
    wc.wr_id = recv.wr_id;
    wc.qp = this;
    wc.opcode = WcOpcode::kRecvRdmaWithImm;
    wc.status = WcStatus::kSuccess;
    wc.has_imm = wr.has_imm;
    wc.imm = wr.imm;
    wc.ext = wr.ext;
    wc.byte_len = static_cast<std::uint32_t>(pkt->notify_len);
    PushRecvCompletionLater(wc);
    return WcStatus::kSuccess;
  }

  // RDMA opcodes touch our memory through the advertised rkey.
  if (wr.opcode == Opcode::kRdmaWrite ||
      wr.opcode == Opcode::kRdmaWriteWithImm ||
      wr.opcode == Opcode::kRdmaRead) {
    const MemoryRegion* mr = device_->FindByRkey(wr.rkey);
    if (mr == nullptr || !mr->Covers(wr.remote_addr, pkt->payload_len)) {
      counters_->remote_access_errors.Increment();
      EXS_WARN("RDMA " << static_cast<int>(wr.opcode)
                       << " remote access check failed (rkey=" << wr.rkey
                       << " addr=" << wr.remote_addr
                       << " len=" << pkt->payload_len << ")");
      return WcStatus::kRemoteAccessError;
    }
    if (wr.opcode == Opcode::kRdmaRead) return DeliverRead(pkt, sender);
    if (device_->carry_payload() && pkt->payload_len > 0) {
      std::memcpy(reinterpret_cast<void*>(wr.remote_addr),
                  pkt->payload.data(), pkt->payload_len);
    }
    if (wr.opcode == Opcode::kRdmaWrite) return WcStatus::kSuccess;
    // WWI falls through to consume a receive and notify.
  }

  RecvWorkRequest recv;
  if (!TakeRecv(&recv)) {
    counters_->rnr_errors.Increment();
    EXS_WARN("message arrived with no posted receive (RNR)");
    return WcStatus::kRnrError;
  }

  WorkCompletion wc;
  wc.wr_id = recv.wr_id;
  wc.qp = this;
  wc.has_imm = wr.has_imm;
  wc.imm = wr.imm;
  wc.ext = wr.ext;
  wc.byte_len = static_cast<std::uint32_t>(pkt->payload_len);

  if (wr.opcode == Opcode::kSend) {
    wc.opcode = WcOpcode::kRecv;
    if (pkt->payload_len > recv.sge.length) {
      counters_->length_errors.Increment();
      wc.status = WcStatus::kLocalLengthError;
      wc.byte_len = 0;
      PushRecvCompletionLater(wc);
      return WcStatus::kLocalLengthError;
    }
    if (!pkt->payload.empty()) {
      std::memcpy(reinterpret_cast<void*>(recv.sge.addr), pkt->payload.data(),
                  pkt->payload_len);
    }
  } else {
    wc.opcode = WcOpcode::kRecvRdmaWithImm;  // data already placed above
  }
  wc.status = WcStatus::kSuccess;
  PushRecvCompletionLater(wc);
  return WcStatus::kSuccess;
}

WcStatus QueuePair::DeliverRead(const PacketPtr& pkt, QueuePair& sender) {
  // Build the response: bytes read from our memory travel back over our
  // transmit channel and complete the requester's READ when they arrive.
  auto response = std::make_shared<Packet>(*pkt);
  if (device_->carry_payload() && pkt->payload_len > 0) {
    response->payload.resize(pkt->payload_len);
    std::memcpy(response->payload.data(),
                reinterpret_cast<const void*>(pkt->wr.remote_addr),
                pkt->payload_len);
  }
  std::uint64_t wire_bytes = pkt->payload_len + kWireHeaderBytes;
  counters_->wire_bytes_sent.Add(wire_bytes);
  QueuePair* requester = &sender;
  tx_channel_->Transmit(wire_bytes, [requester, response, pkt] {
    // `pkt` is the requester's original work request; if Kill() flushed it
    // while the response was in flight, the READ already completed with an
    // error and the landing response must not complete it again.
    if (pkt->done) return;
    pkt->done = true;
    if (requester->device_->carry_payload() && response->payload_len > 0) {
      std::memcpy(reinterpret_cast<void*>(response->wr.sge.addr),
                  response->payload.data(), response->payload_len);
    }
    requester->CompleteSend(response, WcStatus::kSuccess, 0);
  });
  return WcStatus::kSuccess;
}

void QueuePair::PushRecvCompletionLater(const WorkCompletion& wc) {
  device_->scheduler().ScheduleAfter(
      device_->profile().recv_delivery_overhead,
      [this, wc] { recv_cq_->Push(wc); });
}

void QueuePair::NoteUnreached(const SendWorkRequest& wr) {
  if (wr.opcode == Opcode::kRdmaWriteWithImm) {
    counters_->wwis_unreached.Increment();
  }
}

bool QueuePair::TakeRecv(RecvWorkRequest* out) {
  if (srq_ != nullptr) {
    if (!srq_->Pop(out)) return false;
    counters_->srq_recvs_consumed.Increment();
    return true;
  }
  if (recv_queue_.empty()) return false;
  *out = recv_queue_.front();
  recv_queue_.pop_front();
  return true;
}

void QueuePair::SetSharedReceiveQueue(SharedReceiveQueue* srq) {
  EXS_CHECK_MSG(srq != nullptr, "SetSharedReceiveQueue(nullptr)");
  EXS_CHECK_MSG(&srq->device() == device_,
                "SRQ and queue pair must live on the same device");
  EXS_CHECK_MSG(recv_queue_.empty(),
                "cannot attach an SRQ to a QP with private receives posted");
  srq_ = srq;
}

std::size_t QueuePair::PostedRecvCount() const {
  return srq_ != nullptr ? srq_->PostedRecvCount() : recv_queue_.size();
}

void QueuePair::PostRecv(const RecvWorkRequest& wr) {
  EXS_CHECK_MSG(connected(), "PostRecv on unconnected queue pair");
  EXS_CHECK_MSG(srq_ == nullptr,
                "PostRecv on an SRQ-attached queue pair; post to the SRQ");
  if (killed_) {
    counters_->flushed_wrs.Increment();
    WorkCompletion wc;
    wc.wr_id = wr.wr_id;
    wc.opcode = WcOpcode::kRecv;
    wc.status = WcStatus::kWrFlushError;
    wc.qp = this;
    PushRecvCompletionLater(wc);
    return;
  }
  if (wr.sge.length > 0) {
    const MemoryRegion* mr = device_->FindByLkey(wr.sge.lkey);
    EXS_CHECK_MSG(mr != nullptr && mr->Covers(wr.sge.addr, wr.sge.length),
                  "receive buffer not covered by registered memory (lkey)");
  }
  counters_->recvs_posted.Increment();
  recv_queue_.push_back(wr);
}

void QueuePair::Kill() {
  if (killed_) return;
  killed_ = true;

  // Flush every send WR whose completion is still owed.  The data half of
  // an emulated WWI never reports (its notification half does, and is
  // flushed on its own), so it is marked done silently.
  for (const PacketPtr& pkt : outstanding_) {
    if (pkt->done) continue;
    if (pkt->suppress_success_completion) {
      pkt->done = true;
      continue;
    }
    counters_->flushed_wrs.Increment();
    CompleteSend(pkt, WcStatus::kWrFlushError, 0);
  }
  outstanding_.clear();

  // Flush the private receive queue.  Receives parked in a shared receive
  // queue are the pool's, not this QP's, and stay available to the other
  // attached QPs.
  while (!recv_queue_.empty()) {
    RecvWorkRequest recv = recv_queue_.front();
    recv_queue_.pop_front();
    counters_->flushed_wrs.Increment();
    WorkCompletion wc;
    wc.wr_id = recv.wr_id;
    wc.opcode = WcOpcode::kRecv;
    wc.status = WcStatus::kWrFlushError;
    wc.qp = this;
    PushRecvCompletionLater(wc);
  }

  if (error_handler_) error_handler_(WcStatus::kWrFlushError);

  // The peer learns of the death when its transport retries exhaust: one
  // ack-return delay later its own QP enters the error state too.
  if (peer_ != nullptr && !peer_->killed_) {
    QueuePair* peer = peer_;
    device_->scheduler().ScheduleAfter(AckReturnDelay(),
                                       [peer] { peer->Kill(); });
  }
}

}  // namespace exs::verbs
