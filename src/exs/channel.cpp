#include "exs/channel.hpp"

#include "common/check.hpp"
#include "common/logging.hpp"
#include "verbs/srq.hpp"

namespace exs {

ControlChannel::ControlChannel(verbs::Device& device, std::uint32_t credits,
                               ControlSlotSource* shared_slots)
    : device_(&device),
      credits_(credits),
      shared_slots_(shared_slots),
      send_cq_(device.CreateCompletionQueue()),
      recv_cq_(device.CreateCompletionQueue()),
      slab_(shared_slots == nullptr
                ? static_cast<std::size_t>(credits) * wire::kControlSlotBytes
                : 0) {
  EXS_CHECK_MSG(credits >= 4, "credit pool too small to make progress");
  EXS_CHECK_MSG(credits <= 65535,
                "credit pool exceeds the 16-bit wire credit_return field");
  if (shared_slots_ == nullptr) {
    slab_mr_ = device.RegisterMemory(slab_.data(), slab_.size());
  } else {
    slots_liveness_ = shared_slots_->LivenessToken();
  }
  send_cq_->SetHandler(
      [this](const verbs::WorkCompletion& wc) { OnSendCompletion(wc); });
  recv_cq_->SetHandler(
      [this](const verbs::WorkCompletion& wc) { OnRecvCompletion(wc); });
}

ControlChannel::~ControlChannel() {
  // Refund the slot reservation — unless the pool itself is already gone
  // (accepted sockets are owned by the ConnectionService and routinely
  // outlive the acceptor that admitted them).
  if (shared_slots_ != nullptr && !slots_liveness_.expired()) {
    shared_slots_->UnreserveSlots(credits_);
  }
}

void ControlChannel::Connect(ControlChannel& a, ControlChannel& b) {
  if (a.qp_ != nullptr || b.qp_ != nullptr) {
    // Reconnect path: only a pair of dead channels may be re-wired, and
    // both must reset together so the credit grants below stay symmetric.
    EXS_CHECK_MSG(a.qp_ != nullptr && b.qp_ != nullptr && a.dead_ && b.dead_,
                  "Connect on live channels — kill both before reconnecting");
    a.ResetForResume();
    b.ResetForResume();
  }
  a.qp_ = std::make_unique<verbs::QueuePair>(*a.device_, *a.send_cq_,
                                             *a.recv_cq_, &a.qp_counters_);
  b.qp_ = std::make_unique<verbs::QueuePair>(*b.device_, *b.send_cq_,
                                             *b.recv_cq_, &b.qp_counters_);
  verbs::QueuePair::ConnectPair(*a.qp_, *b.qp_);
  a.qp_->SetErrorHandler([ch = &a](verbs::WcStatus s) { ch->MarkDead(s); });
  b.qp_->SetErrorHandler([ch = &b](verbs::WcStatus s) { ch->MarkDead(s); });
  // Pre-post the full pool on both sides before any traffic (§II-B: "each
  // side will post n RECV transactions at startup, prior to connection
  // establishment") and grant the matching credits to the peer.  An
  // SRQ-mode side posts nothing of its own — its grant is covered by a
  // reservation against the shared pool, whose receives were posted when
  // the pool was built (the acceptor's admission control guarantees the
  // reservation fits, so the check here cannot fire on an accepted path).
  a.AttachReceivePool();
  b.AttachReceivePool();
  a.remote_credits_ = b.credits_;
  b.remote_credits_ = a.credits_;
  a.SampleCredits();
  b.SampleCredits();
}

void ControlChannel::MarkDead(verbs::WcStatus reason) {
  dead_ = true;
  // Unposted batched WRs flush into the (now error-state) queue pair: each
  // gets an immediate flush completion, keeping outstanding_wrs_ sound.
  FlushSendBatch();
  if (fatal_notified_) return;
  fatal_notified_ = true;
  owner_->OnFatal(rail_, reason);
}

bool ControlChannel::Kill() {
  if (dead_) return false;  // already dead: killing again is a no-op
  if (qp_ != nullptr && !qp_->killed()) {
    qp_->Kill();  // the error handler marks us dead synchronously
  } else {
    MarkDead(verbs::WcStatus::kWrFlushError);  // never connected
  }
  return true;
}

void ControlChannel::ResetForResume() {
  // Park the dead QP instead of destroying it: scheduler closures it
  // captured (guarded transmits, in-flight flush completions) must stay
  // safe to run.  Its late completions fail the wc.qp identity check.
  dead_qps_.push_back(std::move(qp_));
  dead_ = false;
  fatal_notified_ = false;
  hold_until_ = 0;
  pending_wrs_.clear();  // MarkDead already flushed; belt and braces
  for (const verbs::WorkCompletion& wc : deferred_) NoteDroppedArrival(wc);
  deferred_.clear();
  owed_credits_ = 0;
  remote_credits_ = 0;
  outstanding_wrs_ = 0;
  SampleInflightWrs();
}

void ControlChannel::AttachReceivePool() {
  if (shared_slots_ != nullptr) {
    qp_->SetSharedReceiveQueue(&shared_slots_->srq());
    return;
  }
  for (std::uint32_t slot = 0; slot < credits_; ++slot) PostSlotRecv(slot);
}

void ControlChannel::PostSlotRecv(std::uint32_t slot) {
  verbs::RecvWorkRequest wr;
  wr.wr_id = slot;
  wr.sge.addr = reinterpret_cast<std::uint64_t>(
      slab_.data() + static_cast<std::size_t>(slot) * wire::kControlSlotBytes);
  wr.sge.length = wire::kControlSlotBytes;
  wr.sge.lkey = slab_mr_->lkey();
  qp_->PostRecv(wr);
}

void ControlChannel::SetInstruments(metrics::TimeWeightedSeries* credits,
                                    metrics::TimeWeightedSeries* inflight_wrs,
                                    metrics::Counter* credit_messages) {
  credit_series_ = credits;
  inflight_wr_series_ = inflight_wrs;
  credit_messages_ =
      credit_messages != nullptr ? credit_messages : &own_credit_messages_;
  SampleCredits();
  SampleInflightWrs();
}

void ControlChannel::SampleCredits() {
  if (credit_series_ != nullptr) {
    credit_series_->Record(device_->scheduler().Now(),
                           static_cast<double>(remote_credits_));
  }
}

void ControlChannel::SampleInflightWrs() {
  if (inflight_wr_series_ != nullptr) {
    inflight_wr_series_->Record(device_->scheduler().Now(),
                                static_cast<double>(outstanding_wrs_));
  }
}

void ControlChannel::ConsumeCredit() {
  EXS_CHECK_MSG(remote_credits_ > 0, "send attempted with no credits");
  --remote_credits_;
  SampleCredits();
}

std::uint32_t ControlChannel::TakeCreditReturn() {
  std::uint32_t owed = owed_credits_;
  owed_credits_ = 0;
  return owed;
}

void ControlChannel::SendControl(wire::ControlMessage msg) {
  // RC delivers in post order: a control message must not ring its own
  // doorbell ahead of data WRs still waiting in the batch.
  FlushSendBatch();
  ConsumeCredit();
  // Fits: the constructor caps the pool at 65535 and at most the whole
  // pool can be owed at once.
  msg.credit_return = static_cast<std::uint16_t>(TakeCreditReturn());

  // Control messages travel inline: the payload is captured at post time,
  // so the stack-local serialisation buffer below is safe.
  std::uint8_t buf[wire::kControlSlotBytes] = {};
  wire::Serialize(msg, buf);

  verbs::SendWorkRequest wr;
  wr.wr_id = kControlWrId;
  wr.opcode = verbs::Opcode::kSend;
  wr.inline_data = true;
  wr.sge.addr = reinterpret_cast<std::uint64_t>(buf);
  wr.sge.length = wire::kControlSlotBytes;
  ++outstanding_wrs_;
  SampleInflightWrs();
  qp_->PostSend(wr);
}

void ControlChannel::PostDataWwi(std::uint64_t wr_id,
                                 std::span<const verbs::Sge> sges,
                                 std::uint64_t remote_addr, std::uint32_t rkey,
                                 bool indirect, const verbs::ExtHeader& ext) {
  EXS_CHECK(wr_id != kControlWrId);
  EXS_CHECK_MSG(!sges.empty() && sges.size() <= verbs::kMaxSge,
                "a data WWI gathers 1.." << verbs::kMaxSge
                                         << " elements, got " << sges.size());
  ConsumeCredit();

  verbs::SendWorkRequest wr;
  wr.wr_id = wr_id;
  wr.opcode = verbs::Opcode::kRdmaWriteWithImm;
  wr.sge = sges[0];
  for (std::size_t i = 1; i < sges.size(); ++i) wr.AddSge(sges[i]);
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  wr.has_imm = true;
  wr.imm = wire::EncodeDataImm(indirect, wr.total_length());
  wr.ext = ext;
  ++outstanding_wrs_;
  SampleInflightWrs();
  EnqueueOrPost(wr);
}

void ControlChannel::EnqueueOrPost(const verbs::SendWorkRequest& wr) {
  if (batch_max_wrs_ == 0) {
    qp_->PostSend(wr);
    return;
  }
  pending_wrs_.push_back(wr);
  if (pending_wrs_.size() >= batch_max_wrs_) FlushSendBatch();
}

void ControlChannel::FlushSendBatch() {
  if (pending_wrs_.empty()) return;
  doorbell_batches_->Increment();
  doorbell_wrs_->Add(pending_wrs_.size());
  // Posting into a killed QP is deliberate: each WR gets an immediate
  // flush completion, which keeps outstanding_wrs_ accounting sound.
  qp_->PostSendBatch(pending_wrs_);
  pending_wrs_.clear();
}

void ControlChannel::PostRead(std::uint64_t wr_id, void* dst,
                              std::uint32_t lkey, std::uint64_t len,
                              std::uint64_t remote_addr,
                              std::uint32_t rkey) {
  EXS_CHECK(wr_id != kControlWrId);
  // READs bypass the batch but must not overtake batched WWIs (RC FIFO).
  FlushSendBatch();
  verbs::SendWorkRequest wr;
  wr.wr_id = wr_id;
  wr.opcode = verbs::Opcode::kRdmaRead;
  wr.sge.addr = reinterpret_cast<std::uint64_t>(dst);
  wr.sge.length = static_cast<std::uint32_t>(len);
  wr.sge.lkey = lkey;
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  ++outstanding_wrs_;
  SampleInflightWrs();
  qp_->PostSend(wr);
}

void ControlChannel::OnSendCompletion(const verbs::WorkCompletion& wc) {
  if (wc.qp != qp_.get()) return;  // late completion from a parked dead QP
  if (wc.status != verbs::WcStatus::kSuccess) {
    // Fatal transport statuses (flush, retry-exceeded) mark the channel
    // dead and dispatch nothing: the resume handshake re-drives the stream
    // from the delivered frontier, not from partial post-mortem reports.
    // Anything else is still a protocol bug the credit scheme must prevent.
    EXS_CHECK_MSG(wc.status == verbs::WcStatus::kWrFlushError ||
                      wc.status == verbs::WcStatus::kRetryExceededError,
                  "send failed: " << verbs::ToString(wc.status)
                                  << " — the credit scheme should prevent this");
    MarkDead(wc.status);
    if (outstanding_wrs_ > 0) {
      --outstanding_wrs_;
      SampleInflightWrs();
    }
    return;
  }
  if (dead_) {
    // Success completion racing the death (acknowledged just before the
    // kill): account it, dispatch nothing.
    if (outstanding_wrs_ > 0) {
      --outstanding_wrs_;
      SampleInflightWrs();
    }
    return;
  }
  EXS_CHECK(outstanding_wrs_ > 0);
  --outstanding_wrs_;
  SampleInflightWrs();
  if (wc.wr_id == kControlWrId) return;
  if (wc.opcode == verbs::WcOpcode::kRdmaRead) {
    owner_->OnReadDone(rail_, wc.wr_id, wc.byte_len);
    return;
  }
  owner_->OnDataSent(rail_, wc.wr_id);
}

void ControlChannel::OnRecvCompletion(const verbs::WorkCompletion& wc) {
  if (wc.qp != qp_.get()) {  // late completion from a parked dead QP
    NoteDroppedArrival(wc);
    return;
  }
  // The deferred-queue check keeps arrival order: once anything is held,
  // everything behind it queues too, even after the hold window expires.
  if (device_->scheduler().Now() < hold_until_ || !deferred_.empty()) {
    deferred_.push_back(wc);
    return;
  }
  ProcessRecvCompletion(wc);
}

void ControlChannel::HoldIncoming(SimDuration hold) {
  EXS_CHECK(hold >= 0);
  if (dead_) return;  // a fault hook on a dead transport is a no-op
  SimTime until = device_->scheduler().Now() + hold;
  if (until <= hold_until_) return;  // already covered by a longer hold
  hold_until_ = until;
  device_->scheduler().ScheduleAt(until, [this]() { DrainDeferred(); });
}

void ControlChannel::DrainDeferred() {
  if (device_->scheduler().Now() < hold_until_) return;  // superseded
  while (!deferred_.empty()) {
    verbs::WorkCompletion wc = deferred_.front();
    deferred_.pop_front();
    ProcessRecvCompletion(wc);
  }
}

void ControlChannel::ProcessRecvCompletion(const verbs::WorkCompletion& wc) {
  if (wc.status != verbs::WcStatus::kSuccess || dead_) {
    // A flushed receive, or a delivery racing the QP's death.  Recycle a
    // successfully consumed shared slot so the pool never leaks (flushed
    // private receives belong to the dead QP and are simply gone — the
    // reconnect re-posts a full pool); dispatch nothing, but count a data
    // WWI the death swallowed.
    if (wc.status != verbs::WcStatus::kSuccess) {
      EXS_CHECK_MSG(wc.status == verbs::WcStatus::kWrFlushError,
                    "receive failed: " << verbs::ToString(wc.status));
      MarkDead(wc.status);
    } else {
      NoteDroppedArrival(wc);
      if (shared_slots_ != nullptr) shared_slots_->RepostSlot(wc.wr_id);
    }
    return;
  }
  // Recycle the consumed slot right away so the pool never shrinks.  In
  // shared-slot mode the recycled receive goes back to the SRQ tail; its
  // slab bytes stay intact until some future arrival consumes that slot
  // again, which is strictly after the Parse below.
  auto slot = static_cast<std::uint32_t>(wc.wr_id);
  if (shared_slots_ != nullptr) {
    shared_slots_->RepostSlot(wc.wr_id);
  } else {
    PostSlotRecv(slot);
  }
  ++owed_credits_;

  if (wc.opcode == verbs::WcOpcode::kRecvRdmaWithImm) {
    EXS_CHECK(wc.has_imm);
    // Credit accounting above already happened, so a mux slot's owner may
    // drop a stale arrival without disturbing conservation.
    owner_->OnData(rail_, wire::ImmIsIndirect(wc.imm), wire::ImmLength(wc.imm),
                   wc.ext);
    MaybeSendStandaloneCredit();
    return;
  }

  EXS_CHECK(wc.opcode == verbs::WcOpcode::kRecv);
  const std::uint8_t* slot_mem =
      shared_slots_ != nullptr
          ? shared_slots_->SlotMem(wc.wr_id)
          : slab_.data() +
                static_cast<std::size_t>(slot) * wire::kControlSlotBytes;
  wire::ControlMessage msg = wire::Parse(slot_mem, wc.byte_len);

  bool credits_grew = msg.credit_return > 0;
  remote_credits_ += msg.credit_return;
  if (credits_grew) SampleCredits();

  if (static_cast<wire::ControlType>(msg.type) != wire::ControlType::kCredit) {
    owner_->OnControl(rail_, msg);
  }
  if (credits_grew) owner_->OnCreditAvailable(rail_);
  MaybeSendStandaloneCredit();
}

void ControlChannel::NoteDroppedArrival(const verbs::WorkCompletion& wc) {
  if (wc.status == verbs::WcStatus::kSuccess &&
      wc.opcode == verbs::WcOpcode::kRecvRdmaWithImm) {
    ++dropped_data_wwis_;
  }
}

void ControlChannel::MaybeSendStandaloneCredit() {
  // Return credits proactively once half the pool is owed and no other
  // message has carried them back.  The reserved credit guarantees this
  // can always go out.
  if (dead_) return;
  if (owed_credits_ >= credits_ / 2 && remote_credits_ >= 1) {
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kCredit);
    credit_messages_->Increment();
    SendControl(msg);
  }
}

}  // namespace exs
