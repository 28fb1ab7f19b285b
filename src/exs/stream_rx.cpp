// Receiver half of the dynamic stream protocol — Figs. 3 (ADVERT send),
// 4 (transfer arrival) and 5 (copy-out) of the paper.
#include "exs/stream.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace exs {

StreamRx::StreamRx(StreamContext ctx)
    : ctx_(std::move(ctx)),
      ring_mem_(ctx_.ring_lease.valid()
                    ? 0
                    : ctx_.options.intermediate_buffer_bytes),
      ring_(ctx_.ring_lease.valid() ? ctx_.ring_lease.bytes()
                                    : ctx_.options.intermediate_buffer_bytes) {
  if (ctx_.ring_lease.valid()) {
    // Pool-leased ring: the backing carve and its (pool-wide) registration
    // come from the engine's BufferPool; nothing to allocate here.
    ring_base_ = ctx_.ring_lease.mem();
    ring_mr_ = ctx_.ring_lease.mr();
    EXS_CHECK_MSG(ring_mr_ != nullptr, "ring lease carries no registration");
  } else {
    EXS_CHECK_MSG(ctx_.options.intermediate_buffer_bytes > 0,
                  "intermediate buffer must have nonzero capacity");
    ring_base_ = ring_mem_.data();
    ring_mr_ = ctx_.channel->device().RegisterMemory(ring_mem_.data(),
                                                     ring_mem_.size());
  }
  if (ctx_.metrics != nullptr) {
    ring_.SetOccupancyProbe(&ctx_.metrics->rx_ring_occupancy, ctx_.scheduler);
  }
}

std::uint64_t StreamRx::ring_addr() const {
  return reinterpret_cast<std::uint64_t>(ring_base_);
}

void StreamRx::AdvancePhaseTo(std::uint64_t phase) {
  const SimTime now = ctx_.scheduler->Now();
  const SimDuration dwell = now - phase_start_;
  if (PhaseIsDirect(phase_)) {
    ctx_.metrics->rx_phase_dwell_direct.Record(
        static_cast<std::uint64_t>(dwell));
  } else {
    ctx_.metrics->rx_phase_dwell_indirect.Record(
        static_cast<std::uint64_t>(dwell));
  }
  phase_ = phase;
  phase_start_ = now;
  ctx_.metrics->rx_phase.Set(static_cast<double>(phase_));
  Trace(TraceEventType::kReceiverPhaseChanged);
}

void StreamRx::Submit(std::uint64_t id, void* buf, std::uint64_t len,
                      std::uint32_t rkey, bool waitall) {
  EXS_CHECK_MSG(len > 0, "zero-length receive is not meaningful");
  if (eof_delivered_) {
    // End-of-stream already reached: classic sockets semantics, the
    // receive completes immediately with zero bytes.
    ctx_.metrics->recvs_completed.Increment();
    ctx_.events->Push(Event{EventType::kRecvComplete, id, 0, false});
    return;
  }
  PendingRecv rec;
  rec.id = id;
  rec.base = static_cast<std::uint8_t*>(buf);
  rec.len = len;
  rec.rkey = rkey;
  rec.waitall = waitall;
  pending_.push_back(rec);
  // Buffered data may already be waiting for this receive; otherwise see
  // whether the new receive can be advertised (Fig. 3).
  DrainRing();
  TryAdvertise();
}

void StreamRx::TryAdvertise() {
  if (ctx_.options.mode == ProtocolMode::kIndirectOnly) return;
  while (true) {
    // The un-adverted receives form a suffix of the pending queue (they
    // are advertised strictly in order); find its start.
    std::size_t first_unadverted = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (!pending_[i].adverted) {
        first_unadverted = i;
        break;
      }
    }
    if (first_unadverted == pending_.size()) return;  // nothing to advertise

    // Fig. 3 line 1, the gate: no ADVERT while buffered bytes remain
    // (b_r > 0) ...  The sabotage hook drops the gate so the trace records
    // the violation for the invariant checker to catch.
    if (!ctx_.options.sabotage.advertise_without_gate &&
        (ring_.used() > 0 || copy_in_progress_)) {
      return;
    }

    // ... or while any earlier receive still holds an ADVERT from a prior
    // phase (k_a > 0).  Earlier receives with *no* ADVERT (k_b) cannot
    // occur here because we advertise in order.
    std::uint64_t candidate_phase =
        PhaseIsIndirect(phase_) ? NextPhase(phase_) : phase_;
    for (std::size_t i = 0; i < first_unadverted; ++i) {
      if (pending_[i].advert_phase != candidate_phase) return;
    }

    if (!ctx_.channel->CanSend()) return;  // resumed by credit return

    if (PhaseIsIndirect(phase_)) {
      // Resuming direct service after an indirect phase (Fig. 3 lines 5-7).
      // At this point the buffer is empty and every prior receive was
      // satisfied, so seq_est_ has been corrected to equal seq_ exactly.
      // (Skipped under sabotage: with the gate dropped the buffer need not
      // be empty, and the point is to emit the bad ADVERT into the trace.)
      if (!ctx_.options.sabotage.advertise_without_gate) {
        EXS_CHECK_MSG(first_unadverted == 0 ? seq_est_ == seq_ : true,
                      "resynchronisation invariant: S'_r == S_r at the first "
                      "ADVERT of a new phase");
      }
      AdvancePhaseTo(NextPhase(phase_));
    }

    PendingRecv& r = pending_[first_unadverted];
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kAdvert);
    msg.addr = reinterpret_cast<std::uint64_t>(r.base) + r.filled;
    msg.rkey = r.rkey;
    msg.len = r.len - r.filled;
    msg.seq = seq_est_;
    msg.set_phase(phase_);
    msg.waitall = r.waitall ? 1 : 0;
    if (RecoveryOn()) msg.delivered = DeliveredFrontier();
    if (PiggybackAcks() && pending_ack_bytes_ > 0) {
      // The ADVERT never uses `freed` for itself, so the pending ACK count
      // rides along and the standalone ACK is saved entirely.  The sender
      // releases the space before matching the ADVERT, preserving the
      // order a separate ACK would have imposed.
      msg.ack_piggyback = 1;
      msg.freed = pending_ack_bytes_;
      Trace(TraceEventType::kAckPiggybacked, pending_ack_bytes_);
      ctx_.metrics->acks_piggybacked.Increment();
      pending_ack_bytes_ = 0;
    }
    Trace(TraceEventType::kAdvertSent, r.len - r.filled, seq_est_, phase_);
    ctx_.channel->SendControl(msg);
    ctx_.metrics->adverts_sent.Increment();

    r.adverted = true;
    r.advert_phase = phase_;
    r.advert_time = ctx_.scheduler->Now();
    r.rtt_pending = true;
    // Advance the next-expected estimate (Fig. 3 lines 10-14): by the full
    // remaining length under MSG_WAITALL, else by the minimum bytes that
    // can complete the receive (one).
    seq_est_ += r.waitall ? (r.len - r.filled) : 1;
  }
}

void StreamRx::SetStriping(std::uint32_t rails) {
  EXS_CHECK_MSG(rails > 1, "striping needs at least two rails");
  EXS_CHECK_MSG(seq_ == 0 && next_stripe_seq_ == 0,
                "striping must be enabled before any data moves");
  rails_ = rails;
}

void StreamRx::OnData(bool indirect, std::uint64_t len, bool has_stripe_seq,
                      std::uint64_t stripe_seq, std::size_t rail,
                      std::uint64_t trace_ctx) {
  if (spans_ != nullptr && trace_ctx != 0) {
    spans_->NoteArrive(trace_ctx, ctx_.scheduler->Now(), span_endpoint_,
                       static_cast<std::uint32_t>(rail));
  }
  if (rails_ <= 1) {
    EXS_CHECK_MSG(!has_stripe_seq,
                  "stripe sequence on a single-rail connection");
    // Never parked: zero reorder wait, recorded so per-rail counts stay
    // comparable across striped and classic runs.
    RecordHolWait(
        StripedChunk{indirect, len, rail, ctx_.scheduler->Now(), trace_ctx});
    ProcessData(indirect, len, /*striped=*/false, 0, rail, trace_ctx);
    return;
  }
  // Striped connection: park the notification until every predecessor in
  // the delivery sequence has been processed, then drain the contiguous
  // prefix.  The payload is already in place (the sender computed the
  // destination address at post time, independent of the rail), so the
  // wait re-orders bookkeeping only — exs_recv() completion order and the
  // phase machinery see exactly the sender's submission order.
  EXS_CHECK_MSG(has_stripe_seq, "striped connection requires a stripe seq");
  EXS_CHECK_MSG(stripe_seq >= next_stripe_seq_, "stripe sequence regressed");
  bool inserted =
      stripe_reorder_
          .emplace(stripe_seq, StripedChunk{indirect, len, rail,
                                            ctx_.scheduler->Now(), trace_ctx})
          .second;
  EXS_CHECK_MSG(inserted, "duplicate stripe sequence " << stripe_seq);
  while (!stripe_reorder_.empty() &&
         stripe_reorder_.begin()->first == next_stripe_seq_) {
    StripedChunk chunk = stripe_reorder_.begin()->second;
    stripe_reorder_.erase(stripe_reorder_.begin());
    ++next_stripe_seq_;
    RecordHolWait(chunk);
    ProcessData(chunk.indirect, chunk.len, /*striped=*/true,
                next_stripe_seq_ - 1, chunk.rail, chunk.trace_ctx);
  }
}

void StreamRx::ProcessData(bool indirect, std::uint64_t len, bool striped,
                           std::uint64_t stripe_seq, std::size_t rail,
                           std::uint64_t trace_ctx) {
  SpanNoteProcessed(trace_ctx, indirect, len);
  if (!indirect) {
    // Direct arrival (Fig. 4 lines 1-6).  By Theorem 1 it belongs to the
    // receive at the head of the queue; these checks *are* the safety
    // property and fail loudly if the matching logic is ever wrong.
    EXS_CHECK_MSG(!pending_.empty(),
                  "direct transfer with no pending receive");
    PendingRecv& r = pending_.front();
    EXS_CHECK_MSG(r.adverted, "direct transfer into un-advertised receive");
    EXS_CHECK_MSG(ring_.used() == 0 && !copy_in_progress_,
                  "direct transfer while the intermediate buffer is in use");
    EXS_CHECK_MSG(r.filled + len <= r.len, "direct transfer overfills");
    if (r.rtt_pending) {
      // ADVERT round trip: from the ADVERT leaving to the first byte it
      // solicited landing in user memory (the latency the paper's direct
      // path trades against the indirect path's copy).
      ctx_.metrics->advert_rtt.Record(
          static_cast<std::uint64_t>(ctx_.scheduler->Now() - r.advert_time));
      r.rtt_pending = false;
    }
    r.filled += len;
    seq_ += len;
    // Fig. 4 lines 3-5: a non-WAITALL ADVERT estimated one byte; the
    // receive completes with this transfer, so correct the estimate with
    // the actual length.  A WAITALL estimate was already exact.
    if (!r.waitall) seq_est_ += len - 1;
    ctx_.metrics->direct_bytes_received.Add(len);
    // Striped arrivals log (stripe_seq, rail) in the trace's spare fields
    // for the invariant checker's reassembly audit (kept zero single-rail
    // so golden fingerprints are unchanged).
    Trace(TraceEventType::kDirectArrived, len, striped ? stripe_seq : 0,
          striped ? rail : 0);
    if (!r.waitall || r.filled == r.len) CompleteFront();
    TryAdvertise();
    return;
  }

  // Indirect arrival (Fig. 4 lines 7-11): data is already in the ring at
  // our fill cursor; account for it and move to an indirect phase.
  if (PhaseIsDirect(phase_)) {
    AdvancePhaseTo(NextPhase(phase_));
  }
  Trace(TraceEventType::kIndirectArrived, len, striped ? stripe_seq : 0,
        striped ? rail : 0);
  EXS_CHECK_MSG(len <= ring_.ContiguousWritable(),
                "indirect transfer overruns the intermediate buffer — the "
                "sender's b_s view must prevent this");
  ring_.CommitWrite(len);
  ctx_.metrics->indirect_bytes_received.Add(len);
  DrainRing();
}

void StreamRx::DrainRing() {
  if (copy_in_progress_) return;
  if (ring_.used() == 0 || pending_.empty()) {
    if (ring_.used() == 0) {
      if (PiggybackAcks() && !peer_closed_) {
        // Give an outgoing ADVERT first claim on the pending ACK count; a
        // standalone ACK below then only covers the no-ADVERT case.
        TryAdvertise();
      }
      MaybeSendAck();
      MaybeFinishEof();
    }
    TryAdvertise();
    return;
  }
  PendingRecv& r = pending_.front();
  std::uint64_t n = ring_.ContiguousReadable();
  if (r.len - r.filled < n) n = r.len - r.filled;
  EXS_CHECK(n > 0);

  // Fig. 5: the copy occupies the CPU at memcpy bandwidth — this is the
  // "higher CPU usage at the receiver" the paper trades for latency.
  copy_in_progress_ = true;
  SpanNoteCopyPassStart(n);
  SimDuration cost = ctx_.memcpy_bandwidth.TransmissionTime(n);
  ctx_.metrics->copy_busy_time.Add(static_cast<std::uint64_t>(cost));
  ctx_.cpu->Submit(cost, [this, n] {
    copy_in_progress_ = false;
    EXS_CHECK(!pending_.empty());
    PendingRecv& front = pending_.front();
    if (ctx_.carry_payload) {
      std::memcpy(front.base + front.filled,
                  ring_base_ + ring_.read_offset(), n);
    }
    ring_.CommitRead(n);
    front.filled += n;
    seq_ += n;
    // Fig. 5 lines 5-7: keep the next-expected estimate in step with what
    // was actually consumed.  A receive that never advertised contributed
    // no estimate, so S'_r tracks S_r directly; an advertised non-WAITALL
    // receive estimated one byte and completes with this copy; an
    // advertised WAITALL estimate was already exact.
    if (!front.adverted) {
      seq_est_ += n;
    } else if (!front.waitall) {
      seq_est_ += n - 1;
    }
    pending_ack_bytes_ += n;
    ctx_.metrics->bytes_copied_out.Add(n);
    Trace(TraceEventType::kCopyOut, n);
    SpanNoteCopyPassDone(n);
    // A plain receive completes with whatever one pass delivered; a
    // MSG_WAITALL receive keeps waiting until full.
    if (!front.waitall || front.filled == front.len) CompleteFront();
    MaybeSendAck();
    DrainRing();
  });
}

void StreamRx::CompleteFront() {
  PendingRecv r = pending_.front();
  pending_.pop_front();
  ctx_.metrics->recvs_completed.Increment();
  ctx_.metrics->bytes_received.Add(r.filled);
  ctx_.events->Push(Event{EventType::kRecvComplete, r.id, r.filled, false});
  SpanNoteDelivered(r.filled);
}

void StreamRx::MaybeSendAck() {
  if (pending_ack_bytes_ == 0) return;
  // Fig. 5 line 2, batched: ACK when enough space has been freed, when the
  // sender's view of the buffer must be exhausted (it is certainly
  // blocked), or when the connection has gone idle here (no pending
  // receives and nothing buffered) and the freed space should be returned
  // promptly rather than parked.
  bool sender_view_full =
      ring_.used() + pending_ack_bytes_ >= ring_.capacity();
  bool idle_flush = ring_.used() == 0 && pending_.empty();
  bool due = pending_ack_bytes_ >= ctx_.options.ResolvedAckThreshold() ||
             sender_view_full || idle_flush;
  if (!due) return;
  if (!ctx_.channel->CanSend()) return;  // resumed by credit return
  wire::ControlMessage msg;
  msg.type = static_cast<std::uint8_t>(wire::ControlType::kAck);
  msg.freed = pending_ack_bytes_;
  if (RecoveryOn()) msg.delivered = DeliveredFrontier();
  ctx_.channel->SendControl(msg);
  Trace(TraceEventType::kAckSent, pending_ack_bytes_);
  pending_ack_bytes_ = 0;
  ctx_.metrics->acks_sent.Increment();
}

void StreamRx::OnShutdown() {
  EXS_CHECK_MSG(!peer_closed_, "duplicate SHUTDOWN");
  peer_closed_ = true;
  // In-order delivery guarantees every data WWI of the stream has already
  // arrived; what remains may still sit in the intermediate buffer.
  MaybeFinishEof();
}

void StreamRx::MaybeFinishEof() {
  if (!peer_closed_ || eof_delivered_) return;
  if (ring_.used() > 0 || copy_in_progress_) return;  // still draining
  // Striping: chunks parked in the reorder buffer are delivered data the
  // stream has not yet accounted; EOF waits for them (the sender's gate —
  // SHUTDOWN only after all local WWI completions — makes this transient).
  if (!stripe_reorder_.empty()) return;
  eof_delivered_ = true;
  // Outstanding receives complete with whatever they hold — including
  // MSG_WAITALL ones, which can never fill now (partial data at EOF).
  while (!pending_.empty()) {
    PendingRecv r = pending_.front();
    pending_.pop_front();
    ctx_.metrics->recvs_completed.Increment();
    ctx_.metrics->bytes_received.Add(r.filled);
    ctx_.events->Push(Event{EventType::kRecvComplete, r.id, r.filled,
                            false});
    SpanNoteDelivered(r.filled);
  }
  ctx_.events->Push(Event{EventType::kPeerClosed, 0, 0, false});
  TryReleaseRing();
}

bool StreamRx::TryReleaseRing() {
  if (ring_released_) return true;
  if (!ctx_.ring_lease.HasRelease()) return false;  // private ring: no-op
  if (!eof_delivered_ || ring_.used() > 0 || copy_in_progress_) return false;
  ring_released_ = true;
  ctx_.ring_lease.Release();
  return true;
}

void StreamRx::OnCreditAvailable() {
  MaybeSendAck();
  TryAdvertise();
}

void StreamRx::ResumeRx(std::uint64_t resume_phase, std::uint32_t rails) {
  EXS_CHECK_MSG(RecoveryOn(), "resume on a socket without recovery enabled");
  EXS_CHECK_MSG(PhaseIsIndirect(resume_phase),
                "resume re-enters the protocol in an indirect phase");
  // Marker first: seq field = S_r (which never rewinds), len = the
  // delivered frontier the sender is resuming at.
  Trace(TraceEventType::kResumeRx, DeliveredFrontier(), 0, resume_phase);

  // The next-expected estimate re-bases on hard state.  Not the frontier:
  // ring bytes drained into un-advertised receives advance S'_r by their
  // count in DrainRing, so starting from S_r counts them exactly once.
  seq_est_ = seq_;

  // Chunks parked behind a missing stripe predecessor were never taken
  // into custody; the sender retransmits them (and restarts its stripe
  // sequence space to match).
  stripe_reorder_.clear();
  next_stripe_seq_ = 0;
  rails_ = rails;

  // Every outstanding ADVERT died with the transport: revert the pending
  // queue to un-advertised so TryAdvertise re-issues them in order, exact
  // continuation addresses included (filled bytes stay delivered).
  for (PendingRecv& r : pending_) {
    r.adverted = false;
    r.advert_phase = 0;
    r.rtt_pending = false;
  }

  // The sender adopts our cursors directly in its ResumeTx, so free space
  // already drained needs no ACK — and an ACK for it would double-free.
  pending_ack_bytes_ = 0;

  // Chunk spans across a resume are best-effort: entries waiting on
  // dropped chunks would never close.
  span_deliver_wait_.clear();
  span_ring_wait_.clear();

  if (phase_ < resume_phase) AdvancePhaseTo(resume_phase);

  // Restart delivery: drain buffered bytes into the (preserved) pending
  // receives, then re-advertise — the first post-resume ADVERT carries the
  // exact frontier sequence, which is what lets the sender's indirect-phase
  // exact-sequence rule accept it.
  DrainRing();
  TryAdvertise();
}

// --- Causal chunk tracing ---------------------------------------------------
//
// Processing (ProcessData), ring copy-out passes and receive completions
// each happen strictly in stream-byte order, so three cumulative byte
// counters are enough to pair a sampled chunk with the copy pass and the
// receive completion that retire its last byte.  None of these helpers
// schedule events or charge CPU: attaching a collector cannot perturb the
// simulation, which is what keeps golden fingerprints bit-identical.

void StreamRx::SpanNoteProcessed(std::uint64_t trace_ctx, bool indirect,
                                 std::uint64_t len) {
  if (spans_ == nullptr) return;
  span_stream_off_ += len;
  if (indirect) {
    span_ring_fill_ += len;
    if (trace_ctx != 0) {
      span_ring_wait_.push_back(
          SpanRingWait{trace_ctx, span_ring_fill_ - len, span_ring_fill_});
    }
  }
  if (trace_ctx != 0) {
    spans_->NoteProcess(trace_ctx, ctx_.scheduler->Now());
    span_deliver_wait_.push_back(
        SpanDeliverWait{trace_ctx, span_stream_off_});
  }
}

void StreamRx::SpanNoteCopyPassStart(std::uint64_t pass_bytes) {
  if (spans_ == nullptr || span_ring_wait_.empty()) return;
  // The pass consumes the FIFO prefix [span_ring_copied_, copied_after) of
  // everything ever written to the ring: any chunk overlapping that window
  // leaves ring residence now (the collector ignores repeats for chunks
  // already marked by an earlier partial pass).
  const SimTime now = ctx_.scheduler->Now();
  const std::uint64_t copied_after = span_ring_copied_ + pass_bytes;
  for (const SpanRingWait& w : span_ring_wait_) {
    if (w.fill_start >= copied_after) break;
    spans_->NoteRingCopyStart(w.id, now);
  }
}

void StreamRx::SpanNoteCopyPassDone(std::uint64_t pass_bytes) {
  if (spans_ == nullptr) return;
  const SimTime now = ctx_.scheduler->Now();
  span_ring_copied_ += pass_bytes;
  while (!span_ring_wait_.empty() &&
         span_ring_wait_.front().fill_end <= span_ring_copied_) {
    spans_->NoteCopied(span_ring_wait_.front().id, now);
    span_ring_wait_.pop_front();
  }
}

void StreamRx::SpanNoteDelivered(std::uint64_t bytes) {
  if (spans_ == nullptr || bytes == 0) return;
  const SimTime now = ctx_.scheduler->Now();
  span_delivered_ += bytes;
  while (!span_deliver_wait_.empty() &&
         span_deliver_wait_.front().end_off <= span_delivered_) {
    spans_->NoteDeliver(span_deliver_wait_.front().id, now);
    span_deliver_wait_.pop_front();
  }
}

void StreamRx::RecordHolWait(const StripedChunk& chunk) {
  if (chunk.rail >= rail_inst_.size()) return;
  rail_inst_[chunk.rail].hol_wait.Record(
      static_cast<std::uint64_t>(ctx_.scheduler->Now() - chunk.arrive_time));
}

}  // namespace exs
