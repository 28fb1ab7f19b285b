// Sender half of the dynamic stream protocol — the algorithm of Fig. 2,
// plus the small-transfer coalescing stage (StreamOptions::coalesce).
#include "exs/stream.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace exs {

void StreamTx::SetRemoteRing(std::uint64_t addr, std::uint32_t rkey,
                             std::uint64_t capacity) {
  remote_ring_addr_ = addr;
  remote_ring_rkey_ = rkey;
  remote_ring_ = RingCursor(capacity);
  // Re-attach the occupancy probe: assignment above replaced the cursor.
  if (ctx_.metrics != nullptr) {
    remote_ring_.SetOccupancyProbe(&ctx_.metrics->tx_remote_ring_used,
                                   ctx_.scheduler);
  }
}

void StreamTx::SetStriping(std::size_t rails) {
  EXS_CHECK_MSG(rails > 1 && rails <= rails_.size(),
                "striping needs 2.." << rails_.size() << " rails");
  EXS_CHECK_MSG(chunk_queue_.empty() && wwis_in_flight_ == 0 &&
                    stripe_seq_ == 0,
                "rails must be attached before any data moves");
  rail_count_ = rails;
  rail_outstanding_.assign(rails, 0);
}

std::size_t StreamTx::PickRail() const {
  // Fewest outstanding bytes: adapts to rail asymmetry (a rail stuck
  // behind a long chunk or short on credits accumulates bytes and is
  // avoided); ties break to the lowest index for determinism.
  std::size_t best = kNoRail;
  for (std::size_t rail = 0; rail < rail_count_; ++rail) {
    if (!Rail(rail)->CanSend()) continue;
    if (best == kNoRail || rail_outstanding_[rail] < rail_outstanding_[best]) {
      best = rail;
    }
  }
  return best;
}

void StreamTx::Submit(std::uint64_t id, const void* buf, std::uint64_t len,
                      std::uint32_t lkey) {
  EXS_CHECK_MSG(len <= std::numeric_limits<std::uint32_t>::max(),
                "a send must fit one gather element");
  const verbs::Sge sge{reinterpret_cast<std::uint64_t>(buf),
                       static_cast<std::uint32_t>(len), lkey};
  Enqueue(id, {&sge, 1}, /*may_stage=*/true);
}

void StreamTx::SubmitV(std::uint64_t id, std::span<const verbs::Sge> sges) {
  EXS_CHECK_MSG(!sges.empty() && sges.size() <= verbs::kMaxSge,
                "Sendv arity must be 1.." << verbs::kMaxSge << ", got "
                                          << sges.size());
  Enqueue(id, sges, /*may_stage=*/false);
}

void StreamTx::Enqueue(std::uint64_t id, std::span<const verbs::Sge> sges,
                       bool may_stage) {
  EXS_CHECK_MSG(!shutdown_requested_, "send after Close()");
  std::uint64_t len = 0;
  for (const verbs::Sge& sge : sges) len += sge.length;

  if (len == 0) {
    // Zero-length sends complete immediately; a byte stream carries no
    // message boundaries, so there is nothing to transfer.  The trace still
    // records the submission — an invisible code path would be beyond the
    // reach of the golden-trace and invariant suites.
    Trace(TraceEventType::kZeroLengthSend);
    ctx_.metrics->sends_completed.Increment();
    ctx_.events->Push(Event{EventType::kSendComplete, id, 0, false});
    return;
  }

  if (may_stage && ShouldStage(len)) {
    StageCoalesced(id, reinterpret_cast<const void*>(sges[0].addr), len);
    Pump();  // a max-bytes flush may just have queued an aggregate
    return;
  }
  if (!staged_.empty()) {
    // Staged bytes precede this send in the stream, so they must reach the
    // chunk queue first.
    FlushCoalesced(CoalesceFlushReason::kOrdering);
  }

  auto rec = std::make_shared<PendingSend>();
  rec->id = id;
  rec->len = len;
  rec->submit_time = ctx_.scheduler->Now();
  rec->flush_time = rec->submit_time;  // never staged
  if (RecoveryOn()) {
    // Snapshot the payload: the application's buffers are released at send
    // completion, but retransmission after a kill may need the bytes long
    // after that (the completion fallacy — completion is not delivery).
    // A Sendv's slices are gathered host-side into the one snapshot.
    rec->owned = verbs::RegisteredBuffer(ctx_.channel->device(), len);
    std::uint64_t off = 0;
    for (const verbs::Sge& sge : sges) {
      if (ctx_.carry_payload && sge.length > 0) {
        std::memcpy(rec->owned.data() + off,
                    reinterpret_cast<const void*>(sge.addr), sge.length);
      }
      off += sge.length;
    }
    rec->UseOwned();
  } else {
    std::copy(sges.begin(), sges.end(), rec->sges.begin());
    rec->num_sges = static_cast<std::uint32_t>(sges.size());
  }
  chunk_queue_.push_back(rec);
  NoteQueued(rec);
  Pump();
}

void StreamTx::NoteQueued(const std::shared_ptr<PendingSend>& rec) {
  if (!RecoveryOn()) return;
  rec->stream_off = next_stream_off_;
  next_stream_off_ += rec->len;
  sent_log_.push_back(rec);
}

void StreamTx::NoteDelivered(std::uint64_t delivered) {
  if (!RecoveryOn() || delivered <= peer_delivered_) return;
  peer_delivered_ = delivered;
  // Prune records the receiver has fully taken into custody — but only
  // once their completion event has gone out: a delivered record whose
  // local WR completion is still in flight must survive a kill so the
  // resume path can raise the event it will never receive.
  while (!sent_log_.empty()) {
    const PendingSend& front = *sent_log_.front();
    if (front.stream_off + front.len > peer_delivered_) break;
    if (!front.completion_reported) break;
    sent_log_.pop_front();
  }
}

bool StreamTx::ShouldStage(std::uint64_t len) const {
  const auto& knobs = ctx_.options.coalesce;
  if (!knobs.enabled || len > knobs.max_bytes) return false;
  // Never hold back a send that could go straight into advertised memory:
  // coalescing targets the small-indirect regime and must not add latency
  // to the direct path.
  if (!advert_queue_.empty()) return false;
  return true;
}

void StreamTx::StageCoalesced(std::uint64_t id, const void* buf,
                              std::uint64_t len) {
  const auto& knobs = ctx_.options.coalesce;
  if (staged_bytes_ + len > knobs.max_bytes) {
    // Would overflow the staging buffer: flush what is held, then stage
    // this send into the fresh buffer (the overflow split).
    FlushCoalesced(CoalesceFlushReason::kMaxBytes);
  }
  if (staging_.empty()) {
    // Each flush hands the buffer's ownership to its aggregate (the bytes
    // must stay put until the merged WWI completes), so staging restarts
    // with a fresh registered region.
    staging_ = verbs::RegisteredBuffer(ctx_.channel->device(),
                                       knobs.max_bytes);
  }
  if (ctx_.carry_payload) {
    std::memcpy(staging_.data() + staged_bytes_, buf, len);
  }
  if (staged_.empty()) staged_first_time_ = ctx_.scheduler->Now();
  staged_.push_back(StagedSend{id, len});
  staged_bytes_ += len;
  ctx_.metrics->coalesced_sends.Increment();
  ctx_.metrics->coalesced_bytes.Add(len);
  Trace(TraceEventType::kSendStaged, len);
  if (staged_.size() == 1) {
    flush_timer_ = ctx_.scheduler->ScheduleAfter(knobs.max_delay, [this] {
      if (staged_.empty()) return;  // a flush beat the timer
      FlushCoalesced(CoalesceFlushReason::kTimeout);
      Pump();
    });
  }
  if (staged_bytes_ == knobs.max_bytes) {
    // Exactly full: nothing further can merge, flush now (the caller's
    // Pump() posts it).
    FlushCoalesced(CoalesceFlushReason::kMaxBytes);
  }
}

void StreamTx::FlushCoalesced(CoalesceFlushReason reason) {
  if (staged_.empty()) return;
  flush_timer_.Cancel();
  auto rec = std::make_shared<PendingSend>();
  rec->id = staged_.front().id;  // WWI wr_ids resolve to the aggregate
  rec->len = staged_bytes_;
  rec->owned = std::move(staging_);
  rec->UseOwned();
  rec->members = std::move(staged_);
  // The aggregate's staging span starts when its oldest member entered
  // the buffer and ends now.
  rec->submit_time = staged_first_time_;
  rec->flush_time = ctx_.scheduler->Now();
  rec->coalesced = true;
  staged_.clear();
  staged_bytes_ = 0;
  Trace(TraceEventType::kCoalesceFlushed, rec->len, rec->members.size(),
        static_cast<std::uint64_t>(reason));
  switch (reason) {
    case CoalesceFlushReason::kMaxBytes:
      ctx_.metrics->coalesce_flush_maxbytes.Increment();
      break;
    case CoalesceFlushReason::kTimeout:
      ctx_.metrics->coalesce_flush_timeout.Increment();
      break;
    case CoalesceFlushReason::kAdvert:
      ctx_.metrics->coalesce_flush_advert.Increment();
      break;
    case CoalesceFlushReason::kPhaseChange:
      ctx_.metrics->coalesce_flush_phase.Increment();
      break;
    case CoalesceFlushReason::kClose:
      ctx_.metrics->coalesce_flush_close.Increment();
      break;
    case CoalesceFlushReason::kOrdering:
      ctx_.metrics->coalesce_flush_ordering.Increment();
      break;
  }
  NoteQueued(rec);  // the aggregate already owns its payload
  chunk_queue_.push_back(std::move(rec));
}

void StreamTx::OnAdvert(const wire::ControlMessage& msg) {
  NoteDelivered(msg.delivered);
  if (msg.ack_piggyback != 0) {
    // The ADVERT doubles as an ACK (StreamOptions::coalesce piggybacks
    // ACKs): release the freed buffer space first, exactly as the
    // standalone ACK it replaces would have been processed first (it would
    // have been sent earlier).
    remote_ring_.ReleaseFree(msg.freed);
    Trace(TraceEventType::kAckReceived, msg.freed);
  }
  if (!staged_.empty()) {
    // Direct service may resume: merged bytes can ride the new ADVERT
    // instead of waiting out the delay budget.
    FlushCoalesced(CoalesceFlushReason::kAdvert);
  }
  Advert advert;
  advert.addr = msg.addr;
  advert.rkey = msg.rkey;
  advert.len = msg.len;
  advert.seq = msg.seq;
  advert.phase = msg.phase();
  advert.waitall = msg.waitall != 0;
  EXS_CHECK_MSG(PhaseIsDirect(advert.phase),
                "Lemma 1: every ADVERT carries a direct phase number");
  advert_queue_.push_back(advert);
  ctx_.metrics->adverts_received.Increment();
  Trace(TraceEventType::kAdvertReceived, advert.len, advert.seq,
        advert.phase);
  Pump();
}

void StreamTx::OnAck(std::uint64_t freed, std::uint64_t delivered) {
  NoteDelivered(delivered);
  remote_ring_.ReleaseFree(freed);
  Trace(TraceEventType::kAckReceived, freed);
  Pump();
}

void StreamTx::RequestShutdown() {
  shutdown_requested_ = true;
  if (!staged_.empty()) {
    // The SHUTDOWN must trail every staged byte on the wire.
    FlushCoalesced(CoalesceFlushReason::kClose);
  }
  Pump();
}

void StreamTx::AdvancePhaseTo(std::uint64_t phase) {
  if (!staged_.empty()) {
    // A phase switch with bytes still staged: flush so the merged WWI
    // joins this burst rather than waiting out the delay budget.  The
    // flush only appends behind the queued send driving the switch, so
    // byte order is preserved.
    FlushCoalesced(CoalesceFlushReason::kPhaseChange);
  }
  const SimTime now = ctx_.scheduler->Now();
  const SimDuration dwell = now - phase_start_;
  if (PhaseIsDirect(phase_)) {
    ctx_.metrics->tx_phase_dwell_direct.Record(
        static_cast<std::uint64_t>(dwell));
  } else {
    ctx_.metrics->tx_phase_dwell_indirect.Record(
        static_cast<std::uint64_t>(dwell));
  }
  phase_ = phase;
  phase_start_ = now;
  ctx_.metrics->tx_phase.Set(static_cast<double>(phase_));
  Trace(TraceEventType::kSenderPhaseChanged);
}

void StreamTx::NoteWwisInFlight(std::int64_t delta) {
  wwis_in_flight_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(wwis_in_flight_) + delta);
  ctx_.metrics->tx_inflight_wwis.Record(
      ctx_.scheduler->Now(), static_cast<double>(wwis_in_flight_));
}

void StreamTx::Pump() {
  PumpChunks();
  if (!ctx_.options.batching.doorbell) return;
  // Hold the doorbell across every pump pass of this simulated instant: a
  // burst of Submits (or a window refill) lands as several pump passes at
  // one timestamp, and flushing per pass would ring a doorbell per chunk.
  // Instead a zero-delay flush event — FIFO-ordered after everything else
  // queued at this instant — rings one doorbell per rail for the lot.  A
  // batch that reaches max_wrs still posts inline (EnqueueOrPost), so the
  // deferred ring only ever covers the partial tail.  No simulated time
  // passes with the doorbell held, so the posts carry the same timestamp
  // eager flushing would give them.
  if (doorbell_flush_.Pending()) return;
  bool pending = false;
  for (std::size_t rail = 0; rail < RailCount() && !pending; ++rail) {
    pending = Rail(rail)->HasPendingPostedWrs();
  }
  if (!pending) return;
  doorbell_flush_ = ctx_.scheduler->ScheduleAfter(0, [this] {
    for (std::size_t rail = 0; rail < RailCount(); ++rail) {
      Rail(rail)->FlushPostedWrs();
    }
  });
}

void StreamTx::PumpChunks() {
  while (!chunk_queue_.empty()) {
    const std::shared_ptr<PendingSend>& front = chunk_queue_.front();
    PendingSend& s = *front;
    EXS_CHECK(s.sent < s.len);

    if (!advert_queue_.empty()) {
      Advert& advert = advert_queue_.front();
      if (PhaseIsIndirect(phase_) &&
          !ctx_.options.sabotage.accept_stale_adverts &&
          (advert.phase < phase_ || advert.seq < seq_)) {
        // Stale ADVERT (Fig. 2 lines 3-7).  If it carries a *higher* phase
        // its whole sequence is based on estimates we have outrun; jump our
        // phase past it so the rest of that burst is discarded too (the
        // Fig. 8 rule).
        Trace(TraceEventType::kAdvertDiscarded, advert.len, advert.seq,
              advert.phase);
        if (phase_ < advert.phase) {
          AdvancePhaseTo(NextPhase(advert.phase));
        }
        advert_queue_.pop_front();
        ctx_.metrics->adverts_discarded.Increment();
        continue;
      }
      std::size_t rail = PickRail();
      if (rail == kNoRail) return;  // resumed by credit return on any rail
      if (advert.filled == 0) {
        // First chunk into this ADVERT: record the match with the sender
        // state *before* any phase advance (the validators rely on it).
        Trace(TraceEventType::kAdvertAccepted, advert.len, advert.seq,
              advert.phase);
      }
      if (PhaseIsIndirect(phase_)) {
        // Accepting an ADVERT ends the indirect phase (Fig. 2 lines 9-11).
        // The receiver resynchronised before sending it, so its sequence
        // number is exact (Theorem 1).  The sabotage hook disables the
        // check so the trace records the stale acceptance for the
        // invariant checker to catch.
        if (!ctx_.options.sabotage.accept_stale_adverts) {
          EXS_CHECK_MSG(advert.seq == seq_,
                        "accepted ADVERT must carry the exact next sequence ("
                            << advert.seq << " vs " << seq_ << ")");
        }
        AdvancePhaseTo(advert.phase);
      }
      std::uint64_t len =
          NextChunkLen(s.len - s.sent, advert.len - advert.filled, MaxChunk());
      PostDirect(front, advert, len, rail);
      seq_ += len;
      s.sent += len;
      advert.filled += len;
      // A non-WAITALL receive completes on its first chunk, so its ADVERT
      // is consumed even when partially filled; a WAITALL ADVERT stays at
      // the head until all of it has been transferred (§II-C).
      if (!advert.waitall || advert.filled == advert.len) {
        advert_queue_.pop_front();
      }
    } else if (ctx_.options.mode != ProtocolMode::kDirectOnly &&
               remote_ring_.free() > 0) {
      std::size_t rail = PickRail();
      if (rail == kNoRail) return;
      std::uint64_t len = NextChunkLen(
          s.len - s.sent, remote_ring_.ContiguousWritable(), MaxChunk());
      if (PhaseIsDirect(phase_)) {
        // First indirect transfer of a burst (Fig. 2 lines 18-20).
        AdvancePhaseTo(NextPhase(phase_));
      }
      PostIndirect(front, len, rail);
      seq_ += len;
      s.sent += len;
    } else {
      return;  // wait for an ADVERT or an ACK freeing buffer space
    }

    if (s.sent == s.len) {
      s.fully_chunked = true;
      auto rec = chunk_queue_.front();
      chunk_queue_.pop_front();
      if (rec->wwis_outstanding == 0) {
        // All chunks already completed locally (possible with inline-fast
        // paths); report completion now.
        CompleteSend(*rec);
      }
    }
  }

  // Orderly close: the SHUTDOWN goes out only once every queued send has
  // been fully chunked (staged bytes flush in RequestShutdown), so it
  // trails all stream data on the wire.  Under striping the wire-order
  // argument breaks down — the SHUTDOWN rides rail 0 and could overtake
  // data still flying on other rails — so it additionally waits for every
  // data WWI to complete locally (a local completion proves delivery, and
  // a SHUTDOWN sent afterwards cannot arrive before a chunk already
  // delivered).
  if (shutdown_requested_ && !shutdown_sent_ && staged_.empty() &&
      (!Striping() || wwis_in_flight_ == 0) && ctx_.channel->CanSend()) {
    wire::ControlMessage msg;
    msg.type = static_cast<std::uint8_t>(wire::ControlType::kShutdown);
    ctx_.channel->SendControl(msg);
    shutdown_sent_ = true;
  }
}

void StreamTx::PostDirect(const std::shared_ptr<PendingSend>& rec,
                          Advert& advert, std::uint64_t len, std::size_t rail) {
  // Striped posts log (stripe_seq, rail) in the trace's spare fields so
  // the invariant checker can audit reassembly; single-rail posts keep the
  // classic zeros and an unchanged golden fingerprint.
  Trace(TraceEventType::kDirectPosted, len, Striping() ? stripe_seq_ : 0,
        Striping() ? rail : 0);
  NoteTransfer(/*indirect=*/false);
  ctx_.metrics->direct_transfers.Increment();
  ctx_.metrics->direct_bytes.Add(len);
  PostWwiChunk(rec, len, advert.addr + advert.filled, advert.rkey,
               /*indirect=*/false, rail);
}

void StreamTx::PostIndirect(const std::shared_ptr<PendingSend>& rec,
                            std::uint64_t len, std::size_t rail) {
  Trace(TraceEventType::kIndirectPosted, len, Striping() ? stripe_seq_ : 0,
        Striping() ? rail : 0);
  NoteTransfer(/*indirect=*/true);
  ctx_.metrics->indirect_transfers.Increment();
  ctx_.metrics->indirect_bytes.Add(len);
  std::uint64_t offset = remote_ring_.write_offset();
  remote_ring_.CommitWrite(len);
  PostWwiChunk(rec, len, remote_ring_addr_ + offset, remote_ring_rkey_,
               /*indirect=*/true, rail);
}

void StreamTx::PostWwiChunk(const std::shared_ptr<PendingSend>& rec,
                            std::uint64_t len, std::uint64_t remote_addr,
                            std::uint32_t rkey, bool indirect,
                            std::size_t rail) {
  PendingSend& s = *rec;
  ++s.wwis_outstanding;
  NoteWwisInFlight(+1);
  verbs::ExtHeader ext;
  ext.has_stripe_seq = Striping();
  ext.stripe_seq = stripe_seq_;
  if (spans_ != nullptr) {
    ext.trace_ctx = spans_->BeginChunk(
        span_endpoint_, s.submit_time, s.flush_time, ctx_.scheduler->Now(),
        len, indirect, s.coalesced, static_cast<std::uint32_t>(rail));
  }
  // Gather [s.sent, s.sent + len) from the record's elements: skip those
  // that end before the chunk (zero-length ones always do) and trim the
  // first and last.  A record holds at most kMaxSge elements, so the
  // chunk always fits one work request.
  verbs::Sge chunk[verbs::kMaxSge];
  std::uint32_t n = 0;
  std::uint64_t pos = 0;
  std::uint64_t off = s.sent;
  std::uint64_t left = len;
  for (std::uint32_t i = 0; i < s.num_sges && left > 0; ++i) {
    const verbs::Sge& sge = s.sges[i];
    const std::uint64_t end = pos + sge.length;
    if (end > off) {
      const std::uint64_t skip = off - pos;
      const std::uint64_t take = std::min(sge.length - skip, left);
      chunk[n++] = verbs::Sge{sge.addr + skip,
                              static_cast<std::uint32_t>(take), sge.lkey};
      off += take;
      left -= take;
    }
    pos = end;
  }
  EXS_CHECK_MSG(left == 0, "chunk runs past the record's payload");
  if (posted_.size() <= rail) posted_.resize(rail + 1);
  posted_[rail].chunks.push_back({rec, len, ext.trace_ctx});
  if (Striping()) {
    ++stripe_seq_;
    rail_outstanding_[rail] += len;
  }
  Rail(rail)->PostDataWwi(s.id, {chunk, n}, remote_addr, rkey, indirect, ext);
}

void StreamTx::NoteTransfer(bool indirect) {
  if (indirect != last_transfer_indirect_) {
    ctx_.metrics->mode_switches.Increment();
    last_transfer_indirect_ = indirect;
  }
}

void StreamTx::OnWwiComplete(std::uint64_t wr_id, std::size_t rail) {
  // Per-QP completions return in post order, so the head of the rail's
  // FIFO is exactly the chunk that completed.
  RailChunks* fifo = rail < posted_.size() ? &posted_[rail] : nullptr;
  EXS_CHECK_MSG(fifo != nullptr && fifo->head < fifo->chunks.size() &&
                    fifo->chunks[fifo->head].send->id == wr_id,
                "completion for unknown send");
  const PostedChunk chunk = std::move(fifo->chunks[fifo->head++]);
  if (fifo->head == fifo->chunks.size()) {
    fifo->chunks = std::vector<PostedChunk>();  // an idle rail holds none
    fifo->head = 0;
  } else if (2 * fifo->head >= fifo->chunks.size()) {
    // Drop the completed prefix once it is half the vector: O(1) per
    // chunk amortised, and storage stays within twice the chunks in
    // flight.
    fifo->chunks.erase(fifo->chunks.begin(),
                       fifo->chunks.begin() + fifo->head);
    fifo->head = 0;
  }
  PendingSend& s = *chunk.send;
  EXS_CHECK(s.wwis_outstanding > 0);
  --s.wwis_outstanding;
  NoteWwisInFlight(-1);
  if (spans_ != nullptr) {
    spans_->NoteTxComplete(chunk.trace_ctx, ctx_.scheduler->Now());
  }
  if (Striping()) {
    EXS_CHECK(rail_outstanding_[rail] >= chunk.len);
    rail_outstanding_[rail] -= chunk.len;
  }
  if (s.fully_chunked && s.wwis_outstanding == 0) {
    CompleteSend(s);
  }
  if (Striping() && shutdown_requested_ && !shutdown_sent_ &&
      wwis_in_flight_ == 0) {
    Pump();  // the striped SHUTDOWN waits for the last local completion
  }
}

void StreamTx::CompleteSend(PendingSend& rec) {
  // A record can reach here twice under recovery: once normally, and once
  // when a resume finds it fully delivered (its flushed WR completions can
  // never arrive).  The application sees exactly one event either way.
  if (rec.completion_reported) return;
  rec.completion_reported = true;
  if (rec.members.empty()) {
    ctx_.metrics->sends_completed.Increment();
    ctx_.metrics->bytes_sent.Add(rec.len);
    ctx_.events->Push(Event{EventType::kSendComplete, rec.id, rec.len, false});
    return;
  }
  // Coalesced aggregate: fan completion out to every member, in the order
  // the application submitted them — callers cannot tell their sends were
  // merged on the wire.
  for (const StagedSend& m : rec.members) {
    ctx_.metrics->sends_completed.Increment();
    ctx_.metrics->bytes_sent.Add(m.len);
    ctx_.events->Push(Event{EventType::kSendComplete, m.id, m.len, false});
  }
}

void StreamTx::ResumeTx(const ResumeInfo& info) {
  EXS_CHECK_MSG(RecoveryOn(), "resume on a socket without recovery enabled");
  EXS_CHECK_MSG(PhaseIsIndirect(info.resume_phase),
                "resume re-enters the protocol in an indirect phase");
  // The marker leads: it records the frontier we rewind to and resets the
  // validators' sequence baseline, so everything after it is checked
  // against the resumed state.
  seq_ = info.delivered;
  if (peer_delivered_ < info.delivered) peer_delivered_ = info.delivered;
  Trace(TraceEventType::kResumeTx, info.delivered, 0, info.resume_phase);

  // The receiver's cursors are authoritative: writes we posted past its
  // commit point were never taken into custody and will be re-posted.
  remote_ring_.Restore(info.ring_write, info.ring_read, info.ring_used);

  // ADVERTs from before the kill name a handshake that no longer exists;
  // the receiver re-advertises everything outstanding.
  advert_queue_.clear();

  // Local WR completions for in-flight WWIs were flushed with error status
  // and consumed by the dead channel; none will ever be dispatched here.
  if (wwis_in_flight_ != 0) {
    NoteWwisInFlight(-static_cast<std::int64_t>(wwis_in_flight_));
  }
  posted_.clear();

  // Rail failover: adopt the surviving rail set and restart the stripe
  // sequence space (the receiver restarts its reorder expectation too).
  rail_count_ = info.rails;
  stripe_seq_ = 0;
  rail_outstanding_.assign(rail_count_, 0);

  // Rebuild the chunk queue from the retransmission log.  Records wholly
  // below the frontier are done — but the kill may have flushed the WR
  // completion that would have raised their event, so raise it now
  // (CompleteSend dedups).  Records straddling or beyond the frontier are
  // re-queued to retransmit their unacknowledged suffix.
  chunk_queue_.clear();
  std::uint64_t retransmit = 0;
  std::deque<std::shared_ptr<PendingSend>> survivors;
  for (auto& rec : sent_log_) {
    if (rec->stream_off + rec->len <= info.delivered) {
      rec->sent = rec->len;
      rec->fully_chunked = true;
      rec->wwis_outstanding = 0;
      CompleteSend(*rec);
      continue;
    }
    std::uint64_t new_sent =
        info.delivered > rec->stream_off ? info.delivered - rec->stream_off
                                         : 0;
    if (rec->sent > new_sent) retransmit += rec->sent - new_sent;
    rec->sent = new_sent;
    rec->fully_chunked = false;
    rec->wwis_outstanding = 0;
    chunk_queue_.push_back(rec);
    survivors.push_back(rec);
  }
  sent_log_ = std::move(survivors);
  ctx_.metrics->retransmitted_bytes.Add(retransmit);

  // A SHUTDOWN the receiver never consumed died with the transport; Pump
  // re-sends it behind the retransmitted data.
  if (!info.peer_closed) shutdown_sent_ = false;

  if (phase_ < info.resume_phase) AdvancePhaseTo(info.resume_phase);
  // The socket kicks Pump() once both directions have resumed.
}

}  // namespace exs
