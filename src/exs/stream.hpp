// The dynamic stream protocol (the paper's core contribution).
//
// A full-duplex stream socket instantiates one StreamTx (the paper's
// "sender": Fig. 2) for its outgoing byte stream and one StreamRx (the
// paper's "receiver": Figs. 3–5) for its incoming stream.  Both keep the
// phase/sequence machinery that lets the connection switch between
//
//   direct transfers   — WWI straight into user memory named by an ADVERT,
//   indirect transfers — WWI into the hidden circular intermediate buffer,
//
// without ever matching a direct transfer to the wrong memory (Theorem 1).
// Phase numbers are even in direct phases and odd in indirect phases and
// only ever advance; ADVERT sequence numbers are estimates except for the
// first ADVERT of a new direct phase, which is exact because the receiver
// holds ADVERTs back until its buffer is empty and every receive from the
// previous phase has been satisfied (the Fig. 7 rule).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/spans.hpp"
#include "common/units.hpp"
#include "simnet/event_scheduler.hpp"
#include "exs/channel.hpp"
#include "exs/event_queue.hpp"
#include "exs/instruments.hpp"
#include "exs/trace.hpp"
#include "exs/types.hpp"
#include "exs/wire.hpp"

namespace exs {

/// Externally provided backing for the receiver's hidden circular buffer.
/// Engine-managed sockets draw their ring from a shared BufferPool slab
/// (one registration covers the whole pool) instead of allocating
/// per-stream memory; Release() hands the carve back to the pool.  A
/// default-constructed lease means "allocate privately" — the classic
/// path, byte-for-byte unchanged.
///
/// Move-only RAII: the destructor releases an unreleased lease, so a
/// socket torn down before EOF+drain (aborted connection, server churn)
/// can never strand its carve and shrink the pool.  The release closure
/// carries the pool's liveness guard, making Release() a no-op once the
/// pool itself is gone (accepted sockets routinely outlive the acceptor).
class RingLease {
 public:
  RingLease() = default;
  RingLease(std::uint8_t* mem, std::uint64_t bytes, verbs::MemoryRegionPtr mr,
            std::function<void()> release)
      : mem_(mem), bytes_(bytes), mr_(std::move(mr)),
        release_(std::move(release)) {}
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;
  RingLease(RingLease&& other) noexcept { *this = std::move(other); }
  RingLease& operator=(RingLease&& other) noexcept {
    if (this != &other) {
      Release();
      mem_ = other.mem_;
      bytes_ = other.bytes_;
      mr_ = std::move(other.mr_);
      release_ = std::move(other.release_);
      other.mem_ = nullptr;
      other.bytes_ = 0;
      other.mr_ = nullptr;
      other.release_ = nullptr;
    }
    return *this;
  }
  ~RingLease() { Release(); }

  /// Hand the carve back to the pool.  Idempotent, and a guarded no-op
  /// when there is no lease or the pool has already been destroyed.
  void Release() {
    if (!release_) return;
    auto release = std::move(release_);
    release_ = nullptr;
    release();
  }

  bool valid() const { return mem_ != nullptr && bytes_ > 0; }
  /// True while the carve is still owed to a pool (false for a private
  /// ring and after Release()).
  bool HasRelease() const { return static_cast<bool>(release_); }
  std::uint8_t* mem() const { return mem_; }
  std::uint64_t bytes() const { return bytes_; }
  const verbs::MemoryRegionPtr& mr() const { return mr_; }

 private:
  std::uint8_t* mem_ = nullptr;
  std::uint64_t bytes_ = 0;
  verbs::MemoryRegionPtr mr_;  ///< pool-wide registration covering `mem_`
  std::function<void()> release_;
};

/// Shared wiring handed to both halves by the socket.
struct StreamContext {
  ChannelEndpoint* channel = nullptr;  ///< the socket's rail 0
  simnet::EventScheduler* scheduler = nullptr;
  simnet::Cpu* cpu = nullptr;
  EventQueue* events = nullptr;
  SocketInstruments* metrics = nullptr;
  TraceLog* trace = nullptr;
  StreamOptions options;
  Bandwidth memcpy_bandwidth;
  bool carry_payload = true;
  std::string debug_name;
  /// When valid, the receiver ring lives here instead of a private
  /// allocation (its size overrides options.intermediate_buffer_bytes).
  RingLease ring_lease;
};

// ---------------------------------------------------------------------------
// Sender half (Fig. 2)
// ---------------------------------------------------------------------------

class StreamTx {
 public:
  /// `rails` is the socket's rail list; rail 0 is `ctx.channel`, which
  /// also carries control.  Every chunk rides rail 0 until SetStriping.
  StreamTx(StreamContext ctx,
           std::span<const std::unique_ptr<ChannelEndpoint>> rails)
      : ctx_(std::move(ctx)), rails_(rails) {}
  ~StreamTx() {
    // Both timers capture `this`; a socket torn down with events still
    // queued must not leave them armed.
    flush_timer_.Cancel();
    doorbell_flush_.Cancel();
  }

  /// Learn where the peer's intermediate buffer lives (exchanged at
  /// connection establishment).
  void SetRemoteRing(std::uint64_t addr, std::uint32_t rkey,
                     std::uint64_t capacity);

  /// Stripe chunks across the first `rails` (> 1) rails of the list.
  /// Called at establishment when the negotiated rail count exceeds one; a
  /// single-rail connection never calls this.
  void SetStriping(std::size_t rails);

  /// Attach causal chunk tracing (common/spans.hpp).  Every WWI this
  /// sender posts becomes a (possibly sampled-out) chunk record stamped
  /// with its staging/queue/post times; `endpoint` identifies this half in
  /// the collector's endpoint table.  Never schedules events or charges
  /// CPU, so attaching cannot change timing.
  void SetSpanCollector(spans::SpanCollector* collector,
                        std::uint64_t endpoint) {
    spans_ = collector;
    span_endpoint_ = endpoint;
  }

  /// Queue a send request.  `lkey` names the registered region covering
  /// [buf, buf+len), which must fit one gather element (< 4 GiB).
  /// Completion is reported on the event queue once every chunk has been
  /// transferred and locally completed.  A small send may wait in the
  /// coalescing stage (StreamOptions::coalesce).
  void Submit(std::uint64_t id, const void* buf, std::uint64_t len,
              std::uint32_t lkey);

  /// Queue a vectored send: one logical send (one id, one completion)
  /// whose payload is gathered from 1..verbs::kMaxSge registered slices
  /// (zero-length ones carry nothing).  Each chunk rides the wire as one
  /// multi-SGE work request over the slices it spans — no staging copy,
  /// and a vectored send never waits in the coalescing stage.  Slice
  /// buffers must stay valid until the send completes, exactly like
  /// Submit's.  With recovery on, the slices are snapshotted into an owned
  /// contiguous log record instead (retransmission needs the bytes anyway).
  void SubmitV(std::uint64_t id, std::span<const verbs::Sge> sges);

  void OnAdvert(const wire::ControlMessage& msg);
  /// `delivered` is the receiver's delivered-byte frontier piggybacked on
  /// the ACK (always 0 when recovery is off).
  void OnAck(std::uint64_t freed, std::uint64_t delivered = 0);
  void OnCreditAvailable() { Pump(); }
  /// A data WWI completed locally on `rail` (rail 0 also carries control).
  void OnWwiComplete(std::uint64_t wr_id, std::size_t rail = 0);

  /// Orderly close of this direction: staged bytes flush, then a SHUTDOWN
  /// control message goes out after every queued send has been fully
  /// transferred; no further sends are accepted.
  void RequestShutdown();
  bool ShutdownRequested() const { return shutdown_requested_; }

  // ---- Fatal-fault recovery (StreamOptions::recovery) --------------------

  /// The transport died under this half: record the kill in the trace so
  /// the validators switch to their resume-aware rules.
  void NoteTransportKilled() { Trace(TraceEventType::kTransportKilled); }

  /// Everything the sender needs to re-synchronise at the receiver's
  /// *delivered* frontier — not its own completed-WR boundary, which
  /// Borrill's "completion fallacy" shows may lie beyond what ever arrived.
  /// Assembled by Socket::ResumePair from the peer receiver's state.
  struct ResumeInfo {
    std::uint64_t delivered = 0;   ///< receiver's delivered-byte frontier F
    std::uint64_t ring_write = 0;  ///< receiver's authoritative ring cursors
    std::uint64_t ring_read = 0;
    std::uint64_t ring_used = 0;
    std::uint64_t resume_phase = 0;  ///< common odd phase both halves adopt
    bool peer_closed = false;  ///< receiver already consumed our SHUTDOWN
    /// Rails that survive, counted from rail 0 (1 = single-rail).  Rail
    /// failover hands in fewer than before the kill.
    std::size_t rails = 1;
  };

  /// Rewind to the delivered frontier and rebuild the chunk queue from the
  /// retransmission log: records wholly below F complete (their events may
  /// never have been raised — the kill flushed the WR completions), records
  /// straddling or beyond F are re-queued for retransmission from their
  /// snapshot.  State only; the socket kicks Pump() once both directions
  /// have resumed.
  void ResumeTx(const ResumeInfo& info);

  /// Recovery introspection.
  std::size_t RetransmitLogDepth() const { return sent_log_.size(); }

  // Introspection for tests and invariant checks.
  std::uint64_t phase() const { return phase_; }
  std::uint64_t sequence() const { return seq_; }
  std::size_t PendingSends() const { return inflight_.size() + staged_.size(); }
  std::uint64_t RemoteRingFree() const { return remote_ring_.free(); }
  std::size_t StagedSends() const { return staged_.size(); }
  std::uint64_t StagedBytes() const { return staged_bytes_; }
  bool Quiescent() const { return inflight_.empty() && staged_.empty(); }
  std::size_t RailCount() const { return rail_count_; }
  std::uint64_t NextStripeSeq() const { return stripe_seq_; }

  /// One WWI's worth of a pending send: what remains of the message,
  /// clipped to the destination room (ADVERT remainder or contiguous ring
  /// space) and the negotiated chunk cap.  Shared by the direct and
  /// indirect paths so the §II-C chunking rule has exactly one home.
  static std::uint64_t NextChunkLen(std::uint64_t remaining,
                                    std::uint64_t room,
                                    std::uint64_t max_chunk) {
    std::uint64_t len = remaining;
    if (room < len) len = room;
    if (max_chunk < len) len = max_chunk;
    return len;
  }

 private:
  /// One member of a coalesced aggregate: a small send that was merged.
  struct StagedSend {
    std::uint64_t id = 0;
    std::uint64_t len = 0;
  };

  struct PendingSend {
    std::uint64_t id = 0;
    /// The record's payload, in stream order: one element for a Send, a
    /// coalesced aggregate or a recovery snapshot; a Sendv's own slices.
    std::array<verbs::Sge, verbs::kMaxSge> sges{};
    std::uint32_t num_sges = 0;
    std::uint64_t len = 0;
    std::uint64_t sent = 0;
    std::uint32_t wwis_outstanding = 0;
    bool fully_chunked = false;
    /// Recovery bookkeeping: offset of this record's first byte in the
    /// outgoing stream (assigned when it joins the chunk queue), and
    /// whether its application event already went out — a record can be
    /// retransmitted after a kill without re-raising its completion.
    std::uint64_t stream_off = 0;
    bool completion_reported = false;
    /// Span provenance: when the application submitted the bytes and when
    /// they left the coalescing stage (== submit_time unless staged).
    SimTime submit_time = 0;
    SimTime flush_time = 0;
    bool coalesced = false;
    /// A coalesced aggregate's merged payload or a recovery snapshot (the
    /// record's one element then points into it), deregistered when the
    /// record dies.
    verbs::RegisteredBuffer owned;
    /// Coalesced aggregate only: the member sends, completed individually
    /// in submission order once every chunk of the aggregate has
    /// transferred.
    std::vector<StagedSend> members;

    /// Describe the payload as `owned`.
    void UseOwned() {
      sges[0] = verbs::Sge{reinterpret_cast<std::uint64_t>(owned.data()),
                           static_cast<std::uint32_t>(len), owned.lkey()};
      num_sges = 1;
    }
  };

  /// A received ADVERT queued at the sender (the paper's q_A).
  struct Advert {
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::uint64_t len = 0;
    std::uint64_t filled = 0;
    std::uint64_t seq = 0;
    std::uint64_t phase = 0;
    bool waitall = false;
  };

  /// The matching loop of Fig. 2: emit chunks while an ADVERT or buffer
  /// space and a credit are available; otherwise wait for the event that
  /// unblocks us (ADVERT, ACK, or credit return).  Pump wraps the loop so
  /// every exit path rings pending doorbells (Batching::doorbell defers
  /// posts until here); the loop body itself lives in PumpChunks.
  void Pump();
  void PumpChunks();
  void PostDirect(PendingSend& s, Advert& advert, std::uint64_t len,
                  std::size_t rail);
  void PostIndirect(PendingSend& s, std::uint64_t len, std::size_t rail);
  /// Post one chunk of `s` — [s.sent, s.sent+len) — as a WWI on `rail`,
  /// gathered from the record's elements.
  void PostWwiChunk(PendingSend& s, std::uint64_t len,
                    std::uint64_t remote_addr, std::uint32_t rkey,
                    bool indirect, std::size_t rail, std::uint64_t trace_ctx);
  void NoteTransfer(bool indirect);
  bool Striping() const { return rail_count_ > 1; }
  ChannelEndpoint* Rail(std::size_t rail) const { return rails_[rail].get(); }
  /// Rail the next chunk rides: of the rails with a send credit, the one
  /// with the fewest outstanding bytes, ties to the lowest index; kNoRail
  /// when every rail is blocked (the post is retried from
  /// on_credit_available).  With one rail this degenerates to the classic
  /// CanSend() gate.
  static constexpr std::size_t kNoRail = ~std::size_t{0};
  std::size_t PickRail() const;
  /// Per-rail outstanding-byte accounting at post time; also advances the
  /// stripe sequence.
  void NoteStripePosted(std::size_t rail, std::uint64_t len);
  /// The one send-record builder behind Submit and SubmitV: completes a
  /// zero-length send at once, stages a small one when `may_stage` (Submit
  /// only), and otherwise flushes staged bytes ahead of it, snapshots the
  /// payload under recovery, and queues the record.
  void Enqueue(std::uint64_t id, std::span<const verbs::Sge> sges,
               bool may_stage);
  /// Coalescing: is this send small enough — and the connection in a state
  /// where holding it back cannot delay a direct transfer?
  bool ShouldStage(std::uint64_t len) const;
  /// Copy a small send into the staging buffer (flushing first if it would
  /// not fit), arming the max_delay timer on the first staged byte.
  void StageCoalesced(std::uint64_t id, const void* buf, std::uint64_t len);
  /// Merge every staged send into one aggregate PendingSend at the back of
  /// the chunk queue.  Only appends — safe to call from inside Pump; all
  /// other callers run Pump() afterwards.
  void FlushCoalesced(CoalesceFlushReason reason);
  /// Report completion: one event per member for a coalesced aggregate (in
  /// submission order), else a single event.  Takes the record by value —
  /// it erases the inflight_ entry that may be the last other owner.
  void CompleteSend(std::shared_ptr<PendingSend> rec);
  /// Advance P_s, recording how long we dwelt in the phase being left and
  /// tracing the change (phase dwell histograms are keyed by the *old*
  /// phase's parity).
  void AdvancePhaseTo(std::uint64_t phase);
  void NoteWwisInFlight(std::int64_t delta);
  void Trace(TraceEventType type, std::uint64_t len = 0,
             std::uint64_t msg_seq = 0, std::uint64_t msg_phase = 0) {
    if (ctx_.trace != nullptr && ctx_.trace->enabled()) {
      ctx_.trace->Record(TraceEvent{ctx_.scheduler->Now(), type, seq_,
                                    phase_, len, msg_seq, msg_phase});
    }
  }
  std::uint64_t MaxChunk() const {
    std::uint64_t cap = ctx_.options.max_wwi_chunk;
    return cap == 0 ? wire::kMaxWwiChunk
                    : (cap < wire::kMaxWwiChunk ? cap : wire::kMaxWwiChunk);
  }
  bool RecoveryOn() const { return ctx_.options.recovery.enabled; }
  /// Recovery: a record is joining the chunk queue — stamp its stream
  /// offset and append it to the retransmission log.
  void NoteQueued(const std::shared_ptr<PendingSend>& rec);
  /// Recovery: the peer reported its delivered frontier; prune the log.
  void NoteDelivered(std::uint64_t delivered);
  StreamContext ctx_;
  std::uint64_t phase_ = 0;  ///< P_s
  std::uint64_t seq_ = 0;    ///< S_s
  SimTime phase_start_ = 0;  ///< when P_s last changed (dwell accounting)
  std::uint64_t wwis_in_flight_ = 0;  ///< posted, not yet locally complete
  RingCursor remote_ring_;   ///< sender's view of the remote buffer (b_s)
  std::uint64_t remote_ring_addr_ = 0;
  std::uint32_t remote_ring_rkey_ = 0;
  std::deque<Advert> advert_queue_;                        ///< q_A
  std::deque<std::shared_ptr<PendingSend>> chunk_queue_;   ///< not fully sent
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingSend>> inflight_;
  // Recovery (all dormant while !RecoveryOn()).  The retransmission log
  // holds every queued record, payload snapshotted at Submit, until the
  // receiver's delivered frontier passes it *and* its completion event has
  // been raised (a delivered record's local WR completion can still be in
  // flight — or flushed by a kill — when the frontier report arrives).
  std::uint64_t next_stream_off_ = 0;   ///< stream offset of the next queue
  std::uint64_t peer_delivered_ = 0;    ///< frontier last reported by peer
  std::deque<std::shared_ptr<PendingSend>> sent_log_;
  bool last_transfer_indirect_ = false;  ///< connections begin direct
  bool shutdown_requested_ = false;
  bool shutdown_sent_ = false;
  // Multi-rail striping state: chunks ride the first rail_count_ rails
  // (1 = classic single-rail mode, which reads no per-rail accounting).
  // Completions on one rail return in post order (RC FIFO per QP), so a
  // per-rail deque of posted chunk lengths is enough to account
  // outstanding bytes for PickRail.
  std::span<const std::unique_ptr<ChannelEndpoint>> rails_;
  std::size_t rail_count_ = 1;
  std::uint64_t stripe_seq_ = 0;        ///< next delivery sequence number
  std::vector<std::uint64_t> rail_outstanding_;       ///< bytes in flight
  std::vector<std::deque<std::uint64_t>> rail_fifo_;  ///< chunk lens, FIFO
  // Causal chunk tracing (null = off).  Completions on one rail return in
  // post order, so a per-rail FIFO of chunk trace ids (0 = unsampled)
  // pairs each WR completion with its record.
  spans::SpanCollector* spans_ = nullptr;
  std::uint64_t span_endpoint_ = 0;
  std::vector<std::deque<std::uint64_t>> span_tx_fifo_;
  /// Submit time of the oldest send in the staging buffer (aggregate
  /// provenance: a coalesced chunk's staging span starts here).
  SimTime staged_first_time_ = 0;
  // Coalescing staging buffer.  Logically ordered *after* chunk_queue_:
  // a flush appends the merged aggregate at the queue's back, so byte
  // continuity is preserved by construction.
  verbs::RegisteredBuffer staging_;
  std::vector<StagedSend> staged_;
  std::uint64_t staged_bytes_ = 0;
  simnet::EventHandle flush_timer_;
  /// Deferred doorbell ring (Batching::doorbell): a zero-delay event that
  /// flushes every rail's pending batch after all pump passes of the
  /// current simulated instant have appended their chunks.
  simnet::EventHandle doorbell_flush_;
};

// ---------------------------------------------------------------------------
// Receiver half (Figs. 3, 4, 5)
// ---------------------------------------------------------------------------

class StreamRx {
 public:
  explicit StreamRx(StreamContext ctx);

  std::uint64_t ring_addr() const;
  std::uint32_t ring_rkey() const { return ring_mr_->rkey(); }
  std::uint64_t ring_capacity() const { return ring_.capacity(); }

  /// Queue a receive request for user memory [buf, buf+len) registered
  /// under `rkey`/`base` (the ADVERT must name remotely writable memory).
  void Submit(std::uint64_t id, void* buf, std::uint64_t len,
              std::uint32_t rkey, bool waitall);

  /// Striping was negotiated: expect every arrival to carry a stripe
  /// sequence number and reassemble in that order.  Called once at
  /// establishment, before any data moves.
  void SetStriping(std::uint32_t rails);

  /// A data WWI arrived (dispatched from the rail it rode; `rail` is only
  /// descriptive — payload placement happened at the verbs layer).  On a
  /// striped connection the chunk joins the reorder buffer and chunks are
  /// processed strictly in stripe-sequence order.
  void OnData(bool indirect, std::uint64_t len, bool has_stripe_seq = false,
              std::uint64_t stripe_seq = 0, std::size_t rail = 0,
              std::uint64_t trace_ctx = 0);
  void OnCreditAvailable();

  /// Attach causal chunk tracing; see StreamTx::SetSpanCollector.  The
  /// receiver closes each sampled chunk's reorder/ring/copy/delivery
  /// stages as the bytes move toward the application.
  void SetSpanCollector(spans::SpanCollector* collector,
                        std::uint64_t endpoint) {
    spans_ = collector;
    span_endpoint_ = endpoint;
  }

  /// Attach the per-rail instruments, index = rail.  Their hol_wait
  /// histograms (`rail<i>.hol_wait` in the socket registry) record the
  /// time each arriving chunk spent parked in the stripe reorder buffer
  /// behind an earlier-sequence chunk, against the rail it arrived on.
  /// The span may be shorter than the rail count (empty when muxed).
  void SetRailInstruments(std::span<RailInstruments> rails) {
    rail_inst_ = rails;
  }

  /// The peer closed its sending direction.  In-order delivery puts the
  /// SHUTDOWN behind all of the stream's data; once the intermediate
  /// buffer drains, outstanding receives complete with what they hold and
  /// a kPeerClosed event is raised.  Receives submitted afterwards
  /// complete immediately with zero bytes.
  void OnShutdown();
  bool PeerClosed() const { return peer_closed_; }

  /// Hand a leased ring back to its pool once it can never be written
  /// again: EOF delivered and every buffered byte copied out.  Called
  /// automatically at EOF; the engine may also call it when reaping.
  /// Returns true when the lease was released (now or earlier); false
  /// while the ring is still live or when there is no lease.
  bool TryReleaseRing();

  // ---- Fatal-fault recovery (StreamOptions::recovery) --------------------

  /// See StreamTx::NoteTransportKilled.
  void NoteTransportKilled() { Trace(TraceEventType::kTransportKilled); }

  /// The contiguous stream prefix this receiver has taken into custody:
  /// bytes placed for the application plus bytes buffered in order in the
  /// ring (ring contents are receiver memory and survive a transport
  /// kill).  This — not the sender's completed-WR count — is where the
  /// resume handshake re-synchronises.
  std::uint64_t DeliveredFrontier() const { return seq_ + ring_.used(); }
  std::uint64_t RingWriteOffset() const { return ring_.write_offset(); }
  std::uint64_t RingReadOffset() const { return ring_.read_offset(); }

  /// Adopt the resume phase and forget everything the kill invalidated:
  /// parked striped chunks (dropped, the sender retransmits them), ADVERTs
  /// the peer never honoured (every pending receive reverts to
  /// un-advertised), un-flushed ACK counts (the sender adopts our cursors
  /// directly).  Re-advertises and resumes the ring drain, which restarts
  /// the stream from the delivered frontier.
  void ResumeRx(std::uint64_t resume_phase, std::uint32_t rails);

  // Introspection for tests and invariant checks.
  std::uint64_t phase() const { return phase_; }
  std::uint64_t sequence() const { return seq_; }          ///< S_r
  std::uint64_t sequence_estimate() const { return seq_est_; }  ///< S'_r
  std::uint64_t RingBytes() const { return ring_.used(); }
  std::size_t PendingRecvs() const { return pending_.size(); }
  bool Quiescent() const {
    return pending_.empty() && ring_.Empty() && stripe_reorder_.empty();
  }
  std::size_t StripeReorderDepth() const { return stripe_reorder_.size(); }
  std::uint64_t NextStripeSeq() const { return next_stripe_seq_; }

 private:
  struct PendingRecv {
    std::uint64_t id = 0;
    std::uint8_t* base = nullptr;
    std::uint64_t len = 0;
    std::uint64_t filled = 0;
    std::uint32_t rkey = 0;
    bool waitall = false;
    bool adverted = false;
    std::uint64_t advert_phase = 0;
    SimTime advert_time = 0;   ///< when this receive's ADVERT went out
    bool rtt_pending = false;  ///< awaiting the first direct byte back
  };

  /// A chunk notification parked until its stripe predecessors arrive.
  /// The payload already sits in its final location (rail choice never
  /// moves a byte); only the protocol bookkeeping waits.
  struct StripedChunk {
    bool indirect = false;
    std::uint64_t len = 0;
    std::size_t rail = 0;
    SimTime arrive_time = 0;      ///< for the HoL-blocking wait
    std::uint64_t trace_ctx = 0;  ///< span correlation id (0 = untraced)
  };

  /// The classic arrival handling of Fig. 4, factored out of OnData so
  /// striped chunks can be run through it in stripe-sequence order.
  void ProcessData(bool indirect, std::uint64_t len, bool striped,
                   std::uint64_t stripe_seq, std::size_t rail,
                   std::uint64_t trace_ctx);
  /// Fig. 3: advertise pending receives in order, gated on an empty
  /// intermediate buffer and no outstanding receives from a prior phase.
  void TryAdvertise();
  /// Fig. 5: copy buffered bytes into pending receives FIFO, charging the
  /// node CPU at memcpy bandwidth.
  void DrainRing();
  /// Coalescing also folds pending ACK free-counts into outgoing ADVERTs.
  bool PiggybackAcks() const { return ctx_.options.coalesce.enabled; }
  bool RecoveryOn() const { return ctx_.options.recovery.enabled; }
  void MaybeSendAck();
  void CompleteFront();
  /// After the peer's SHUTDOWN, once every buffered byte has been copied
  /// out: complete the remaining receives and raise kPeerClosed.
  void MaybeFinishEof();
  /// Advance P_r, recording the dwell time of the phase being left (see
  /// StreamTx::AdvancePhaseTo).
  void AdvancePhaseTo(std::uint64_t phase);
  void Trace(TraceEventType type, std::uint64_t len = 0,
             std::uint64_t msg_seq = 0, std::uint64_t msg_phase = 0) {
    if (ctx_.trace != nullptr && ctx_.trace->enabled()) {
      ctx_.trace->Record(TraceEvent{ctx_.scheduler->Now(), type, seq_,
                                    phase_, len, msg_seq, msg_phase});
    }
  }

  StreamContext ctx_;
  std::uint64_t phase_ = 0;    ///< P_r
  std::uint64_t seq_ = 0;      ///< S_r
  std::uint64_t seq_est_ = 0;  ///< S'_r (next-expected used in ADVERTs)
  SimTime phase_start_ = 0;    ///< when P_r last changed (dwell accounting)
  std::vector<std::uint8_t> ring_mem_;  ///< empty when leased from a pool
  std::uint8_t* ring_base_ = nullptr;   ///< private or leased backing
  verbs::MemoryRegionPtr ring_mr_;
  bool ring_released_ = false;
  RingCursor ring_;            ///< b_r plus cursors
  std::deque<PendingRecv> pending_;
  std::uint64_t pending_ack_bytes_ = 0;
  bool copy_in_progress_ = false;
  bool peer_closed_ = false;
  bool eof_delivered_ = false;
  // Multi-rail reassembly (rails_ == 1 bypasses all of it).
  std::uint32_t rails_ = 1;
  std::uint64_t next_stripe_seq_ = 0;  ///< next delivery sequence expected
  std::map<std::uint64_t, StripedChunk> stripe_reorder_;

  // --- Causal chunk tracing (all dormant while spans_ is null) ----------
  /// Processing, ring copies and receive completions are each in stream
  /// order, so cumulative byte counters pair sampled chunks with the copy
  /// pass and receive completion that retire them — no per-byte state.
  void SpanNoteProcessed(std::uint64_t trace_ctx, bool indirect,
                         std::uint64_t len);
  /// A ring copy pass is starting that will consume `pass_bytes` from the
  /// front of the buffered (FIFO) ring bytes.
  void SpanNoteCopyPassStart(std::uint64_t pass_bytes);
  /// That pass finished (memcpy cost paid); `pass_bytes` left the ring.
  void SpanNoteCopyPassDone(std::uint64_t pass_bytes);
  /// A receive completion for `bytes` of stream payload was pushed.
  void SpanNoteDelivered(std::uint64_t bytes);
  void RecordHolWait(const StripedChunk& chunk);

  struct SpanDeliverWait {
    std::uint64_t id = 0;       ///< chunk trace id
    std::uint64_t end_off = 0;  ///< stream offset one past the chunk
  };
  struct SpanRingWait {
    std::uint64_t id = 0;
    std::uint64_t fill_start = 0;  ///< cumulative ring-fill offsets
    std::uint64_t fill_end = 0;
  };
  spans::SpanCollector* spans_ = nullptr;
  std::uint64_t span_endpoint_ = 0;
  std::uint64_t span_stream_off_ = 0;   ///< bytes processed in order
  std::uint64_t span_delivered_ = 0;    ///< bytes delivered to the app
  std::uint64_t span_ring_fill_ = 0;    ///< bytes ever written to the ring
  std::uint64_t span_ring_copied_ = 0;  ///< bytes ever copied out of it
  std::deque<SpanDeliverWait> span_deliver_wait_;
  std::deque<SpanRingWait> span_ring_wait_;
  std::span<RailInstruments> rail_inst_;  ///< records their hol_wait
};

}  // namespace exs
