// Shared-QP stream multiplexing: many EXS streams over a bounded QP pool.
//
// The classic library dedicates one RC queue pair (plus its pre-posted
// credit pool) to every connection, so verbs state grows linearly with
// stream count.  A MuxGroup instead owns a small fixed pool of "slot"
// ControlChannels and carries any number of MuxStreams over them: each
// stream is pinned to slot (id % width), every message it sends is stamped
// with its stream id (control messages in the header's stream_id field,
// data WWIs in the kMuxHeaderBytes extended-header extension), and the
// group demultiplexes arrivals back to the owning stream.  Because an RC
// QP delivers in FIFO order, each stream's messages form an in-order
// subsequence of its slot's traffic — no reorder buffer is needed, and the
// per-stream mux_seq carried on data WWIs lets the receive side *audit*
// that continuity (the invariant checker's per-stream rule).
//
// Flow control is layered: the slot channel keeps the §II-B credit scheme
// for the shared QP, and each stream additionally bounds its own
// outstanding data WWIs (per_stream_credits) so one bulk stream cannot
// monopolise the shared send window.  When shared credits return, the
// group runs a deficit-round-robin dispatch round over the slot's parked
// streams (the ProgressEngine's DRR idiom): each visited stream gets
// drr_quantum bytes of deficit and is woken; during the round CanSend()
// additionally requires deficit, so a woken stream posts at most
// quantum-plus-one-chunk before the next stream runs.  Outside rounds the
// deficit gate is off — a stream woken by its own completion is throttled
// only by its window — which keeps the scheme deadlock-free: any credit
// return reaches every parked stream.
//
// A round visits only parked streams, in attach order from a rotating
// cursor.  Each slot keeps its streams in an attach-order rotation and a
// bitmap of the parked ones, so a credit return costs O(parked +
// streams/64) rather than a visit to every stream on the slot.
//
// Faults: MuxStream::Kill() is a *virtual* kill — the shared QP stays
// healthy (its other streams are undisturbed) while this stream behaves
// exactly like a dead transport: on_fatal fires, CanSend() is false, and
// the peer stream discovers the death one transport ack delay later, the
// same timing a real QP kill propagates with.  In-flight messages from
// before the kill still land (the transport is alive) and are dropped by
// the reconnect-epoch gate; that is safe because RC FIFO ordering lands
// them before any post-revive retransmission, and under recovery the
// retransmitted bytes are identical anyway.  Revive() (driven by
// Socket::ResumePair) bumps the epoch and resets the per-stream counters;
// the delivered-frontier resume machinery of docs/PROTOCOL.md §12 then
// replays the unacknowledged suffix as on a dedicated transport.
//
// See docs/PROTOCOL.md §13 for the wire framing and credit layering.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "exs/channel.hpp"

namespace exs {

class MuxStream;

struct MuxOptions {
  /// Slot channels (shared queue pairs) in the pool.  Streams pin to slot
  /// (stream_id % width).
  std::uint32_t width = 1;
  /// §II-B credit pool per slot queue pair (pre-posted receives shared by
  /// every stream on the slot).
  std::uint32_t qp_credits = 256;
  /// Data WWIs one stream may have outstanding on its slot — the
  /// per-stream window layered over the shared credits.
  std::uint32_t per_stream_credits = 8;
  /// Deficit granted to each parked stream per dispatch-round visit.  Any
  /// positive deficit admits one post of any size, so a stream posts at
  /// most quantum + one chunk per visit (standard DRR slack).
  std::uint64_t drr_quantum = 16 * 1024;
};

/// Counter-conservation surface for the invariant checker: at quiescence
/// every data WWI group A posted is accounted at its peer B as delivered,
/// epoch-stale, or orphaned — data_posted(A) == data_delivered(B) +
/// stale_data_drops(B) + orphan_drops(B).
struct MuxGroupStats {
  std::uint64_t streams_attached = 0;
  std::uint64_t streams_detached = 0;
  std::uint64_t data_posted = 0;
  std::uint64_t data_delivered = 0;
  /// Arrivals for an attached stream whose epoch trails (in flight across
  /// a virtual kill) or that is currently dead.
  std::uint64_t stale_data_drops = 0;
  std::uint64_t stale_control_drops = 0;
  /// Data WWIs arriving for a stream id with no attached stream (torn
  /// down).  Control arrivals for one count in orphan_control_drops: only
  /// data enters the conservation law above.
  std::uint64_t orphan_drops = 0;
  std::uint64_t orphan_control_drops = 0;
  /// Send completions whose stream detached before they returned.
  std::uint64_t orphan_completions = 0;
  std::uint64_t dispatch_rounds = 0;
  std::uint64_t dispatch_wakes = 0;
  std::uint64_t virtual_kills = 0;
  std::uint64_t revives = 0;
};

/// A pool of slot ControlChannels shared by many streams.  Build one per
/// endpoint, wire two with Connect (slot i to slot i), then attach streams
/// pairwise with matching ids.  The group does not own its streams — a
/// MuxStream is owned by the socket riding it and detaches itself on
/// destruction (guarded by a liveness token, so either side may die
/// first, matching the ControlSlotSource teardown idiom).
class MuxGroup {
 public:
  MuxGroup(verbs::Device& device, MuxOptions options);
  ~MuxGroup();

  MuxGroup(const MuxGroup&) = delete;
  MuxGroup& operator=(const MuxGroup&) = delete;

  /// Wire two groups on opposite nodes slot-for-slot.  Calling it again on
  /// a pair whose slot transports died reconnects them (the slots'
  /// ControlChannel::Connect reconnect path); attached streams must then
  /// be revived individually.
  static void Connect(MuxGroup& a, MuxGroup& b);

  /// Next unused stream id (both endpoints must attach the same id for a
  /// connection; the engine handshake carries it in the REQ).
  std::uint32_t AllocateStreamId() { return next_stream_id_; }

  /// Attach a stream.  The returned endpoint is owned by the caller
  /// (typically via SocketWiring::mux_stream) and detaches itself at
  /// destruction.  Ids must fit the 16-bit wire field.
  std::unique_ptr<MuxStream> AttachStream(std::uint32_t stream_id);

  const MuxOptions& options() const { return options_; }
  std::uint32_t width() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  MuxGroup* peer() { return peer_; }
  const MuxGroup* peer() const { return peer_; }
  MuxStream* FindStream(std::uint32_t stream_id);
  const MuxStream* FindStream(std::uint32_t stream_id) const;
  std::size_t AttachedStreams() const { return attached_; }
  /// Attached stream ids, ascending (checker and harness iteration).
  std::vector<std::uint32_t> StreamIds() const;
  const MuxGroupStats& stats() const { return stats_; }
  verbs::Device& device() { return *device_; }
  /// Slot access for fault hooks (HoldIncoming) and credit-conservation
  /// checks; index < width().
  ControlChannel& slot(std::size_t i) { return *slots_[i]; }
  const ControlChannel& slot(std::size_t i) const { return *slots_[i]; }

 private:
  friend class MuxStream;

  /// Per-slot FIFO of posted data WWIs: RC completes sends in post order,
  /// so the front record always names the completing WR's stream.
  struct PostRecord {
    std::uint32_t stream = 0;
    std::uint64_t wr_id = 0;
    std::uint8_t epoch = 0;
  };

  /// One slot's dispatch rotation: its streams in attach order, null where
  /// one detached (skipped lazily, compacted once nulls outnumber live
  /// entries), plus a bitmap of the parked ones — all a round visits.
  /// Every attached stream holds exactly one position.
  struct Rotation {
    std::vector<MuxStream*> streams;
    std::vector<std::uint64_t> parked;  ///< bit i set iff streams[i] parked
    std::size_t detached = 0;           ///< null entries in `streams`
    std::size_t cursor = 0;             ///< where the next round starts
    bool in_round = false;  ///< deficit gate + re-entrancy guard
    /// Walks in progress (a round, a slot death).  They hold positions,
    /// so compaction waits until none is left.
    std::uint32_t walks = 0;

    void SetParked(std::size_t pos, bool parked);
    /// First parked position in [from, end), or `end` if there is none.
    std::size_t NextParked(std::size_t from, std::size_t end) const;
  };

  std::size_t SlotIndex(std::uint32_t stream_id) const {
    return stream_id % slots_.size();
  }
  void WireSlot(std::size_t slot);
  void Detach(MuxStream& stream);
  void CompactIfSparse(Rotation& rotation);
  void OnSlotDataRaw(std::size_t slot, const verbs::WorkCompletion& wc);
  void OnSlotControl(const wire::ControlMessage& msg);
  void OnSlotDataSent(std::size_t slot, std::uint64_t wr_id);
  void OnSlotFatal(std::size_t slot, verbs::WcStatus status);
  /// DRR dispatch round over the slot's parked streams.
  void DispatchSlot(std::size_t slot);

  verbs::Device* device_;
  MuxOptions options_;
  MuxGroup* peer_ = nullptr;
  std::vector<std::unique_ptr<ControlChannel>> slots_;
  std::vector<std::deque<PostRecord>> slot_fifo_;
  std::vector<Rotation> rotations_;  ///< one per slot
  /// The demux table: attached stream by id, null where none.  Ids fit
  /// 16 bits and AllocateStreamId hands them out densely, so a flat table
  /// indexed by id replaces hashing.
  std::vector<MuxStream*> by_id_;
  std::size_t attached_ = 0;
  std::uint32_t next_stream_id_ = 0;
  MuxGroupStats stats_;
  /// Expires at group destruction; guards stream detach and the scheduled
  /// peer half of a virtual kill.
  std::shared_ptr<void> liveness_ = std::make_shared<char>(0);
};

/// One stream of a MuxGroup: the ChannelEndpoint a muxed socket's protocol
/// halves drive.  Owned by the socket, routed by the group.
class MuxStream : public ChannelEndpoint {
 public:
  ~MuxStream() override;

  MuxStream(const MuxStream&) = delete;
  MuxStream& operator=(const MuxStream&) = delete;

  // ---- ChannelEndpoint ---------------------------------------------------
  void set_callbacks(Callbacks callbacks) override {
    callbacks_ = std::move(callbacks);
  }
  /// Sendable when the group lives, the stream is not (virtually) dead,
  /// the slot has a shared credit, the per-stream window has room, and —
  /// during a dispatch round — this stream holds deficit.  A false return
  /// on a live stream parks it: the next dispatch round will wake it, and
  /// the park-to-next-send wait feeds the mux.hol_wait histogram.
  bool CanSend() const override;
  bool dead() const override { return dead_; }
  void SendControl(wire::ControlMessage msg) override;
  void PostDataWwi(std::uint64_t wr_id, std::span<const verbs::Sge> sges,
                   std::uint64_t remote_addr, std::uint32_t rkey,
                   bool indirect, bool has_stripe_seq = false,
                   std::uint64_t stripe_seq = 0,
                   std::uint64_t trace_ctx = 0) override;
  /// Rendezvous sockets keep dedicated channels; a muxed READ would bypass
  /// the credit layering entirely.
  void PostRead(std::uint64_t wr_id, void* dst, std::uint32_t lkey,
                std::uint64_t len, std::uint64_t remote_addr,
                std::uint32_t rkey) override;
  verbs::Device& device() override;

  // ---- Mux-tier controls -------------------------------------------------

  /// Virtual kill: this stream dies (on_fatal fires synchronously, as a
  /// local QP kill's would) while the shared slot QP — and every other
  /// stream on it — stays healthy.  The peer stream is marked dead one
  /// transport ack delay later with kRetryExceededError, mirroring how a
  /// real peer discovers a QP death.  Returns false when already dead.
  bool Kill() override;

  /// Undo a virtual kill (Socket::ResumePair): bump the reconnect epoch —
  /// in-flight pre-kill messages are dropped by the epoch gate — and reset
  /// the per-stream window and sequence counters.  The slot transport must
  /// be alive (after a real slot death, reconnect the groups first).
  void Revive();

  /// Attach observability: the park-to-send head-of-line wait histogram
  /// ("mux.hol_wait") and the park counter ("mux.parks").  Either null.
  void SetInstruments(metrics::Histogram* hol_wait, metrics::Counter* parks) {
    hol_wait_ = hol_wait;
    parks_ = parks;
  }

  // Introspection (tests, invariant checker).
  std::uint32_t stream_id() const { return id_; }
  std::uint8_t epoch() const { return epoch_; }
  std::uint32_t outstanding() const { return outstanding_; }
  std::uint64_t tx_seq() const { return tx_seq_; }
  std::uint64_t rx_expect() const { return rx_expect_; }
  bool parked() const { return parked_; }
  bool GroupAlive() const { return !group_alive_.expired(); }
  MuxGroup& group() { return *group_; }
  ControlChannel& slot_channel() { return *slot_; }

 private:
  friend class MuxGroup;
  MuxStream(MuxGroup& group, std::uint32_t id);

  void MarkDead(verbs::WcStatus status);
  void NoteDataSent(std::uint64_t wr_id);
  void FireCreditAvailable();
  /// CanSend() returned false on a live stream: start (or continue) the
  /// park.  Mutable bookkeeping — blocking is observed at the const gate.
  void NotePark() const;
  /// A send went through: close the park window into the HoL histogram.
  void NoteUnblocked();
  /// Set parked_ and mirror it into the slot rotation's parked bitmap.
  void SetParked(bool parked) const;

  MuxGroup* group_;
  std::weak_ptr<void> group_alive_;
  ControlChannel* slot_;
  std::size_t slot_index_;
  std::uint32_t id_;
  std::uint32_t rotation_pos_ = 0;  ///< index in the slot's rotation
  Callbacks callbacks_;
  bool dead_ = false;
  bool fatal_notified_ = false;
  /// Reconnect epoch stamped on every message; bumped by Revive().  Eight
  /// bits wrap after 256 revives — safe because pre-kill messages are in
  /// flight for one round trip, vastly shorter than 256 kill/resume
  /// cycles of the same stream.
  std::uint8_t epoch_ = 0;
  std::uint32_t outstanding_ = 0;  ///< data WWIs posted, not yet completed
  std::uint64_t tx_seq_ = 0;       ///< next per-stream delivery sequence
  std::uint64_t rx_expect_ = 0;    ///< next sequence the peer must show
  std::uint64_t deficit_ = 0;      ///< DRR allowance during dispatch rounds
  mutable bool parked_ = false;
  mutable SimTime park_since_ = 0;
  metrics::Histogram* hol_wait_ = nullptr;
  metrics::Counter* parks_ = nullptr;
};

}  // namespace exs
