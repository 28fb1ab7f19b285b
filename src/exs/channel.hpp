// The connection's transport plumbing, shared by both socket modes.
//
// A ControlChannel owns the queue pair and implements the credit scheme of
// §II-B: each side pre-posts `credits` receive work requests backed by a
// slab of small registered buffers; every SEND (control message) or RDMA
// WRITE WITH IMM (data chunk) consumes one credit at the destination, and
// consumed receives are reposted immediately and returned to the peer as
// `credit_return` piggybacked on control traffic — with a standalone
// CREDIT message when enough accumulate and nothing else is flowing.  One
// credit is held in reserve so a CREDIT message can always be sent,
// which keeps the scheme deadlock-free.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "exs/wire.hpp"
#include "simnet/faults.hpp"
#include "verbs/device.hpp"
#include "verbs/queue_pair.hpp"

namespace exs {

/// Source of shared control-receive slots for channels whose queue pair
/// draws from a verbs SharedReceiveQueue instead of a private pool.
/// Implemented by the engine's ControlSlotPool; the interface lives here so
/// exs core never includes engine headers.  Slot identity is the receive's
/// wr_id — a global index into the pool's slab, valid across every channel
/// attached to the same source.
class ControlSlotSource {
 public:
  virtual ~ControlSlotSource() = default;
  virtual verbs::SharedReceiveQueue& srq() = 0;
  /// Account `n` pool slots to a new channel.  False when the pool cannot
  /// cover them — the acceptor's admission control refuses the connection
  /// instead of risking RNR on an established one.
  virtual bool ReserveSlots(std::uint32_t n) = 0;
  virtual void UnreserveSlots(std::uint32_t n) = 0;
  /// Memory backing a consumed slot.
  virtual const std::uint8_t* SlotMem(std::uint64_t slot) const = 0;
  /// Recycle a consumed slot's receive back into the shared pool.
  virtual void RepostSlot(std::uint64_t slot) = 0;

  /// Expires when this source is destroyed.  A socket may legitimately
  /// outlive the pool it drew from (the ConnectionService owns accepted
  /// sockets, and typically outlives the acceptor); teardown paths that
  /// would call back into the source — the channel's destructor refunding
  /// its slot reservation — must check this first, making the refund a
  /// no-op once there is no pool left to refund.
  std::weak_ptr<void> LivenessToken() const { return liveness_; }

 private:
  std::shared_ptr<void> liveness_ = std::make_shared<char>(0);
};

/// The transport surface a protocol half (StreamTx/StreamRx/SeqPacket*/
/// Rendezvous*) drives: one rail of a socket.  Two implementations:
/// ControlChannel — a dedicated queue pair per rail (classic) — and
/// MuxStream (exs/mux.hpp) — one stream of a shared-QP MuxGroup, layering a
/// per-stream credit window and fair dispatch over the shared channel's
/// §II-B credits.  The protocol halves are written against this interface
/// only, so multiplexing never touches the stream algorithms themselves.
class ChannelEndpoint {
 public:
  struct Callbacks {
    /// An ADVERT or ACK arrived (CREDIT messages are absorbed internally).
    std::function<void(const wire::ControlMessage&)> on_control;
    /// A data WWI arrived: kind and chunk length decoded from the imm,
    /// plus the stripe sequence number when the sender striped the stream
    /// across multiple rails (has_stripe_seq == false on classic
    /// single-rail connections).  `trace_ctx` is the causal-tracing
    /// correlation id carried as work-request metadata (0 = untraced).
    std::function<void(bool indirect, std::uint64_t len, bool has_stripe_seq,
                       std::uint64_t stripe_seq, std::uint64_t trace_ctx)>
        on_data;
    /// Raw variant of on_data: when set, it is invoked INSTEAD of on_data
    /// with the undecoded work completion (imm, stripe and mux extensions
    /// included).  The slot channels of a MuxGroup hook this to demultiplex
    /// arrivals by stream id before decoding; everything else leaves it
    /// unset and keeps the decoded callback.
    std::function<void(const verbs::WorkCompletion&)> on_data_raw;
    /// A locally posted data WWI completed (transport-acknowledged).
    std::function<void(std::uint64_t wr_id)> on_data_sent;
    /// A locally posted RDMA READ completed (data landed here).
    std::function<void(std::uint64_t wr_id, std::uint64_t bytes)>
        on_read_done;
    /// Our send credit increased; blocked work may be retried.
    std::function<void()> on_credit_available;
    /// The transport died: the queue pair entered the fatal error state
    /// (killed locally, or its retries exhausted against a dead peer).
    /// Invoked exactly once per death; after it fires CanSend() is false
    /// until the channel is reconnected (Socket::ResumePair).
    std::function<void(verbs::WcStatus)> on_fatal;
  };

  virtual ~ChannelEndpoint() = default;

  virtual void set_callbacks(Callbacks callbacks) = 0;
  /// Can a normal message (control or data) be sent right now?
  virtual bool CanSend() const = 0;
  /// The endpoint can accept no traffic until reconnected/revived.
  virtual bool dead() const = 0;
  /// Force the transport into the fatal error state (fault injection):
  /// on_fatal fires synchronously and the peer's half dies one transport
  /// ack delay later.  Returns false — and does nothing — when the
  /// endpoint is already dead: never a second flush or a dangling
  /// callback.
  virtual bool Kill() = 0;
  /// Send an ADVERT or ACK; fills in the piggybacked credit return (and,
  /// for mux endpoints, the stream id).  Caller must have checked CanSend().
  virtual void SendControl(wire::ControlMessage msg) = 0;
  /// Post a data chunk as RDMA WRITE WITH IMM into peer memory.  The
  /// chunk is the bytes of `sges` in order (1..verbs::kMaxSge registered
  /// elements, gathered by the HCA into one work request); its length
  /// rides the imm.  Caller must have checked CanSend().  `wr_id` is
  /// returned via on_data_sent.  When `has_stripe_seq`, the chunk carries
  /// `stripe_seq` in an extended wire header (multi-rail striping) at
  /// kStripeHeaderBytes extra cost.  `trace_ctx` rides as zero-cost
  /// work-request metadata and surfaces in the peer's on_data callback
  /// (0 = untraced).
  virtual void PostDataWwi(std::uint64_t wr_id,
                           std::span<const verbs::Sge> sges,
                           std::uint64_t remote_addr, std::uint32_t rkey,
                           bool indirect, bool has_stripe_seq = false,
                           std::uint64_t stripe_seq = 0,
                           std::uint64_t trace_ctx = 0) = 0;
  /// Ring the doorbell for any data posts this endpoint is holding back
  /// under doorbell batching (StreamOptions::Batching::doorbell).  A no-op
  /// on endpoints that post eagerly — the default everywhere.
  virtual void FlushPostedWrs() {}
  /// Any posts currently held back awaiting a doorbell?  Senders use this
  /// to decide whether a deferred flush event is worth scheduling.
  virtual bool HasPendingPostedWrs() const { return false; }
  /// Pull `len` bytes from peer memory with RDMA READ (rendezvous mode).
  /// READs consume no receive at the target, hence no credit.  Mux
  /// endpoints refuse this — rendezvous sockets keep dedicated channels.
  virtual void PostRead(std::uint64_t wr_id, void* dst, std::uint32_t lkey,
                        std::uint64_t len, std::uint64_t remote_addr,
                        std::uint32_t rkey) = 0;
  /// The device whose memory registrations cover this endpoint's traffic.
  virtual verbs::Device& device() = 0;
};

class ControlChannel : public ChannelEndpoint,
                       public simnet::IncomingHoldTarget {
 public:
  /// Extra wire metadata stamped on data WWIs posted through a MuxStream;
  /// absent (present == false) on every classic post.
  struct MuxTag {
    bool present = false;
    std::uint32_t stream = 0;
    std::uint64_t seq = 0;
    std::uint8_t epoch = 0;
  };

  /// `shared_slots` switches the receive side to SRQ mode: no private
  /// slab is allocated; Connect attaches the queue pair to the source's
  /// shared receive queue and reserves `credits` pool slots (the per-peer
  /// credit grant the reservation must cover).  Null keeps the classic
  /// private pool.  `slots_pre_reserved` means the admission point
  /// already made that reservation (atomically with its admission check)
  /// and this channel adopts it: Connect reserves nothing, the destructor
  /// still refunds.
  ControlChannel(verbs::Device& device, std::uint32_t credits,
                 ControlSlotSource* shared_slots = nullptr,
                 bool slots_pre_reserved = false);
  ~ControlChannel() override;

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// Wire two channels on opposite nodes together and pre-post the credit
  /// pool on both.  Calling Connect again on a pair of *dead* channels
  /// reconnects them: fresh queue pairs are built (the dead ones are parked
  /// until teardown so their in-flight flush callbacks stay safe), the
  /// receive pool is re-posted, and the credit scheme restarts from full.
  /// A shared-slot channel keeps its admission-time reservation across the
  /// reconnect — resuming is not a new admission.
  static void Connect(ControlChannel& a, ControlChannel& b);

  /// Kills the queue pair: in-flight WRs flush with error completions and
  /// new posts are refused.
  bool Kill() override;
  bool dead() const override { return dead_; }

  void set_callbacks(Callbacks callbacks) override {
    callbacks_ = std::move(callbacks);
  }

  /// Attach observability instruments: `credits` samples the send-credit
  /// balance whenever it changes; `credit_messages` counts standalone
  /// CREDIT messages.  Either may be null.
  void SetInstruments(metrics::TimeWeightedSeries* credits,
                      metrics::Counter* credit_messages);

  /// Attach per-queue-pair instruments ("rail<i>.*" in the registry) plus
  /// a series sampling this channel's outstanding send-queue work
  /// requests.  Must be called before Connect so the queue pair is born
  /// instrumented; all pointers may be null.
  void SetQpInstruments(const verbs::QueuePairInstruments& inst,
                        metrics::TimeWeightedSeries* inflight_wrs);

  /// Can a normal message (control or data) be sent right now?  One credit
  /// is reserved for CREDIT messages; a dead transport can send nothing.
  bool CanSend() const override { return !dead_ && remote_credits_ >= 2; }

  /// Send an ADVERT or ACK; fills in the piggybacked credit return.
  /// Caller must have checked CanSend().
  void SendControl(wire::ControlMessage msg) override;

  void PostDataWwi(std::uint64_t wr_id, std::span<const verbs::Sge> sges,
                   std::uint64_t remote_addr, std::uint32_t rkey,
                   bool indirect, bool has_stripe_seq = false,
                   std::uint64_t stripe_seq = 0,
                   std::uint64_t trace_ctx = 0) override;

  /// The one data-WR builder: PostDataWwi with a stream-multiplexing tag
  /// stamped on the work request (kMuxHeaderBytes extra wire cost when
  /// present).  The virtual override forwards here with an absent tag.
  void PostDataWwiTagged(std::uint64_t wr_id, std::span<const verbs::Sge> sges,
                         std::uint64_t remote_addr, std::uint32_t rkey,
                         bool indirect, bool has_stripe_seq,
                         std::uint64_t stripe_seq, std::uint64_t trace_ctx,
                         const MuxTag& tag);

  /// Arm doorbell batching: data WWIs accumulate in a pending list and are
  /// posted through QueuePair::PostSendBatch — one doorbell per batch —
  /// when `max_wrs` accumulate, when FlushPostedWrs() is called, or before
  /// any operation that must not reorder around them (SendControl,
  /// PostRead: RC FIFO order says control must not overtake batched data).
  /// 0 disables (the default): every post rings its own doorbell
  /// immediately, timing bit-identical to pre-batching builds.
  void SetSendBatching(std::uint32_t max_wrs) { batch_max_wrs_ = max_wrs; }
  /// Arm batched completion dispatch on both of this channel's CQs: up to
  /// `max_n` completions per CPU pass, handlers clumped at one instant
  /// (verbs::CompletionQueue::SetDispatchBatch).
  void SetCqDispatchBatch(std::uint32_t max_n) {
    send_cq_->SetDispatchBatch(max_n);
    recv_cq_->SetDispatchBatch(max_n);
  }
  void FlushPostedWrs() override { FlushSendBatch(); }
  bool HasPendingPostedWrs() const override { return !pending_wrs_.empty(); }
  std::size_t PendingBatchedWrs() const { return pending_wrs_.size(); }

  void PostRead(std::uint64_t wr_id, void* dst, std::uint32_t lkey,
                std::uint64_t len, std::uint64_t remote_addr,
                std::uint32_t rkey) override;

  /// Fault injection (simnet/faults.hpp): freeze incoming completion
  /// dispatch for `hold`, then release the backlog strictly in arrival
  /// order.  Models delayed control/ADVERT delivery while honouring RC
  /// in-order semantics: everything behind a held message waits too.
  /// Deferring the whole dispatch (including the slot repost) is safe —
  /// an unprocessed slot's receive is not reposted, so its slab bytes
  /// stay intact, and the credit scheme throttles the peer before the
  /// pool could be oversubscribed.
  void HoldIncoming(SimDuration hold) override;

  /// Completions currently frozen by HoldIncoming.
  std::size_t HeldCompletions() const { return deferred_.size(); }

  verbs::Device& device() override { return *device_; }
  /// Transport ack / death-propagation delay of the underlying queue pair
  /// (valid once connected).  The mux tier's virtual per-stream kill uses
  /// it so peer discovery keeps real-QP timing.
  SimDuration AckReturnDelay() const { return qp_->AckReturnDelay(); }
  std::uint32_t remote_credits() const { return remote_credits_; }
  std::uint32_t credit_pool_size() const { return credits_; }
  /// Reposted receives not yet reported to the peer.  At quiescence
  /// `peer.remote_credits() + owed_credits() == credit_pool_size()` — the
  /// conservation law the mux invariant checker audits per slot.
  std::uint32_t owed_credits() const { return owed_credits_; }
  /// Whether the channel owns a queue pair yet (false before Connect);
  /// qp_stats()/AckReturnDelay() are only valid when this holds.
  bool HasQueuePair() const { return qp_ != nullptr; }
  const verbs::QueuePairStats& qp_stats() const { return qp_->stats(); }
  std::uint64_t credit_messages_sent() const { return credit_messages_sent_; }

 private:
  void FlushSendBatch();
  void EnqueueOrPost(const verbs::SendWorkRequest& wr);
  void OnSendCompletion(const verbs::WorkCompletion& wc);
  void OnRecvCompletion(const verbs::WorkCompletion& wc);
  void ProcessRecvCompletion(const verbs::WorkCompletion& wc);
  void MarkDead(verbs::WcStatus reason);
  void ResetForResume();
  void DrainDeferred();
  void AttachReceivePool();
  void PostSlotRecv(std::uint32_t slot);
  void ConsumeCredit();
  void ReturnConsumedSlot();
  void MaybeSendStandaloneCredit();
  std::uint32_t TakeCreditReturn();
  void SampleCredits();
  void SampleInflightWrs();

  verbs::Device* device_;
  std::uint32_t credits_;
  ControlSlotSource* shared_slots_;  ///< null = classic private pool
  std::weak_ptr<void> slots_liveness_;  ///< guards the dtor's refund
  bool slots_reserved_ = false;
  std::unique_ptr<verbs::CompletionQueue> send_cq_;
  std::unique_ptr<verbs::CompletionQueue> recv_cq_;
  std::unique_ptr<verbs::QueuePair> qp_;
  /// Killed queue pairs from before a reconnect, kept alive so scheduler
  /// closures they captured stay valid; their late completions are dropped
  /// by the wc.qp identity check in the CQ handlers.
  std::vector<std::unique_ptr<verbs::QueuePair>> dead_qps_;
  bool dead_ = false;
  bool fatal_notified_ = false;
  std::vector<std::uint8_t> slab_;  ///< empty in shared-slot mode
  verbs::MemoryRegionPtr slab_mr_;
  Callbacks callbacks_;

  SimTime hold_until_ = 0;  ///< incoming dispatch frozen before this time
  std::deque<verbs::WorkCompletion> deferred_;  ///< held, in arrival order

  std::uint32_t remote_credits_ = 0;  ///< peer receives we may consume
  std::uint32_t owed_credits_ = 0;    ///< reposted receives not yet reported
  std::uint64_t credit_messages_sent_ = 0;
  metrics::TimeWeightedSeries* credit_series_ = nullptr;
  metrics::Counter* credit_message_counter_ = nullptr;
  verbs::QueuePairInstruments qp_inst_;
  metrics::TimeWeightedSeries* inflight_wr_series_ = nullptr;
  std::uint64_t outstanding_wrs_ = 0;  ///< posted sends awaiting completion

  std::uint32_t batch_max_wrs_ = 0;  ///< 0 = doorbell batching off
  /// Data WRs built but not yet posted (doorbell batching).  Always empty
  /// when batch_max_wrs_ == 0.
  std::vector<verbs::SendWorkRequest> pending_wrs_;

  /// Work-request id marking internal control sends on the send CQ.
  static constexpr std::uint64_t kControlWrId = ~std::uint64_t{0};
};

}  // namespace exs
