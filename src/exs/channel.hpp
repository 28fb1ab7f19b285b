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
  /// Refund the `n` slots a channel's admission reserved (the channel
  /// adopts that reservation and returns it at teardown).
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
  /// The one object an endpoint reports to: the socket for each of its
  /// rails, or the MuxGroup for each of its slot channels.  Every report
  /// carries the index the endpoint was attached under, so one owner tells
  /// its endpoints apart without a closure per endpoint.
  class Owner {
   public:
    virtual ~Owner() = default;
    /// An ADVERT or ACK arrived (CREDIT messages are absorbed internally).
    virtual void OnControl(std::size_t rail,
                           const wire::ControlMessage& msg) = 0;
    /// A data WWI arrived: kind and chunk length decoded from the imm, plus
    /// the extension header the sender stamped — the stripe sequence when
    /// the stream is striped across rails, the mux tag on a shared QP (a
    /// MuxGroup's slots demultiplex on it), and the causal-tracing id
    /// (0 = untraced).
    virtual void OnData(std::size_t rail, bool indirect, std::uint64_t len,
                        const verbs::ExtHeader& ext) = 0;
    /// A locally posted data WWI completed (transport-acknowledged).
    virtual void OnDataSent(std::size_t rail, std::uint64_t wr_id) = 0;
    /// A locally posted RDMA READ completed (data landed here).
    virtual void OnReadDone(std::size_t rail, std::uint64_t wr_id,
                            std::uint64_t bytes) = 0;
    /// Our send credit increased; blocked work may be retried.
    virtual void OnCreditAvailable(std::size_t rail) = 0;
    /// The transport died: the queue pair entered the fatal error state
    /// (killed locally, or its retries exhausted against a dead peer).
    /// Reported exactly once per death; after it CanSend() is false until
    /// the endpoint is reconnected (Socket::ResumePair).
    virtual void OnFatal(std::size_t rail, verbs::WcStatus status) = 0;
  };

  virtual ~ChannelEndpoint() = default;

  /// Report every event to `owner`, tagged with `rail`.  The owner attaches
  /// the endpoint when it builds it, before anything can be reported.
  void Attach(Owner& owner, std::size_t rail) {
    owner_ = &owner;
    rail_ = rail;
  }
  /// Can a normal message (control or data) be sent right now?
  virtual bool CanSend() const = 0;
  /// The endpoint can accept no traffic until reconnected/revived.
  virtual bool dead() const = 0;
  /// Force the transport into the fatal error state (fault injection):
  /// OnFatal is reported synchronously and the peer's half dies one
  /// transport ack delay later.  Returns false — and does nothing — when
  /// the endpoint is already dead: never a second flush or a second
  /// report.
  virtual bool Kill() = 0;
  /// Send an ADVERT or ACK; fills in the piggybacked credit return (and,
  /// for mux endpoints, the stream id).  Caller must have checked CanSend().
  virtual void SendControl(wire::ControlMessage msg) = 0;
  /// Post a data chunk as RDMA WRITE WITH IMM into peer memory.  The
  /// chunk is the bytes of `sges` in order (1..verbs::kMaxSge registered
  /// elements, gathered by the HCA into one work request); its length
  /// rides the imm.  Caller must have checked CanSend().  `wr_id` is
  /// returned via OnDataSent.  `ext` rides the work request to the peer's
  /// OnData, at ExtHeader::WireBytes() extra wire cost; a MuxStream stamps
  /// its tag into it.
  virtual void PostDataWwi(std::uint64_t wr_id,
                           std::span<const verbs::Sge> sges,
                           std::uint64_t remote_addr, std::uint32_t rkey,
                           bool indirect, const verbs::ExtHeader& ext) = 0;
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

 protected:
  Owner* owner_ = nullptr;
  std::size_t rail_ = 0;
};

class ControlChannel : public ChannelEndpoint,
                       public simnet::IncomingHoldTarget {
 public:
  /// `shared_slots` switches the receive side to SRQ mode: no private
  /// slab is allocated, and Connect attaches the queue pair to the
  /// source's shared receive queue.  The admission point has already
  /// reserved `credits` pool slots (the per-peer credit grant),
  /// atomically with its admission check; the channel adopts that
  /// reservation and its destructor refunds it.  Null keeps the classic
  /// private pool.
  ControlChannel(verbs::Device& device, std::uint32_t credits,
                 ControlSlotSource* shared_slots = nullptr);
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

  /// Attach the owner's instruments.  `credits` samples the send-credit
  /// balance whenever it changes and `inflight_wrs` the outstanding
  /// send-queue work requests; both are opt-in samplers and may be null.
  /// Standalone CREDIT messages count into `credit_messages`, or into the
  /// channel's own counter when it is null.
  void SetInstruments(metrics::TimeWeightedSeries* credits,
                      metrics::TimeWeightedSeries* inflight_wrs,
                      metrics::Counter* credit_messages);

  /// Can a normal message (control or data) be sent right now?  One credit
  /// is reserved for CREDIT messages; a dead transport can send nothing.
  bool CanSend() const override { return !dead_ && remote_credits_ >= 2; }

  /// Send an ADVERT or ACK; fills in the piggybacked credit return.
  /// Caller must have checked CanSend().
  void SendControl(wire::ControlMessage msg) override;

  void PostDataWwi(std::uint64_t wr_id, std::span<const verbs::Sge> sges,
                   std::uint64_t remote_addr, std::uint32_t rkey,
                   bool indirect, const verbs::ExtHeader& ext) override;

  /// Arm doorbell batching: data WWIs accumulate in a pending list and are
  /// posted through QueuePair::PostSendBatch — one doorbell per batch —
  /// when `max_wrs` accumulate, when FlushPostedWrs() is called, or before
  /// any operation that must not reorder around them (SendControl,
  /// PostRead: RC FIFO order says control must not overtake batched data).
  /// 0 disables (the default): every post rings its own doorbell
  /// immediately, timing bit-identical to pre-batching builds.  Each ring
  /// also counts in the owner's `batches` and `wrs`, which may aggregate
  /// several channels.
  void SetSendBatching(std::uint32_t max_wrs, metrics::Counter& batches,
                       metrics::Counter& wrs) {
    batch_max_wrs_ = max_wrs;
    doorbell_batches_ = &batches;
    doorbell_wrs_ = &wrs;
  }
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
  /// AckReturnDelay() is only valid when this holds.
  bool HasQueuePair() const { return qp_ != nullptr; }
  /// The counts of every queue pair this channel has had, across
  /// reconnects: the block each of them records into.
  verbs::QueuePairCounters& qp_counters() { return qp_counters_; }
  verbs::QueuePairStats qp_stats() const { return qp_counters_.Stats(); }
  /// The standalone CREDIT messages counted where SetInstruments said.
  std::uint64_t credit_messages_sent() const {
    return credit_messages_->value();
  }
  /// Data WWIs that reached this channel's queue pair but were dispatched
  /// to no one because the channel had died first: delivered just before
  /// the death, or landing on a queue pair a reconnect has parked.
  std::uint64_t dropped_data_wwis() const { return dropped_data_wwis_; }

 private:
  void FlushSendBatch();
  void EnqueueOrPost(const verbs::SendWorkRequest& wr);
  void OnSendCompletion(const verbs::WorkCompletion& wc);
  void OnRecvCompletion(const verbs::WorkCompletion& wc);
  void ProcessRecvCompletion(const verbs::WorkCompletion& wc);
  /// `wc` arrived at a dead channel: count it if it is a data WWI.
  void NoteDroppedArrival(const verbs::WorkCompletion& wc);
  void MarkDead(verbs::WcStatus reason);
  void ResetForResume();
  void DrainDeferred();
  void AttachReceivePool();
  void PostSlotRecv(std::uint32_t slot);
  void ConsumeCredit();
  void MaybeSendStandaloneCredit();
  std::uint32_t TakeCreditReturn();
  void SampleCredits();
  void SampleInflightWrs();

  verbs::Device* device_;
  std::uint32_t credits_;
  ControlSlotSource* shared_slots_;  ///< null = classic private pool
  std::weak_ptr<void> slots_liveness_;  ///< guards the dtor's refund
  std::unique_ptr<verbs::CompletionQueue> send_cq_;
  std::unique_ptr<verbs::CompletionQueue> recv_cq_;
  verbs::QueuePairCounters qp_counters_;
  std::unique_ptr<verbs::QueuePair> qp_;
  /// Killed queue pairs from before a reconnect, kept alive so scheduler
  /// closures they captured stay valid; their late completions are dropped
  /// by the wc.qp identity check in the CQ handlers.
  std::vector<std::unique_ptr<verbs::QueuePair>> dead_qps_;
  bool dead_ = false;
  bool fatal_notified_ = false;
  std::vector<std::uint8_t> slab_;  ///< empty in shared-slot mode
  verbs::MemoryRegionPtr slab_mr_;

  SimTime hold_until_ = 0;  ///< incoming dispatch frozen before this time
  std::deque<verbs::WorkCompletion> deferred_;  ///< held, in arrival order

  std::uint32_t remote_credits_ = 0;  ///< peer receives we may consume
  std::uint32_t owed_credits_ = 0;    ///< reposted receives not yet reported
  std::uint64_t dropped_data_wwis_ = 0;
  metrics::Counter own_credit_messages_;
  metrics::Counter* credit_messages_ = &own_credit_messages_;
  metrics::TimeWeightedSeries* credit_series_ = nullptr;
  metrics::TimeWeightedSeries* inflight_wr_series_ = nullptr;
  std::uint64_t outstanding_wrs_ = 0;  ///< posted sends awaiting completion

  std::uint32_t batch_max_wrs_ = 0;  ///< 0 = doorbell batching off
  metrics::Counter* doorbell_batches_ = nullptr;  ///< set with batching
  metrics::Counter* doorbell_wrs_ = nullptr;
  /// Data WRs built but not yet posted (doorbell batching).  Always empty
  /// when batch_max_wrs_ == 0.
  std::vector<verbs::SendWorkRequest> pending_wrs_;

  /// Work-request id marking internal control sends on the send CQ.
  static constexpr std::uint64_t kControlWrId = ~std::uint64_t{0};
};

}  // namespace exs
