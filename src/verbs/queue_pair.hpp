// Reliable-connected queue pair.
//
// Models the RC transport the paper uses: posted send work requests are
// processed FIFO by the sender HCA (per-WR overhead, then serialisation on
// the link), delivered in order, and completed back to the sender once the
// transport-level acknowledgment returns.  SEND and RDMA WRITE WITH IMM
// consume one posted receive at the destination — arriving with none posted
// is the receiver-not-ready condition, surfaced as an error completion
// (the upper layer's credit scheme must prevent it, and tests check that it
// does).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"
#include "verbs/device.hpp"
#include "verbs/types.hpp"

namespace exs::verbs {

class SharedReceiveQueue;

/// A queue pair's counts, one field of type T each: metrics::Counter in
/// the block a queue pair records into, std::uint64_t in its snapshot.
template <typename T>
struct QueuePairFields {
  T sends_posted{};
  T recvs_posted{};
  T payload_bytes_sent{};
  T wire_bytes_sent{};
  T messages_delivered{};
  T rnr_errors{};
  T remote_access_errors{};
  T length_errors{};
  /// Receives drawn from an attached shared receive queue.  The per-QP
  /// split of a shared pool is the fairness signal: one connection
  /// monopolising the SRQ shows up here, not only in its victims' RNRs.
  T srq_recvs_consumed{};
  /// Work requests completed with kWrFlushError after Kill() put the QP in
  /// the error state (in-flight flushes plus refused new posts).
  T flushed_wrs{};
  /// WRITE WITH IMM work requests that never reached a live peer queue
  /// pair (an emulated one counts once, by its notification): refused at
  /// post or skipped at transmit by this killed queue pair, or refused by
  /// a dead destination.  None consumed a receive anywhere.
  T wwis_unreached{};
  /// Doorbell rings through PostSendBatch and the work requests they
  /// covered, on a live QP.  batched_wrs / doorbells is the achieved batch
  /// depth.
  T doorbells{};
  T batched_wrs{};
  /// Gather-list accounting: WRs posted with more than one SGE, total SGE
  /// entries across all posted sends, and the summed SGE byte lengths.
  /// sge_bytes_posted == payload_bytes_sent is the per-WR gather byte-
  /// conservation fact the invariant checker audits.
  T gather_wrs{};
  T sge_entries_posted{};
  T sge_bytes_posted{};
};

/// A snapshot of a QueuePairCounters block (QueuePair::stats(),
/// ControlChannel::qp_stats()): the same facts as plain integers.
using QueuePairStats = QueuePairFields<std::uint64_t>;

/// The one store of a queue pair's counts.  A queue pair records into the
/// block it was built with: the EXS control channel keeps one for its
/// whole life and hands it to every queue pair it connects, so the block
/// covers each reconnect; a bare queue pair owns its own.
struct QueuePairCounters : QueuePairFields<metrics::Counter> {
  metrics::Histogram completion_latency;  ///< ps, post -> send WC

  QueuePairStats Stats() const;
};

class QueuePair {
 public:
  /// Counts go to `counters`, which must outlive this queue pair; null
  /// gives the queue pair a block of its own.
  QueuePair(Device& device, CompletionQueue& send_cq, CompletionQueue& recv_cq,
            QueuePairCounters* counters = nullptr);

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Bind two queue pairs on opposite nodes into an RC connection.
  static void ConnectPair(QueuePair& a, QueuePair& b);

  bool connected() const { return peer_ != nullptr; }

  /// Post a send-queue work request (SEND / RDMA WRITE / WWI / READ).
  /// Local misuse (unregistered memory, oversize inline, not connected)
  /// throws InvariantViolation; remote failures arrive as error
  /// completions.  A WR may gather up to kMaxSge source slices; the peer
  /// sees one contiguous payload of total_length() bytes.
  void PostSend(const SendWorkRequest& wr);

  /// Post a batch of send WRs behind a single doorbell.  Semantically
  /// identical to posting each WR in order; the difference is cost: one
  /// profile doorbell_cost for the whole batch plus per_wr_cost per WR,
  /// instead of send_wr_overhead per WR.  On profiles that do not split
  /// the doorbell out (doorbell_cost == per_wr_cost == 0) the batch is
  /// charged exactly like N single posts, so timing is unchanged.
  void PostSendBatch(std::span<const SendWorkRequest> wrs);

  /// Post a receive buffer.  Zero-length receives are permitted (they can
  /// still be consumed by WWI notifications).  Disallowed once an SRQ is
  /// attached — shared-pool QPs have no private receive queue.
  void PostRecv(const RecvWorkRequest& wr);

  /// Attach this QP to a shared receive queue on the same device.  From
  /// then on arriving messages consume pool receives FIFO instead of a
  /// private queue.  Must happen before any receive is consumed; the
  /// private queue must be empty.
  void SetSharedReceiveQueue(SharedReceiveQueue* srq);

  std::size_t PostedRecvCount() const;
  Device& device() { return *device_; }
  QueuePairStats stats() const { return counters_->Stats(); }

  /// Transition to the fatal error state: every in-flight send WR and every
  /// private posted receive completes with kWrFlushError, new posts are
  /// refused with an immediate flush completion, and arriving messages are
  /// dropped (the sender sees kRetryExceededError).  The peer QP discovers
  /// the death when its transport retries exhaust — one ack-return delay
  /// later it enters the error state too.  Idempotent; receives parked in a
  /// shared receive queue stay in the pool (they belong to the device, not
  /// this QP).
  void Kill();
  bool killed() const { return killed_; }

  /// Time for a transport acknowledgment (or a peer's discovery of this
  /// QP's death) to cross the connection: propagation plus any emulated
  /// extra delay.  Exposed so layers emulating transport faults above the
  /// QP — the mux tier's virtual per-stream kill — can propagate them with
  /// the same timing a real QP death would have.
  SimDuration AckReturnDelay() const;

  /// Callback invoked exactly once when the QP enters the error state,
  /// before any flush completion is dispatched.  Lets the upper layer learn
  /// of the death even when no WR happens to be outstanding.
  void SetErrorHandler(std::function<void(WcStatus)> handler) {
    error_handler_ = std::move(handler);
  }

 private:
  struct Packet {
    SendWorkRequest wr;
    std::uint64_t payload_len = 0;
    std::vector<std::uint8_t> payload;  // snapshot when carrying bytes
    /// WWI emulation on legacy iWARP (§II-B): the data half is a plain
    /// RDMA WRITE whose success completion is suppressed; the trailing
    /// notification SEND consumes the receive and reports the original
    /// WWI length through `notify_len`.
    bool wwi_notify = false;
    bool suppress_success_completion = false;
    std::uint64_t notify_len = 0;
    SimTime post_time = 0;  ///< for the completion-latency histogram
    /// Send completion already raised (or flushed) — dedups the race
    /// between a scheduled success completion and a Kill() flush.
    bool done = false;
  };
  using PacketPtr = std::shared_ptr<Packet>;

  /// PostSend body with an explicit per-WR HCA charge (the batch path
  /// passes the decomposed doorbell/per-WR costs).
  void PostSendCharged(const SendWorkRequest& wr, SimDuration wr_cost);
  void ScheduleTransmit(const PacketPtr& pkt, SimDuration wr_cost);
  void Transmit(const PacketPtr& pkt);
  /// Runs on the destination QP at arrival time; returns the status the
  /// transport acknowledgment reports back to the sender.
  WcStatus Deliver(const PacketPtr& pkt, QueuePair& sender);
  void CompleteSend(const PacketPtr& pkt, WcStatus status,
                    SimDuration extra_delay);
  WcStatus DeliverRead(const PacketPtr& pkt, QueuePair& sender);
  /// Raise a receive-side completion after the HCA delivery overhead.
  void PushRecvCompletionLater(const WorkCompletion& wc);
  /// Consume the next receive — from the SRQ when attached, else the
  /// private queue.  False means receiver-not-ready.
  bool TakeRecv(RecvWorkRequest* out);
  /// `wr` will never reach a live peer: count it if it is a WWI.
  void NoteUnreached(const SendWorkRequest& wr);

  static WcOpcode SendWcOpcode(Opcode op);

  Device* device_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  QueuePair* peer_ = nullptr;
  simnet::SimplexChannel* tx_channel_ = nullptr;
  SimTime hca_busy_until_ = 0;
  SharedReceiveQueue* srq_ = nullptr;
  std::deque<RecvWorkRequest> recv_queue_;
  std::unique_ptr<QueuePairCounters> own_counters_;  ///< bare queue pairs
  QueuePairCounters* counters_;
  bool killed_ = false;
  /// Send WRs with a completion still owed; Kill() flushes these.
  std::vector<PacketPtr> outstanding_;
  std::function<void(WcStatus)> error_handler_;
};

}  // namespace exs::verbs
