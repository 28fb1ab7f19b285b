// Pipelined request-response RPC over one EXS stream socket.
//
// The client owns the socket's event queue (handler mode), frames
// requests with dense per-client correlation ids, and keeps any number of
// calls outstanding up to Options::max_outstanding — responses match by
// correlation id, so the server may interleave work across pipelined
// requests freely (it does not today, but the protocol permits it).
//
// Deadlines are plain scheduler events with *lazy cancellation*: a
// response arriving first resolves the call and the timer later fires as
// a no-op, so no handle is kept.  Each request is encoded straight into a
// registered frame buffer taken from the client's free list; the frame
// goes back on its own send completion (completions on a striped socket
// may arrive out of order), so a Call in steady state neither allocates
// nor registers a send buffer.  Frames are allocated and registered on
// first use only, so their memory tracks this client's peak in-flight
// sends.  Every Send and Recv passes its buffer's region as the handle,
// so no call searches the device's address index.  The conservation rule
// (see ledger.hpp) is enforced at the single resolution point: whichever
// of {response, deadline, explicit cancel, local shed} reaches the call
// first records its outcome; everything after is counted stale.
//
// The client owns registered memory (its frames and receive buffer), so
// it must be destroyed before the Simulation that owns its device.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "exs/rpc/framing.hpp"
#include "exs/rpc/ledger.hpp"
#include "exs/socket.hpp"
#include "simnet/event_scheduler.hpp"

namespace exs::rpc {

struct RpcClientOptions {
  /// Deadline applied when Call passes kDefaultDeadline; 0 = no timeout.
  SimDuration default_deadline = 0;
  /// Calls in flight before new submissions are shed locally (recorded
  /// as refused without touching the wire) — the client-side admission
  /// bound of an open-loop workload.
  std::uint32_t max_outstanding = 256;
  /// Receive posting granularity; any value works (the frame decoder
  /// reassembles across completions).
  std::uint64_t recv_chunk_bytes = 2 * kKiB;
  /// Copy answered GET values into Result::value (benches that only
  /// time responses turn this off).
  bool deliver_values = true;
};

class RpcClient {
 public:
  /// Sentinel for "use RpcClientOptions::default_deadline".
  static constexpr SimDuration kDefaultDeadline = -1;

  struct Result {
    std::uint64_t correlation_id = 0;
    Outcome outcome = Outcome::kPending;
    /// Server status; meaningful only when a response resolved the call
    /// (outcome kAnswered, or kRefused with refused_remotely true).
    Status status = Status::kOk;
    bool refused_remotely = false;
    std::vector<std::uint8_t> value;  ///< GET payload on an OK answer
    SimDuration latency = 0;          ///< issue -> resolution
  };
  using ResponseFn = std::function<void(const Result&)>;

  /// The socket must already be connected.  The client installs itself as
  /// the socket's event handler and posts the first receive.
  RpcClient(Socket& socket, simnet::EventScheduler& scheduler,
            RpcClientOptions options = {});

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Issue a call; returns its correlation id.  `deadline` of
  /// kDefaultDeadline uses the option default; 0 disables the timeout for
  /// this call.  The callback (optional) fires exactly once, at the
  /// call's single resolution point.
  std::uint64_t Call(Op op, const std::string& key,
                     const std::uint8_t* value = nullptr,
                     std::uint32_t value_len = 0, ResponseFn on_done = nullptr,
                     SimDuration deadline = kDefaultDeadline);

  /// Abandon a pending call right now (outcome kTimedOut, counted under
  /// ledger().cancelled).  A response arriving later is stale.  No-op on
  /// an already-resolved call.
  void Cancel(std::uint64_t correlation_id);

  /// Orderly shutdown of the outgoing direction (no further Calls).
  void CloseSend();

  const RpcLedger& ledger() const { return ledger_; }
  RpcLedger& ledger() { return ledger_; }
  std::uint64_t pending_calls() const { return pending_.size(); }
  bool peer_closed() const { return peer_closed_; }
  /// Exact issue->answer durations of every answered call, for
  /// nearest-rank percentile reports (spans::Summarise).
  const std::vector<SimDuration>& answer_latencies() const {
    return answer_latencies_;
  }
  std::uint64_t response_bytes() const { return response_bytes_; }
  bool framing_failed() const { return framing_failed_; }
  /// Request frames whose Send has not completed, and frames free for
  /// reuse.  At quiescence every frame is free.
  std::size_t frames_sending() const { return sending_frames_.size(); }
  std::size_t frames_free() const { return free_frames_.size(); }

  /// Smallest frame buffer: every request of the bundled workload mixes
  /// (values up to 480 B) fits one.
  static constexpr std::size_t kMinFrameBytes = 512;

 private:
  struct PendingCall {
    SimTime issued_at = 0;
    ResponseFn on_done;
  };
  /// A request frame an in-flight Send still reads.
  struct SendingFrame {
    std::uint64_t send_id = 0;
    verbs::RegisteredBuffer frame;
  };

  void OnEvent(const Event& ev);
  void OnMessage(const MessageView& view);
  void OnDeadline(std::uint64_t correlation_id);
  void Resolve(std::uint64_t correlation_id, Outcome outcome, Status status,
               bool refused_remotely, const MessageView* view);
  void PostRecv();
  /// A free frame of at least `len` bytes; a new one, registered once,
  /// when none is large enough.
  verbs::RegisteredBuffer TakeFrame(std::size_t len);

  Socket* socket_;
  simnet::EventScheduler* scheduler_;
  RpcClientOptions options_;
  RpcLedger ledger_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;  ///< by corr id
  std::vector<verbs::RegisteredBuffer> free_frames_;
  std::vector<SendingFrame> sending_frames_;  ///< in send order
  FrameDecoder decoder_;
  verbs::RegisteredBuffer recv_buffer_;
  std::vector<SimDuration> answer_latencies_;
  std::uint64_t response_bytes_ = 0;
  bool recv_outstanding_ = false;
  bool peer_closed_ = false;
  bool close_requested_ = false;
  bool framing_failed_ = false;
};

}  // namespace exs::rpc
