// Work-request / work-completion vocabulary of the software verbs layer.
//
// This mirrors the OFA verbs objects the paper's library is written
// against: send and receive work requests posted to a queue pair, completed
// asynchronously through completion queues.  Differences from the hardware
// API are intentional simplifications and are documented in DESIGN.md
// (bounded gather list of kMaxSge entries per send work request, a single
// SGE per receive; local misuse throws instead of returning errno; remote
// failures still surface as error completions).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

namespace exs::verbs {

class QueuePair;

/// Bytes of link/transport framing charged per message on the wire
/// (roughly LRH + BTH + ICRC/VCRC for InfiniBand).
inline constexpr std::uint64_t kWireHeaderBytes = 30;

/// Extra header bytes charged when a message carries a stripe sequence
/// number (an extended header word, like the 8-byte ExtH InfiniBand uses
/// for optional transport extensions).
inline constexpr std::uint64_t kStripeHeaderBytes = 8;

/// Extra header bytes charged when a message carries stream-multiplexing
/// metadata (stream id + per-stream delivery sequence + epoch) so many
/// streams can share one queue pair.  Same extended-header word cost as
/// striping; a message may carry both extensions and pays for each.
inline constexpr std::uint64_t kMuxHeaderBytes = 8;

/// What a message carries beyond its immediate: each optional extension
/// of the upper layers, in one value that rides the send work request and
/// is surfaced verbatim in the receive-side completion.
struct ExtHeader {
  /// Per-stream delivery sequence number (multi-rail striping).
  std::uint64_t stripe_seq = 0;
  /// Stream multiplexing (shared-QP streams): the message's position in
  /// its stream's delivery sequence, the stream (which of the QP's
  /// streams it belongs to) and the stream's reconnect epoch (stale
  /// in-flight messages from before a virtual kill are dropped by epoch).
  std::uint64_t mux_seq = 0;
  /// Opaque causal-tracing correlation id (common/spans.hpp); 0 = not
  /// traced.  Pure metadata: it costs no wire bytes, so enabling tracing
  /// cannot change timing.
  std::uint64_t trace_ctx = 0;
  std::uint32_t mux_stream = 0;
  std::uint8_t mux_epoch = 0;
  bool has_stripe_seq = false;
  bool has_mux = false;

  /// Extended-header bytes on the wire: one word per present extension.
  std::uint64_t WireBytes() const {
    return (has_stripe_seq ? kStripeHeaderBytes : 0) +
           (has_mux ? kMuxHeaderBytes : 0);
  }
};

enum class Opcode : std::uint8_t {
  kSend,              ///< channel semantics; consumes a receive at the peer
  kRdmaWrite,         ///< memory semantics; peer passive
  kRdmaWriteWithImm,  ///< RDMA WRITE that also consumes a receive ("WWI")
  kRdmaRead,          ///< fetch from peer memory; peer passive
};

/// Completion opcodes distinguish send-side from receive-side completions.
enum class WcOpcode : std::uint8_t {
  kSend,
  kRdmaWrite,
  kRdmaWriteWithImm,
  kRdmaRead,
  kRecv,              ///< a SEND landed in our posted receive
  kRecvRdmaWithImm,   ///< a WWI consumed our posted receive
};

enum class WcStatus : std::uint8_t {
  kSuccess,
  kRnrError,          ///< message arrived with no posted receive
  kLocalLengthError,  ///< payload larger than the posted receive buffer
  kRemoteAccessError, ///< RDMA address/rkey check failed at the peer
  // Fatal transport states (QueuePair::Kill).  Appended only — the values
  // above are baked into recorded artefacts.
  kWrFlushError,       ///< WR flushed: the queue pair entered the error state
  kRetryExceededError, ///< transport retries exhausted against a dead peer
};

const char* ToString(WcStatus status);
const char* ToString(WcOpcode opcode);

/// Scatter/gather element.  `addr` is a real pointer into this process,
/// which plays the role of registered user virtual memory.
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

/// Gather-list bound per send work request (ibv_device_attr.max_sge
/// analogue).  Compile-time checked by SendWorkRequest::SetSgeList and
/// runtime-checked by AddSge, mirroring real verb builders that refuse a
/// longer list rather than silently truncating it.
inline constexpr std::uint32_t kMaxSge = 8;

struct SendWorkRequest {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  /// First gather element.  Most requests stop here: `num_sge` defaults to
  /// 1 and plain `wr.sge = {...}` assignment keeps its historical meaning.
  Sge sge;
  /// Gather elements 2..num_sge live here (index i-1 for element i).
  std::array<Sge, kMaxSge - 1> extra_sge{};
  std::uint32_t num_sge = 1;

  /// Append one gather element.  Throws on overflow — a list longer than
  /// kMaxSge is a local misuse, like posting to the wrong QP.
  void AddSge(const Sge& entry) {
    if (num_sge >= kMaxSge) {
      throw std::invalid_argument("SendWorkRequest: gather list exceeds "
                                  "kMaxSge entries");
    }
    extra_sge[num_sge - 1] = entry;
    ++num_sge;
  }

  /// Install a whole gather list at once; arity is checked at compile time
  /// (the rdmalib2 builder idiom).
  template <typename... Rest>
  void SetSgeList(const Sge& head, const Rest&... rest) {
    static_assert(1 + sizeof...(rest) <= kMaxSge,
                  "gather list exceeds kMaxSge entries");
    sge = head;
    num_sge = 1;
    (AddSge(rest), ...);
  }

  const Sge& sge_at(std::uint32_t i) const {
    return i == 0 ? sge : extra_sge[i - 1];
  }

  /// Total gathered payload bytes — what lands contiguously at the peer.
  std::uint64_t total_length() const {
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < num_sge; ++i) total += sge_at(i).length;
    return total;
  }

  /// Copy the payload into the work request at post time instead of
  /// reading registered memory during the transfer; only valid up to the
  /// device's max_inline.  No lkey check is performed for inline sends.
  bool inline_data = false;

  bool has_imm = false;
  std::uint32_t imm = 0;
  ExtHeader ext{};

  /// RDMA opcodes address peer memory through these.
  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;
};

struct RecvWorkRequest {
  std::uint64_t wr_id = 0;
  Sge sge;
};

struct WorkCompletion {
  std::uint64_t wr_id = 0;
  WcOpcode opcode = WcOpcode::kSend;
  WcStatus status = WcStatus::kSuccess;
  /// Bytes placed by the completed operation (receive-side and RDMA READ).
  std::uint32_t byte_len = 0;
  bool has_imm = false;
  std::uint32_t imm = 0;
  /// The originating send work request's extensions.
  ExtHeader ext{};
  QueuePair* qp = nullptr;
};

}  // namespace exs::verbs
