// Trace-replay invariant checker: the paper's safety theorem, validated
// against what actually happened on every run.
//
// The PR-1 lemma validators (exs/trace.hpp) check the statements of §IV-A
// event by event.  This layer builds on them with the *stateful* facts the
// safety proof rests on — reconstructed by replaying the TraceLog:
//
//   truncation    — a TraceLog that dropped events is refused outright
//                   (a partial trace can hide exactly the violation being
//                   hunted), with a diagnostic naming the remedy;
//   staleness     — an accepted ADVERT never carries a phase below the
//                   sender's (no stale-sequence acceptance, Fig. 8);
//   continuity    — posted/arrived/copied byte sequences advance by
//                   exactly the event's length, gap-free and overlap-free;
//   occupancy     — the intermediate buffer, replayed from indirect
//                   arrivals and copy-outs, never exceeds its capacity
//                   nor goes negative, and is *empty* at every ADVERT
//                   send and direct arrival — the observable form of
//                   "a direct transfer always lands at the head of the
//                   receive queue" (Theorem 1).
//
// CheckConnection() dispatches on socket type: SOCK_SEQPACKET traces are
// checked against the simpler §II-C rules (no phases, no indirect path,
// ordered loss-free ADVERT counters).
//
// TraceFingerprint() hashes every recorded field of a trace; the torture
// harness compares fingerprints across replays to prove byte-for-byte
// determinism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/spans.hpp"
#include "exs/rpc/ledger.hpp"
#include "exs/trace.hpp"
#include "exs/types.hpp"

namespace exs {

class MuxGroup;
class Socket;

struct InvariantCheckOptions {
  /// Capacity of the receiver's intermediate ring, for the occupancy
  /// bound.  0 disables the upper-bound check (occupancy is still
  /// replayed for the emptiness rules).
  std::uint64_t rx_ring_capacity = 0;
  /// Accept a truncated trace and check the retained prefix instead of
  /// reporting the truncation as a violation.  Off by default: silent
  /// partial validation is how real bugs slip through.
  bool allow_truncated = false;
  /// Rails the connection striped across (StreamOptions::rails after
  /// negotiation).  Above 1 the posted/arrived events carry
  /// (stripe_seq, rail) in their msg_seq/msg_phase fields and three extra
  /// rule sets activate: sender stripe numbering is dense, receiver
  /// processing follows the stripe order exactly, and each rail's arrival
  /// list is a prefix of what was posted on it.
  std::uint32_t rails = 1;
};

/// Check the sender half of a stream connection (a socket's tx_trace).
InvariantReport CheckStreamSenderTrace(const TraceLog& log,
                                       const InvariantCheckOptions& opts = {});

/// Check the receiver half of a stream connection (a socket's rx_trace).
InvariantReport CheckStreamReceiverTrace(
    const TraceLog& log, const InvariantCheckOptions& opts = {});

/// Check one stream direction end to end: the sender trace of one socket
/// against the receiver trace of its peer.
InvariantReport CheckStreamPair(const TraceLog& sender_log,
                                const TraceLog& receiver_log,
                                const InvariantCheckOptions& opts = {});

/// SOCK_SEQPACKET counterparts (§II-C rules).
InvariantReport CheckSeqPacketSenderTrace(
    const TraceLog& log, const InvariantCheckOptions& opts = {});
InvariantReport CheckSeqPacketReceiverTrace(
    const TraceLog& log, const InvariantCheckOptions& opts = {});
InvariantReport CheckSeqPacketPair(const TraceLog& sender_log,
                                   const TraceLog& receiver_log,
                                   const InvariantCheckOptions& opts = {});

/// Options for the engine's shared-pool conservation check.
struct PoolCheckOptions {
  /// Total bytes in the shared indirect slab all leases were carved from.
  /// 0 disables the aggregate bound (per-stream rules still apply).
  std::uint64_t pool_capacity_bytes = 0;
  /// Bytes of each per-stream ring lease.  0 disables the per-stream
  /// occupancy bound (conservation and non-negativity still apply).
  std::uint64_t lease_bytes = 0;
  /// Accept truncated traces (see InvariantCheckOptions::allow_truncated).
  bool allow_truncated = false;
};

/// Engine pool conservation: replay the receiver traces of every socket
/// leasing from one shared BufferPool and check that
///   (a) each stream's ring occupancy (indirect arrivals minus copy-outs)
///       never goes negative and never exceeds its lease, and
///   (b) the summed occupancy across all streams never exceeds the pool —
///       receiver memory really is O(pool), not O(streams).
/// Cross-log events are merged by timestamp with drains credited before
/// fills at equal times (the conservative order: it cannot manufacture a
/// false overshoot).
InvariantReport CheckPoolConservation(
    const std::vector<const TraceLog*>& receiver_logs,
    const PoolCheckOptions& opts = {});

/// Check both directions of a connected socket pair.  Requires tracing to
/// have been enabled on both sockets (reported as a violation otherwise);
/// ring capacities are taken from the sockets themselves.  Dispatches on
/// the sockets' type.  For stream sockets, additionally audits hot-path
/// batching conservation per send rail from verbs-layer ground truth:
/// summed SGE lengths equal wire payload for every posted WR, batched-WR
/// and doorbell counts balance, and no WR sits behind an un-rung doorbell
/// at quiescence (docs/PROTOCOL.md §14).
InvariantReport CheckConnection(Socket& a, Socket& b);

/// Shared-QP multiplexing conservation (exs/mux.hpp), checked on a
/// *quiescent* connected group pair — call only when no messages are in
/// flight (the simulator's event queue drained):
///   (a) every data WWI one group posted is accounted at its peer as
///       delivered, epoch-stale, or orphaned — nothing vanishes inside the
///       mux layer (both directions);
///   (b) per-stream continuity: for every live stream pair in the same
///       epoch, the sender's tx_seq equals the receiver's rx_expect (the
///       shared QP's FIFO preserved each stream's subsequence), and no
///       data WWIs remain outstanding;
///   (c) per-slot §II-B credit conservation across the mux layer: each
///       side's view of its peer slot's credits plus the credits the peer
///       still owes equals the slot's pre-posted pool — multiplexing
///       borrows the window, it never mints or leaks credits.
InvariantReport CheckMuxGroupPair(const MuxGroup& a, const MuxGroup& b);

/// Stage-attribution conservation (causal chunk tracing, common/spans.hpp):
/// every delivered chunk record must carry a complete, monotonically
/// ordered set of stage timestamps, and the seven stage durations must sum
/// to the end-to-end latency within `slack_ps` (one engine tick quantum in
/// engine-driven runs, 0 elsewhere).  The stages partition [submit,
/// deliver] by construction, so any discrepancy means an instrumentation
/// site was skipped or stamped out of order — the observability analogue
/// of the byte-continuity rules above.
InvariantReport CheckSpanConservation(const spans::SpanCollector& collector,
                                      SimDuration slack_ps = 0);

/// RPC request/response conservation (src/exs/rpc/), audited at
/// quiescence over the clients' ledgers and (optionally) the server's
/// counters:
///   (a) exactly-one-outcome: every issued request carries exactly one
///       terminal outcome — answered, timed out, or refused; a pending
///       request at quiescence is a *lost* request, and an outcome
///       recorded twice (even agreeing) is a double resolution — the
///       ledger counts attempts precisely so forged duplicates convict;
///   (b) wire conservation against the server: requests received equal
///       requests issued minus the ones shed client-side before touching
///       the wire, and responses sent equal the responses the clients
///       accounted — answered + remotely-refused + stale (a post-timeout
///       answer is counted, never re-resolved);
///   (c) the server's own split holds: responses == answered + refused.
InvariantReport CheckRpcConservation(
    const std::vector<const rpc::RpcLedger*>& clients,
    const rpc::RpcServerCounters* server = nullptr);

/// Order-sensitive FNV-1a hash over every recorded field of the trace.
/// Two runs with identical protocol behaviour produce identical
/// fingerprints — the determinism witness used by the replay harness.
/// (No addresses are traced, so fingerprints are stable across processes.)
std::uint64_t TraceFingerprint(const TraceLog& log);

/// Combined fingerprint of all four logs of a connected pair.
std::uint64_t ConnectionFingerprint(const Socket& a, const Socket& b);

}  // namespace exs
