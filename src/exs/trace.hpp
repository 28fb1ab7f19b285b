// Protocol tracing and runtime verification of the paper's lemmas.
//
// When enabled on a socket, every protocol-relevant action — ADVERTs sent,
// received, accepted and discarded; direct and indirect transfers posted
// and arriving; copies; ACKs; phase changes — is recorded with its
// timestamp and the live sequence/phase values.  The validators below then
// check the statements the paper *proves* (§IV-A) against what actually
// happened:
//
//   Lemma 1  — every ADVERT carries a direct (even) phase number;
//   Lemma 2  — between indirect arrivals, all ADVERTs carry one phase;
//   Lemma 3  — a direct sender phase implies the most recent transfer
//              was direct;
//   Lemma 4  — an ADVERT accepted while the sender is direct carries
//              exactly the sender's phase;
//   plus the monotonicity and sequence-continuity facts the proofs use.
//
// This is cheaper than it sounds and is exercised by randomized property
// tests: a protocol change that falsifies a lemma fails those sweeps even
// if no byte happens to be misdelivered in the sampled runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"

namespace exs {

enum class TraceEventType : std::uint8_t {
  // Sender-side (outgoing stream).
  kAdvertReceived,
  kAdvertAccepted,
  kAdvertDiscarded,
  kDirectPosted,
  kIndirectPosted,
  kSenderPhaseChanged,
  kAckReceived,
  // Receiver-side (incoming stream).
  kAdvertSent,
  kDirectArrived,
  kIndirectArrived,
  kCopyOut,
  kAckSent,
  kReceiverPhaseChanged,
  // Coalescing (appended so earlier numeric values — and with them any
  // recorded golden fingerprints — stay stable).
  kSendStaged,       ///< sender: a small send entered the staging buffer
  kCoalesceFlushed,  ///< sender: staged bytes merged into one queued WWI
                     ///< (len = merged bytes, msg_seq = member count,
                     ///<  msg_phase = CoalesceFlushReason)
  kAckPiggybacked,   ///< receiver: ACK count folded into an ADVERT
  kZeroLengthSend,   ///< sender: zero-length Submit (completes instantly)
  // Fatal-fault recovery (appended — earlier values stay stable).
  kTransportKilled,  ///< either half: the transport entered the error state
  kResumeTx,         ///< sender resumed: seq = delivered frontier it rewound
                     ///< to, len = frontier, msg_phase = resume phase
  kResumeRx,         ///< receiver resumed: seq = S_r at resume, len =
                     ///< delivered frontier, msg_phase = resume phase
};

const char* ToString(TraceEventType type);

/// Why a coalescing staging buffer was flushed; recorded in the msg_phase
/// field of kCoalesceFlushed events and counted per reason in the metrics
/// registry (tx.coalesce_flush_*).
enum class CoalesceFlushReason : std::uint8_t {
  kMaxBytes,     ///< staging buffer filled (or a stage would overflow it)
  kTimeout,      ///< Coalesce::max_delay expired
  kAdvert,       ///< an ADVERT arrived — merged bytes may now go direct
  kPhaseChange,  ///< the sender phase advanced with bytes still staged
  kClose,        ///< Close(): the SHUTDOWN must trail all staged data
  kOrdering,     ///< a non-eligible send arrived; staged bytes go first
};

const char* ToString(CoalesceFlushReason reason);

struct TraceEvent {
  SimTime time = 0;
  TraceEventType type = TraceEventType::kAdvertSent;
  /// Local sequence number (S_s or S_r) when the event was recorded.
  std::uint64_t seq = 0;
  /// Local phase (P_s or P_r) when the event was recorded.
  std::uint64_t phase = 0;
  /// Event payload: transfer/copy length, or the ADVERT's length.
  std::uint64_t len = 0;
  /// ADVERT events: the sequence number carried in the message.
  std::uint64_t msg_seq = 0;
  /// ADVERT events: the phase carried in the message.
  std::uint64_t msg_phase = 0;
};

class TraceLog {
 public:
  /// Tracing is off until enabled; recording to a disabled log is a no-op.
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Bound the log to `capacity` events (0 = unbounded, the default).
  /// Once full, further events are counted in dropped() and discarded, so
  /// the retained prefix stays contiguous — the lemma validators remain
  /// sound on a truncated log, they just see a shorter run.
  void SetCapacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_.value(); }

  /// Name the capacity-drop count `name` in `registry`, so truncation is
  /// visible in metrics snapshots (JSON/CSV), not only to code that polls
  /// dropped().  The log must then stay put while the registry is read.
  void BindDropCounter(metrics::Registry& registry, std::string_view name) {
    registry.Bind(name, "events", dropped_);
  }

  void Record(const TraceEvent& event) {
    if (!enabled_) return;
    if (capacity_ != 0 && events_.size() >= capacity_) {
      dropped_.Increment();
      return;
    }
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() {
    events_.clear();
    dropped_ = metrics::Counter{};
  }

  /// Human-readable dump (debugging aid and example output).
  std::string Format() const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  metrics::Counter dropped_;
  std::vector<TraceEvent> events_;
};

/// Outcome of checking traces against the paper's statements.  The lemma
/// validators below and every rule of the invariant checker
/// (exs/invariant_checker.hpp) report through this one type.  The lemma
/// validators record violations only; events_checked and dropped_events
/// are counted by the checker entry points that admit a log.
struct InvariantReport {
  std::vector<std::string> violations;
  /// Non-fatal caveats about the *scope* of the check — most importantly
  /// "this trace was truncated by its capacity, only the retained prefix
  /// was validated".  A run with warnings still passes ok(), but silent
  /// partial validation is exactly how bugs hide, so Summary() surfaces
  /// them and harnesses are expected to print it.
  std::vector<std::string> warnings;
  std::uint64_t events_checked = 0;
  std::uint64_t dropped_events = 0;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
  void Merge(const InvariantReport& other);
};

/// Record a rule broken at `ev`, formatted "t=<µs>us <event>: <what>".
void Violation(InvariantReport& report, const TraceEvent& ev,
               const std::string& what);

/// Validate a *sender-side* trace (the outgoing half of one socket).
InvariantReport ValidateSenderTrace(const std::vector<TraceEvent>& events);

/// Validate a *receiver-side* trace (the incoming half of one socket).
InvariantReport ValidateReceiverTrace(const std::vector<TraceEvent>& events);

/// Validate the pair: sender trace of one socket against the receiver
/// trace of its peer (cross-checks byte totals and phase agreement).
InvariantReport ValidateConnectionTraces(
    const std::vector<TraceEvent>& sender_events,
    const std::vector<TraceEvent>& receiver_events);

}  // namespace exs
