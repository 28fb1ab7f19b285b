#include "exs/trace.hpp"

#include <sstream>

#include "exs/types.hpp"

namespace exs {

const char* ToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kAdvertReceived: return "advert-received";
    case TraceEventType::kAdvertAccepted: return "advert-accepted";
    case TraceEventType::kAdvertDiscarded: return "advert-discarded";
    case TraceEventType::kDirectPosted: return "direct-posted";
    case TraceEventType::kIndirectPosted: return "indirect-posted";
    case TraceEventType::kSenderPhaseChanged: return "sender-phase";
    case TraceEventType::kAckReceived: return "ack-received";
    case TraceEventType::kAdvertSent: return "advert-sent";
    case TraceEventType::kDirectArrived: return "direct-arrived";
    case TraceEventType::kIndirectArrived: return "indirect-arrived";
    case TraceEventType::kCopyOut: return "copy-out";
    case TraceEventType::kAckSent: return "ack-sent";
    case TraceEventType::kReceiverPhaseChanged: return "receiver-phase";
    case TraceEventType::kSendStaged: return "send-staged";
    case TraceEventType::kCoalesceFlushed: return "coalesce-flushed";
    case TraceEventType::kAckPiggybacked: return "ack-piggybacked";
    case TraceEventType::kZeroLengthSend: return "zero-length-send";
    case TraceEventType::kTransportKilled: return "transport-killed";
    case TraceEventType::kResumeTx: return "resume-tx";
    case TraceEventType::kResumeRx: return "resume-rx";
  }
  return "?";
}

const char* ToString(CoalesceFlushReason reason) {
  switch (reason) {
    case CoalesceFlushReason::kMaxBytes: return "max-bytes";
    case CoalesceFlushReason::kTimeout: return "timeout";
    case CoalesceFlushReason::kAdvert: return "advert";
    case CoalesceFlushReason::kPhaseChange: return "phase-change";
    case CoalesceFlushReason::kClose: return "close";
    case CoalesceFlushReason::kOrdering: return "ordering";
  }
  return "?";
}

std::string TraceLog::Format() const {
  std::ostringstream oss;
  for (const auto& ev : events_) {
    oss << ToMicroseconds(ev.time) << "us " << ToString(ev.type)
        << " seq=" << ev.seq << " phase=" << ev.phase;
    if (ev.len) oss << " len=" << ev.len;
    switch (ev.type) {
      case TraceEventType::kAdvertSent:
      case TraceEventType::kAdvertReceived:
      case TraceEventType::kAdvertAccepted:
      case TraceEventType::kAdvertDiscarded:
        oss << " advert(seq=" << ev.msg_seq << " phase=" << ev.msg_phase
            << ")";
        break;
      default:
        break;
    }
    oss << "\n";
  }
  return oss.str();
}

std::string InvariantReport::Summary() const {
  std::ostringstream oss;
  if (violations.empty()) {
    oss << "invariants hold (" << events_checked << " events checked)";
  } else {
    oss << violations.size() << " invariant violation(s) over "
        << events_checked << " events:";
    for (const auto& v : violations) oss << "\n  " << v;
  }
  for (const auto& w : warnings) oss << "\n  warning: " << w;
  return oss.str();
}

void InvariantReport::Merge(const InvariantReport& other) {
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  warnings.insert(warnings.end(), other.warnings.begin(),
                  other.warnings.end());
  events_checked += other.events_checked;
  dropped_events += other.dropped_events;
}

void Violation(InvariantReport& report, const TraceEvent& ev,
               const std::string& what) {
  std::ostringstream oss;
  oss << "t=" << ToMicroseconds(ev.time) << "us " << ToString(ev.type) << ": "
      << what;
  report.violations.push_back(oss.str());
}

InvariantReport ValidateSenderTrace(const std::vector<TraceEvent>& events) {
  InvariantReport result;
  std::uint64_t last_phase = 0;
  std::uint64_t last_seq = 0;
  bool sent_anything = false;
  bool last_transfer_indirect = false;

  for (const auto& ev : events) {
    if (ev.type == TraceEventType::kResumeTx) {
      // Resume marker: the sender legitimately rewound its sequence to the
      // receiver's delivered frontier to retransmit the lost suffix.  The
      // monotonicity baseline restarts here; phase never rewinds, so the
      // phase baseline carries forward unchanged.
      if (ev.phase < last_phase) {
        Violation(result, ev, "sender phase went backwards at resume");
      }
      last_phase = ev.phase;
      last_seq = ev.seq;
      last_transfer_indirect = false;
      continue;
    }
    // Phase and sequence monotonicity — the foundation of every proof.
    if (ev.phase < last_phase) {
      Violation(result, ev, "sender phase went backwards");
    }
    if (ev.seq < last_seq) {
      Violation(result, ev, "sender sequence went backwards");
    }
    last_phase = ev.phase;
    last_seq = ev.seq;

    switch (ev.type) {
      case TraceEventType::kAdvertReceived:
      case TraceEventType::kAdvertAccepted:
      case TraceEventType::kAdvertDiscarded:
        // Lemma 1, observed at the sender: ADVERTs always carry a direct
        // phase number.
        if (!PhaseIsDirect(ev.msg_phase)) {
          Violation(result, ev, "Lemma 1: ADVERT with indirect phase");
        }
        if (ev.type == TraceEventType::kAdvertAccepted) {
          // Lemma 4 / Theorem 1 acceptance conditions: an ADVERT matched
          // while the sender was in a direct phase carries exactly that
          // phase; one that ends an indirect phase carries the exact
          // sequence number.  (Acceptance events record the sender state
          // *before* the phase is advanced.)
          if (PhaseIsDirect(ev.phase) && ev.msg_phase != ev.phase) {
            Violation(result, ev,
                      "Lemma 4: accepted ADVERT phase differs from direct "
                      "sender phase");
          }
          if (PhaseIsIndirect(ev.phase) && ev.msg_seq != ev.seq) {
            Violation(result, ev,
                      "Theorem 1: ADVERT ending an indirect phase must "
                      "carry the exact sequence number");
          }
          // The next transfer of the new direct phase posts immediately;
          // Lemma 3's "most recent transfer" bookkeeping rolls forward.
          last_transfer_indirect = false;
        }
        break;
      case TraceEventType::kDirectPosted:
        // Lemma 3's contrapositive direction: a direct transfer may only
        // be posted in a direct phase.
        if (!PhaseIsDirect(ev.phase)) {
          Violation(result, ev, "direct transfer posted in indirect phase");
        }
        sent_anything = true;
        last_transfer_indirect = false;
        break;
      case TraceEventType::kIndirectPosted:
        if (!PhaseIsIndirect(ev.phase)) {
          Violation(result, ev,
                    "indirect transfer posted in direct phase");
        }
        sent_anything = true;
        last_transfer_indirect = true;
        break;
      case TraceEventType::kSenderPhaseChanged:
        // Lemma 3: if the new phase is direct, the most recent transfer
        // (if any) was... the lemma as stated concerns steady state; at
        // the moment of a phase change *to* direct no transfer of the new
        // phase exists yet, so the meaningful check is the dual: a change
        // to an indirect phase happens exactly when an indirect transfer
        // is about to be posted, checked via the posting events above.
        break;
      default:
        break;
    }

    // Lemma 3, checked continuously: whenever the sender's phase is
    // direct and it has sent something, the most recent transfer must be
    // direct.
    if (PhaseIsDirect(ev.phase) && sent_anything && last_transfer_indirect) {
      Violation(result, ev,
                "Lemma 3: direct phase but most recent transfer indirect");
    }
  }
  return result;
}

InvariantReport ValidateReceiverTrace(
    const std::vector<TraceEvent>& events) {
  InvariantReport result;
  std::uint64_t last_phase = 0;
  std::uint64_t last_seq = 0;
  bool advert_seen_since_indirect = false;
  std::uint64_t advert_phase_since_indirect = 0;
  std::uint64_t last_advert_seq = 0;
  bool have_last_advert_seq = false;

  for (const auto& ev : events) {
    if (ev.type == TraceEventType::kResumeRx) {
      // Resume marker: post-resume ADVERTs restart at the delivered
      // frontier, which is at or below the receiver's pre-kill estimate
      // (S'_r collapses back to S_r), so the ADVERT-sequence baseline and
      // Lemma 2's between-indirect-arrivals window restart here.  The
      // delivered sequence itself (S_r) never rewinds — that check runs
      // straight through the marker.
      if (ev.phase < last_phase) {
        Violation(result, ev, "receiver phase went backwards at resume");
      }
      if (ev.seq < last_seq) {
        Violation(result, ev, "receiver sequence went backwards at resume");
      }
      last_phase = ev.phase;
      last_seq = ev.seq;
      have_last_advert_seq = false;
      advert_seen_since_indirect = false;
      continue;
    }
    if (ev.phase < last_phase) {
      Violation(result, ev, "receiver phase went backwards");
    }
    if (ev.seq < last_seq) {
      Violation(result, ev, "receiver sequence went backwards");
    }
    last_phase = ev.phase;
    last_seq = ev.seq;

    switch (ev.type) {
      case TraceEventType::kAdvertSent:
        // Lemma 1 at the source.
        if (!PhaseIsDirect(ev.msg_phase)) {
          Violation(result, ev, "Lemma 1: ADVERT sent with indirect phase");
        }
        if (ev.msg_phase != ev.phase) {
          Violation(result, ev,
                    "ADVERT phase differs from receiver phase at send");
        }
        // Lemma 2: all ADVERTs between two indirect arrivals carry the
        // same phase number.
        if (advert_seen_since_indirect &&
            ev.msg_phase != advert_phase_since_indirect) {
          Violation(result, ev,
                    "Lemma 2: ADVERT phase changed without an intervening "
                    "indirect transfer");
        }
        advert_seen_since_indirect = true;
        advert_phase_since_indirect = ev.msg_phase;
        // Proof of Theorem 1 (b3/b4): sequence numbers within a sequence
        // of ADVERTs are monotonically increasing.
        if (have_last_advert_seq && ev.msg_seq <= last_advert_seq) {
          Violation(result, ev,
                    "ADVERT sequence numbers not strictly increasing");
        }
        last_advert_seq = ev.msg_seq;
        have_last_advert_seq = true;
        break;
      case TraceEventType::kIndirectArrived:
        if (!PhaseIsIndirect(ev.phase)) {
          Violation(result, ev,
                    "indirect arrival left receiver in a direct phase");
        }
        advert_seen_since_indirect = false;
        break;
      case TraceEventType::kDirectArrived:
        // The safety property's observable: direct data is only accepted
        // in a direct phase (the in-buffer check lives in StreamRx).
        if (!PhaseIsDirect(ev.phase)) {
          Violation(result, ev, "direct arrival in an indirect phase");
        }
        break;
      default:
        break;
    }
  }
  return result;
}

InvariantReport ValidateConnectionTraces(
    const std::vector<TraceEvent>& sender_events,
    const std::vector<TraceEvent>& receiver_events) {
  InvariantReport result = ValidateSenderTrace(sender_events);
  result.Merge(ValidateReceiverTrace(receiver_events));

  // Conservation: bytes posted by kind equal bytes arriving by kind.  A
  // run with a transport kill breaks this per-kind identity legitimately —
  // chunks in flight at the kill were posted but never arrive, and their
  // retransmission may ride the other kind — so the cross-check is skipped;
  // the receiver's unbroken sequence continuity (checked above and in the
  // invariant checker) is what guarantees the delivered stream is gap-free
  // and duplicate-free.
  for (const auto& ev : sender_events) {
    if (ev.type == TraceEventType::kResumeTx ||
        ev.type == TraceEventType::kTransportKilled) {
      return result;
    }
  }
  for (const auto& ev : receiver_events) {
    if (ev.type == TraceEventType::kResumeRx ||
        ev.type == TraceEventType::kTransportKilled) {
      return result;
    }
  }
  std::uint64_t direct_posted = 0, indirect_posted = 0;
  for (const auto& ev : sender_events) {
    if (ev.type == TraceEventType::kDirectPosted) direct_posted += ev.len;
    if (ev.type == TraceEventType::kIndirectPosted) indirect_posted += ev.len;
  }
  std::uint64_t direct_arrived = 0, indirect_arrived = 0;
  for (const auto& ev : receiver_events) {
    if (ev.type == TraceEventType::kDirectArrived) direct_arrived += ev.len;
    if (ev.type == TraceEventType::kIndirectArrived)
      indirect_arrived += ev.len;
  }
  if (direct_posted != direct_arrived) {
    result.violations.push_back("direct byte conservation failed: posted " +
                                std::to_string(direct_posted) +
                                ", arrived " +
                                std::to_string(direct_arrived));
  }
  if (indirect_posted != indirect_arrived) {
    result.violations.push_back(
        "indirect byte conservation failed: posted " +
        std::to_string(indirect_posted) + ", arrived " +
        std::to_string(indirect_arrived));
  }
  return result;
}

}  // namespace exs
