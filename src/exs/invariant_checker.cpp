#include "exs/invariant_checker.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "exs/mux.hpp"
#include "exs/socket.hpp"

namespace exs {

namespace {

/// Truncation / not-enabled gate shared by every entry point.  Returns
/// false when the log cannot be meaningfully checked at all.
bool AdmitLog(const TraceLog& log, const InvariantCheckOptions& opts,
              const char* label, InvariantReport& report) {
  if (!log.enabled()) {
    report.violations.push_back(std::string(label) +
                                ": tracing was not enabled — nothing to "
                                "check (call Socket::EnableTracing)");
    return false;
  }
  report.events_checked += log.events().size();
  report.dropped_events += log.dropped();
  if (log.dropped() > 0 && !opts.allow_truncated) {
    std::ostringstream oss;
    oss << label << ": trace truncated (" << log.dropped()
        << " events dropped): widen the TraceLog capacity "
           "(Socket::EnableTracing / TraceLog::SetCapacity) — a partial "
           "trace cannot prove the safety theorem";
    report.violations.push_back(oss.str());
  } else if (log.dropped() > 0) {
    // Tolerated truncation must still be *loud*: only the retained prefix
    // was validated, so a clean report proves less than it appears to.
    std::ostringstream oss;
    oss << label << ": trace truncated (" << log.dropped()
        << " events dropped) — only the retained prefix of "
        << log.events().size() << " events was checked";
    report.warnings.push_back(oss.str());
  }
  return true;
}

/// True when the trace records a transport kill or a resume — the recovery
/// path (docs/PROTOCOL.md §12).  Several rules change shape across a
/// resume: posting re-bases at the delivered frontier, stripe numbering
/// restarts at zero, and the rail count may shrink (failover), so the
/// static rail bound and the cross-log rail/ACK conservation no longer
/// apply to the whole trace.
bool HasRecoveryMarkers(const std::vector<TraceEvent>& events) {
  for (const auto& ev : events) {
    switch (ev.type) {
      case TraceEventType::kTransportKilled:
      case TraceEventType::kResumeTx:
      case TraceEventType::kResumeRx:
        return true;
      default:
        break;
    }
  }
  return false;
}

/// Checker-specific sender rules beyond the PR-1 lemma validators:
/// ADVERT-freshness at acceptance and posted-byte continuity, plus the
/// striping numbering rules when the connection ran multi-rail.
InvariantReport StreamSenderExtras(const std::vector<TraceEvent>& events,
                                   const InvariantCheckOptions& opts) {
  InvariantReport report;
  const bool resumed = HasRecoveryMarkers(events);
  std::uint64_t cum = 0;  // bytes posted so far (direct + indirect)
  std::uint64_t next_stripe = 0;  // expected next delivery sequence
  std::uint64_t staged_bytes = 0;    // staged since the last coalesce flush
  std::uint64_t staged_members = 0;  // sends staged since the last flush
  for (const auto& ev : events) {
    switch (ev.type) {
      case TraceEventType::kResumeTx:
        // The sender re-based on its peer's delivered frontier: posting
        // restarts from the marker's seq (the unacknowledged suffix is
        // retransmitted from there) and stripe numbering restarts at zero
        // on the surviving rails.
        cum = ev.seq;
        next_stripe = 0;
        break;
      case TraceEventType::kSendStaged:
        // Coalescing conservation, first half: every staged byte is
        // accounted until the flush that emits it.
        if (ev.len == 0) {
          Violation(report, ev, "zero-length send staged for coalescing");
        }
        staged_bytes += ev.len;
        ++staged_members;
        break;
      case TraceEventType::kCoalesceFlushed:
        // Second half: a flush emits exactly the bytes (and the member
        // count) staged since the previous flush — the merged WWI neither
        // drops nor invents stream bytes.
        if (ev.len == 0) {
          Violation(report, ev, "coalesce flush with no staged bytes");
        }
        if (ev.len != staged_bytes) {
          Violation(report, ev,
                    "coalesce flush length " + std::to_string(ev.len) +
                        " disagrees with the " + std::to_string(staged_bytes) +
                        " byte(s) staged since the last flush");
        }
        if (ev.msg_seq != staged_members) {
          Violation(report, ev,
                    "coalesce flush member count " +
                        std::to_string(ev.msg_seq) + " disagrees with the " +
                        std::to_string(staged_members) + " send(s) staged");
        }
        staged_bytes = 0;
        staged_members = 0;
        break;
      case TraceEventType::kAdvertAccepted:
        // Freshness (Fig. 8): an accepted ADVERT never carries a phase
        // below the sender's.  The direct-phase equality and the
        // indirect-phase exact-sequence facts are Lemma 4 / Theorem 1 in
        // the base validators; this catches the plain stale case those
        // formulations assume away.
        if (ev.msg_phase < ev.phase) {
          Violation(report, ev,
                    "stale ADVERT accepted: message phase " +
                        std::to_string(ev.msg_phase) +
                        " below sender phase " + std::to_string(ev.phase));
        }
        break;
      case TraceEventType::kDirectPosted:
      case TraceEventType::kIndirectPosted:
        // Posting events record S_s *before* it advances, so a gap-free
        // byte stream shows ev.seq == cumulative posted bytes.
        if (ev.len == 0) {
          Violation(report, ev, "zero-length transfer posted");
        }
        if (ev.seq != cum) {
          Violation(report, ev,
                    "posted byte sequence not contiguous: event at seq " +
                        std::to_string(ev.seq) + ", expected " +
                        std::to_string(cum));
        }
        cum += ev.len;
        if (opts.rails > 1) {
          // Striping: delivery sequence numbers are handed out densely in
          // posting order, and every chunk names a real rail.
          if (ev.msg_seq != next_stripe) {
            Violation(report, ev,
                      "stripe sequence gap at posting: got " +
                          std::to_string(ev.msg_seq) + ", expected " +
                          std::to_string(next_stripe));
          }
          next_stripe = ev.msg_seq + 1;
          // The static rail bound only holds on a connection whose rail
          // count never changed; failover shrinks it mid-trace.
          if (!resumed && ev.msg_phase >= opts.rails) {
            Violation(report, ev,
                      "chunk posted on rail " + std::to_string(ev.msg_phase) +
                          " of a " + std::to_string(opts.rails) +
                          "-rail connection");
          }
        }
        break;
      default:
        break;
    }
  }
  return report;
}

/// Checker-specific receiver rules: consumed-byte continuity and the
/// replayed intermediate-buffer occupancy with the safety-theorem
/// emptiness conditions.  On striped connections, additionally: arrivals
/// are *processed* in exact stripe order — the reassembly guarantee that
/// makes the rest of the receiver rules oblivious to rail choice.
InvariantReport StreamReceiverExtras(const std::vector<TraceEvent>& events,
                                     const InvariantCheckOptions& opts) {
  InvariantReport report;
  const bool resumed = HasRecoveryMarkers(events);
  std::uint64_t cum = 0;        // bytes landed in user memory so far
  std::int64_t occupancy = 0;   // replayed intermediate-buffer bytes
  std::uint64_t next_stripe = 0;  // expected next processed stripe seq
  for (const auto& ev : events) {
    if (ev.type == TraceEventType::kResumeRx) {
      // Stripe reassembly restarts on the surviving rails.  The delivered
      // byte counter `cum` deliberately runs through unreset: a resumed
      // stream must stay gap-free and duplicate-free in user memory, so
      // the continuity rules below hold across the marker unchanged.
      next_stripe = 0;
      continue;
    }
    if (opts.rails > 1 && (ev.type == TraceEventType::kDirectArrived ||
                           ev.type == TraceEventType::kIndirectArrived)) {
      if (ev.msg_seq != next_stripe) {
        Violation(report, ev,
                  "stripe reassembly out of order: processed stripe " +
                      std::to_string(ev.msg_seq) + ", expected " +
                      std::to_string(next_stripe));
      }
      next_stripe = ev.msg_seq + 1;
      if (!resumed && ev.msg_phase >= opts.rails) {
        Violation(report, ev,
                  "chunk arrived on rail " + std::to_string(ev.msg_phase) +
                      " of a " + std::to_string(opts.rails) +
                      "-rail connection");
      }
    }
    switch (ev.type) {
      case TraceEventType::kDirectArrived:
      case TraceEventType::kCopyOut:
        // Arrival/copy events record S_r *after* it advances, so a
        // gap-free stream shows ev.seq == cumulative + this event.
        if (ev.len == 0) {
          Violation(report, ev, "zero-length arrival or copy");
        }
        if (ev.seq != cum + ev.len) {
          Violation(report, ev,
                    "received byte sequence not contiguous: event ends at "
                    "seq " +
                        std::to_string(ev.seq) + ", expected " +
                        std::to_string(cum + ev.len));
        }
        cum = ev.seq;
        break;
      default:
        break;
    }

    switch (ev.type) {
      case TraceEventType::kIndirectArrived:
        occupancy += static_cast<std::int64_t>(ev.len);
        if (opts.rx_ring_capacity != 0 &&
            occupancy >
                static_cast<std::int64_t>(opts.rx_ring_capacity)) {
          Violation(report, ev,
                    "intermediate buffer overflow: occupancy " +
                        std::to_string(occupancy) + " exceeds capacity " +
                        std::to_string(opts.rx_ring_capacity));
        }
        break;
      case TraceEventType::kCopyOut:
        occupancy -= static_cast<std::int64_t>(ev.len);
        if (occupancy < 0) {
          Violation(report, ev,
                    "copy-out of more bytes than the buffer holds "
                    "(occupancy " +
                        std::to_string(occupancy) + ")");
        }
        break;
      case TraceEventType::kAdvertSent:
        // Fig. 3 gate, observable form: no ADVERT leaves while buffered
        // bytes remain.
        if (occupancy != 0) {
          Violation(report, ev,
                    "ADVERT sent while the intermediate buffer holds " +
                        std::to_string(occupancy) +
                        " byte(s) — Fig. 3 gate violated");
        }
        break;
      case TraceEventType::kAckPiggybacked:
        // A piggybacked ACK rides an ADVERT, so it inherits the ADVERT's
        // gate: the buffer must be empty when it leaves.
        if (occupancy != 0) {
          Violation(report, ev,
                    "ACK piggybacked onto an ADVERT while the intermediate "
                    "buffer holds " +
                        std::to_string(occupancy) + " byte(s)");
        }
        break;
      case TraceEventType::kDirectArrived:
        // Theorem 1, observable form: a direct transfer lands only when
        // nothing is buffered ahead of it.
        if (occupancy != 0) {
          Violation(report, ev,
                    "direct transfer arrived while the intermediate buffer "
                    "holds " +
                        std::to_string(occupancy) +
                        " byte(s) — safety theorem violated");
        }
        break;
      default:
        break;
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// SOCK_SEQPACKET rules (§II-C): no phases, no indirect path, and ADVERT
// counters must arrive gap-free in order (RC is reliable and in-order).
// ---------------------------------------------------------------------------

bool IsReceiverSideType(TraceEventType type) {
  switch (type) {
    case TraceEventType::kAdvertSent:
    case TraceEventType::kDirectArrived:
    case TraceEventType::kIndirectArrived:
    case TraceEventType::kCopyOut:
    case TraceEventType::kAckSent:
    case TraceEventType::kReceiverPhaseChanged:
      return true;
    default:
      return false;
  }
}

InvariantReport SeqPacketCommon(const std::vector<TraceEvent>& events,
                                bool receiver_side) {
  InvariantReport report;
  std::uint64_t cum = 0;
  std::uint64_t last_advert_counter = 0;
  for (const auto& ev : events) {
    if (ev.phase != 0) {
      Violation(report, ev, "SEQPACKET event carries a nonzero phase");
    }
    if (IsReceiverSideType(ev.type) != receiver_side) {
      Violation(report, ev, "event from the wrong connection half");
    }
    switch (ev.type) {
      case TraceEventType::kIndirectArrived:
      case TraceEventType::kIndirectPosted:
      case TraceEventType::kCopyOut:
        Violation(report, ev,
                  "stream-only event in a SEQPACKET trace — message mode "
                  "has no indirect path");
        break;
      case TraceEventType::kAdvertSent:
      case TraceEventType::kAdvertReceived:
        // Counters start at 1 and advance by exactly one: RC delivery is
        // reliable and in-order, so any gap or repeat is a protocol bug.
        if (ev.msg_seq != last_advert_counter + 1) {
          Violation(report, ev,
                    "ADVERT counter gap: got " + std::to_string(ev.msg_seq) +
                        ", expected " +
                        std::to_string(last_advert_counter + 1) +
                        " — lost, duplicated, or reordered ADVERT");
        }
        last_advert_counter = ev.msg_seq;
        break;
      case TraceEventType::kDirectPosted:
        if (ev.seq != cum) {
          Violation(report, ev,
                    "posted byte sequence not contiguous: event at seq " +
                        std::to_string(ev.seq) + ", expected " +
                        std::to_string(cum));
        }
        cum += ev.len;
        break;
      case TraceEventType::kDirectArrived:
        if (ev.seq != cum + ev.len) {
          Violation(report, ev,
                    "received byte sequence not contiguous: event ends at "
                    "seq " +
                        std::to_string(ev.seq) + ", expected " +
                        std::to_string(cum + ev.len));
        }
        cum = ev.seq;
        break;
      default:
        break;
    }
  }
  return report;
}

struct KindTotals {
  std::uint64_t direct_bytes = 0;
  std::uint64_t direct_count = 0;
  std::uint64_t indirect_bytes = 0;
  std::uint64_t adverts = 0;
};

KindTotals Tally(const std::vector<TraceEvent>& events) {
  KindTotals t;
  for (const auto& ev : events) {
    switch (ev.type) {
      case TraceEventType::kDirectPosted:
      case TraceEventType::kDirectArrived:
        t.direct_bytes += ev.len;
        ++t.direct_count;
        break;
      case TraceEventType::kIndirectPosted:
      case TraceEventType::kIndirectArrived:
        t.indirect_bytes += ev.len;
        break;
      case TraceEventType::kAdvertSent:
      case TraceEventType::kAdvertReceived:
        ++t.adverts;
        break;
      default:
        break;
    }
  }
  return t;
}

}  // namespace

InvariantReport CheckStreamSenderTrace(const TraceLog& log,
                                       const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (!AdmitLog(log, opts, "sender", report)) return report;
  report.Merge(ValidateSenderTrace(log.events()));
  report.Merge(StreamSenderExtras(log.events(), opts));
  return report;
}

InvariantReport CheckStreamReceiverTrace(const TraceLog& log,
                                         const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (!AdmitLog(log, opts, "receiver", report)) return report;
  report.Merge(ValidateReceiverTrace(log.events()));
  report.Merge(StreamReceiverExtras(log.events(), opts));
  return report;
}

InvariantReport CheckStreamPair(const TraceLog& sender_log,
                                const TraceLog& receiver_log,
                                const InvariantCheckOptions& opts) {
  InvariantReport report;
  bool sender_ok = AdmitLog(sender_log, opts, "sender", report);
  bool receiver_ok = AdmitLog(receiver_log, opts, "receiver", report);
  if (!sender_ok || !receiver_ok) return report;

  // The pair validator runs both per-side lemma sets plus conservation.
  report.Merge(ValidateConnectionTraces(sender_log.events(),
                                       receiver_log.events()));
  report.Merge(StreamSenderExtras(sender_log.events(), opts));
  report.Merge(StreamReceiverExtras(receiver_log.events(), opts));

  // Across a kill/resume the cross-log conservation rules no longer hold
  // as stated: retransmitted chunks are posted twice (so per-rail arrivals
  // are not a prefix of per-rail posts), failover renumbers rails, and
  // ACKs in flight at the kill are lost while the resume handshake restores
  // the sender's ring view without a kAckReceived event.  The per-side
  // rules above — including delivered-byte continuity — still ran; skip
  // only the pairwise ones, loudly.
  if (HasRecoveryMarkers(sender_log.events()) ||
      HasRecoveryMarkers(receiver_log.events())) {
    report.warnings.push_back(
        "kill/resume markers present: rail and ACK conservation "
        "cross-checks skipped (delivered-byte equivalence is proven by the "
        "recovery harness's payload fingerprints instead)");
    return report;
  }

  if (opts.rails > 1) {
    // Per-rail conservation: the chunks that arrived on a rail are exactly
    // a prefix of the chunks posted on it, in order, with matching length
    // and kind.  (A prefix, not equality: chunks may still be in flight
    // when a trace ends.)
    struct RailChunk {
      std::uint64_t stripe;
      std::uint64_t len;
      bool indirect;
    };
    std::vector<std::vector<RailChunk>> posted(opts.rails);
    std::vector<std::vector<RailChunk>> arrived(opts.rails);
    for (const auto& ev : sender_log.events()) {
      if ((ev.type == TraceEventType::kDirectPosted ||
           ev.type == TraceEventType::kIndirectPosted) &&
          ev.msg_phase < opts.rails) {
        posted[ev.msg_phase].push_back(
            {ev.msg_seq, ev.len,
             ev.type == TraceEventType::kIndirectPosted});
      }
    }
    for (const auto& ev : receiver_log.events()) {
      if ((ev.type == TraceEventType::kDirectArrived ||
           ev.type == TraceEventType::kIndirectArrived) &&
          ev.msg_phase < opts.rails) {
        arrived[ev.msg_phase].push_back(
            {ev.msg_seq, ev.len,
             ev.type == TraceEventType::kIndirectArrived});
      }
    }
    for (std::uint32_t rail = 0; rail < opts.rails; ++rail) {
      if (arrived[rail].size() > posted[rail].size()) {
        report.violations.push_back(
            "rail " + std::to_string(rail) + " delivered " +
            std::to_string(arrived[rail].size()) +
            " chunk(s) but only " + std::to_string(posted[rail].size()) +
            " were posted on it");
        continue;
      }
      for (std::size_t i = 0; i < arrived[rail].size(); ++i) {
        const RailChunk& p = posted[rail][i];
        const RailChunk& r = arrived[rail][i];
        if (p.stripe != r.stripe || p.len != r.len ||
            p.indirect != r.indirect) {
          report.violations.push_back(
              "rail " + std::to_string(rail) + " chunk " +
              std::to_string(i) + " mismatch: posted (stripe " +
              std::to_string(p.stripe) + ", " + std::to_string(p.len) +
              " bytes, " + (p.indirect ? "indirect" : "direct") +
              "), arrived (stripe " + std::to_string(r.stripe) + ", " +
              std::to_string(r.len) + " bytes, " +
              (r.indirect ? "indirect" : "direct") + ")");
          break;
        }
      }
    }
  }

  // ACK conservation: the sender can never learn of more freed buffer
  // space than the receiver reported — whether the count travelled as a
  // standalone ACK or rode an ADVERT.  (Equality need not hold: ACKs may
  // still be in flight when a trace ends.)
  std::uint64_t freed_reported = 0;
  for (const auto& ev : receiver_log.events()) {
    if (ev.type == TraceEventType::kAckSent ||
        ev.type == TraceEventType::kAckPiggybacked) {
      freed_reported += ev.len;
    }
  }
  std::uint64_t freed_learned = 0;
  for (const auto& ev : sender_log.events()) {
    if (ev.type == TraceEventType::kAckReceived) freed_learned += ev.len;
  }
  if (freed_learned > freed_reported) {
    report.violations.push_back(
        "ACK conservation failed: sender released " +
        std::to_string(freed_learned) +
        " byte(s) of buffer space but the receiver only reported " +
        std::to_string(freed_reported));
  }
  return report;
}

InvariantReport CheckSeqPacketSenderTrace(const TraceLog& log,
                                          const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (!AdmitLog(log, opts, "sender", report)) return report;
  report.Merge(SeqPacketCommon(log.events(), /*receiver_side=*/false));
  return report;
}

InvariantReport CheckSeqPacketReceiverTrace(
    const TraceLog& log, const InvariantCheckOptions& opts) {
  InvariantReport report;
  if (!AdmitLog(log, opts, "receiver", report)) return report;
  report.Merge(SeqPacketCommon(log.events(), /*receiver_side=*/true));
  return report;
}

InvariantReport CheckSeqPacketPair(const TraceLog& sender_log,
                                   const TraceLog& receiver_log,
                                   const InvariantCheckOptions& opts) {
  InvariantReport report;
  bool sender_ok = AdmitLog(sender_log, opts, "sender", report);
  bool receiver_ok = AdmitLog(receiver_log, opts, "receiver", report);
  if (!sender_ok || !receiver_ok) return report;
  report.Merge(SeqPacketCommon(sender_log.events(), /*receiver_side=*/false));
  report.Merge(
      SeqPacketCommon(receiver_log.events(), /*receiver_side=*/true));

  // Conservation across the wire: every posted message arrived, whole.
  KindTotals tx = Tally(sender_log.events());
  KindTotals rx = Tally(receiver_log.events());
  if (tx.direct_count != rx.direct_count) {
    report.violations.push_back(
        "SEQPACKET message conservation failed: posted " +
        std::to_string(tx.direct_count) + " message(s), delivered " +
        std::to_string(rx.direct_count));
  }
  if (tx.direct_bytes != rx.direct_bytes) {
    report.violations.push_back(
        "SEQPACKET byte conservation failed: posted " +
        std::to_string(tx.direct_bytes) + " byte(s), delivered " +
        std::to_string(rx.direct_bytes));
  }
  if (tx.adverts > rx.adverts) {
    report.violations.push_back(
        "SEQPACKET ADVERT conservation failed: sender consumed " +
        std::to_string(tx.adverts) + " ADVERT(s), receiver sent only " +
        std::to_string(rx.adverts));
  }
  return report;
}

namespace {

/// Hot-path batching conservation for one socket's send rails, audited at
/// quiescence from verbs-layer ground truth (QueuePairStats):
///   - gather byte conservation: the summed SGE lengths of every posted
///     send WR equal the wire payload those WRs carried — a gather list
///     never sends more or fewer bytes than its slices name;
///   - doorbell accounting: WRs posted through batched doorbells are a
///     subset of all posted sends, and every doorbell ring covered at
///     least one WR (PostSendBatch refuses empty batches);
///   - flush discipline: no WR may still be parked behind an un-rung
///     doorbell once the connection is quiescent — a batched post that
///     never flushed is a send that silently never happened.
/// Holds identically with batching off (all batch counters are zero).
void CheckBatchingConservation(InvariantReport& report, const char* label,
                               const Socket& s) {
  // Mux slots post through the group owner's shared channels and are
  // audited by CheckMuxGroupPair; rails here are classic per-socket QPs.
  if (s.Muxed()) return;
  for (std::size_t rail = 0; rail < s.effective_rails(); ++rail) {
    const ControlChannel& ch = s.rail(rail);
    if (!ch.HasQueuePair()) continue;  // never connected: nothing posted
    ++report.events_checked;
    const verbs::QueuePairStats& qp = ch.qp_stats();
    if (qp.sge_bytes_posted != qp.payload_bytes_sent) {
      std::ostringstream oss;
      oss << label << " rail " << rail
          << ": gather byte conservation broken — posted SGE lists sum to "
          << qp.sge_bytes_posted << " byte(s) but the WRs carried "
          << qp.payload_bytes_sent
          << " payload byte(s); a scatter-gather WR lost or invented bytes";
      report.violations.push_back(oss.str());
    }
    if (qp.batched_wrs > qp.sends_posted) {
      std::ostringstream oss;
      oss << label << " rail " << rail
          << ": doorbell accounting broken — " << qp.batched_wrs
          << " WR(s) attributed to batched doorbells but only "
          << qp.sends_posted
          << " send(s) were ever posted; a WR was double-counted";
      report.violations.push_back(oss.str());
    }
    if (qp.doorbells > qp.batched_wrs) {
      std::ostringstream oss;
      oss << label << " rail " << rail << ": " << qp.doorbells
          << " doorbell ring(s) covered only " << qp.batched_wrs
          << " WR(s); an empty batch rang the doorbell";
      report.violations.push_back(oss.str());
    }
    if (ch.PendingBatchedWrs() != 0) {
      std::ostringstream oss;
      oss << label << " rail " << rail << ": " << ch.PendingBatchedWrs()
          << " WR(s) still parked behind an un-rung doorbell at "
             "quiescence — a pump pass exited without flushing its batch";
      report.violations.push_back(oss.str());
    }
  }
}

}  // namespace

InvariantReport CheckConnection(Socket& a, Socket& b) {
  InvariantReport report;
  if (a.type() == SocketType::kSeqPacket) {
    report.Merge(CheckSeqPacketPair(a.tx_trace(), b.rx_trace()));
    report.Merge(CheckSeqPacketPair(b.tx_trace(), a.rx_trace()));
    return report;
  }
  InvariantCheckOptions a_to_b;
  if (b.stream_rx() != nullptr) {
    a_to_b.rx_ring_capacity = b.stream_rx()->ring_capacity();
  }
  a_to_b.rails = static_cast<std::uint32_t>(a.effective_rails());
  InvariantCheckOptions b_to_a;
  if (a.stream_rx() != nullptr) {
    b_to_a.rx_ring_capacity = a.stream_rx()->ring_capacity();
  }
  b_to_a.rails = static_cast<std::uint32_t>(b.effective_rails());
  report.Merge(CheckStreamPair(a.tx_trace(), b.rx_trace(), a_to_b));
  report.Merge(CheckStreamPair(b.tx_trace(), a.rx_trace(), b_to_a));
  CheckBatchingConservation(report, "a->b", a);
  CheckBatchingConservation(report, "b->a", b);
  return report;
}

namespace {

/// One direction of rule (a): everything `tx` posted is accounted at `rx`.
void CheckMuxConservation(InvariantReport& report, const char* label,
                          const MuxGroupStats& tx, const MuxGroupStats& rx) {
  ++report.events_checked;
  std::uint64_t accounted =
      rx.data_delivered + rx.stale_data_drops + rx.orphan_drops;
  if (tx.data_posted != accounted) {
    std::ostringstream oss;
    oss << label << ": mux data conservation broken — " << tx.data_posted
        << " WWI(s) posted but peer accounts " << accounted << " ("
        << rx.data_delivered << " delivered + " << rx.stale_data_drops
        << " epoch-stale + " << rx.orphan_drops
        << " orphaned); a message vanished inside the mux layer (or the "
           "groups were not quiescent when checked)";
    report.violations.push_back(oss.str());
  }
}

/// One direction of rule (c) for one slot: `tx`'s view of its peer slot
/// `rx`'s credits, plus what `rx` still owes, equals `rx`'s pool.
void CheckMuxSlotCredits(InvariantReport& report, const char* label,
                         std::size_t slot, const ControlChannel& tx,
                         const ControlChannel& rx) {
  ++report.events_checked;
  if (tx.dead() || rx.dead()) return;  // a dead slot's window is void
  std::uint32_t seen = tx.remote_credits() + rx.owed_credits();
  if (seen != rx.credit_pool_size()) {
    std::ostringstream oss;
    oss << label << " slot " << slot << ": credit conservation broken — "
        << "sender sees " << tx.remote_credits() << " credit(s), receiver "
        << "owes " << rx.owed_credits() << ", pool is "
        << rx.credit_pool_size()
        << "; the mux layer minted or leaked shared-QP credits";
    report.violations.push_back(oss.str());
  }
}

/// Rules (b) for one stream pair, one direction.
void CheckMuxStreamPair(InvariantReport& report, const char* label,
                        std::uint32_t id, const MuxStream& tx,
                        const MuxStream& rx) {
  ++report.events_checked;
  if (tx.outstanding() != 0) {
    std::ostringstream oss;
    oss << label << " stream " << id << ": " << tx.outstanding()
        << " data WWI(s) still outstanding at quiescence — a send "
           "completion never came back through the slot FIFO";
    report.violations.push_back(oss.str());
  }
  if (tx.dead() || rx.dead() || tx.epoch() != rx.epoch()) {
    // Killed or mid-revive: continuity is re-established by the resume
    // machinery, not asserted here.
    return;
  }
  if (tx.tx_seq() != rx.rx_expect()) {
    std::ostringstream oss;
    oss << label << " stream " << id << ": per-stream continuity broken — "
        << "sender sequence is at " << tx.tx_seq()
        << " but receiver expects " << rx.rx_expect()
        << "; the shared QP reordered or dropped within a stream";
    report.violations.push_back(oss.str());
  }
}

}  // namespace

InvariantReport CheckMuxGroupPair(const MuxGroup& a, const MuxGroup& b) {
  InvariantReport report;
  if (a.peer() != &b || b.peer() != &a) {
    report.violations.push_back(
        "mux groups are not connected peers (MuxGroup::Connect)");
    return report;
  }
  if (a.width() != b.width()) {
    report.violations.push_back("mux group widths differ");
    return report;
  }
  CheckMuxConservation(report, "a->b", a.stats(), b.stats());
  CheckMuxConservation(report, "b->a", b.stats(), a.stats());
  for (std::size_t slot = 0; slot < a.width(); ++slot) {
    CheckMuxSlotCredits(report, "a->b", slot, a.slot(slot), b.slot(slot));
    CheckMuxSlotCredits(report, "b->a", slot, b.slot(slot), a.slot(slot));
  }
  // Rule (b) runs over stream pairs attached on both sides; a one-sided
  // stream is legal mid-teardown but its counters prove nothing.
  for (std::uint32_t id : a.StreamIds()) {
    const MuxStream* sa = a.FindStream(id);
    const MuxStream* sb = b.FindStream(id);
    if (sa == nullptr || sb == nullptr) continue;
    CheckMuxStreamPair(report, "a->b", id, *sa, *sb);
    CheckMuxStreamPair(report, "b->a", id, *sb, *sa);
  }
  return report;
}

InvariantReport CheckSpanConservation(const spans::SpanCollector& collector,
                                      SimDuration slack_ps) {
  InvariantReport report;
  // The eight boundary timestamps, in chunk order.  The seven stages are
  // exactly the adjacent differences, so when every boundary is stamped
  // and ordered the stage sum telescopes to t_deliver − t_submit; any
  // residue (beyond the granted slack) convicts the instrumentation.
  struct Boundary {
    const char* name;
    SimTime spans::ChunkRecord::* field;
  };
  static constexpr Boundary kBoundaries[] = {
      {"submit", &spans::ChunkRecord::t_submit},
      {"flush", &spans::ChunkRecord::t_flush},
      {"post", &spans::ChunkRecord::t_post},
      {"arrive", &spans::ChunkRecord::t_arrive},
      {"process", &spans::ChunkRecord::t_process},
      {"ring_end", &spans::ChunkRecord::t_ring_end},
      {"copied", &spans::ChunkRecord::t_copied},
      {"deliver", &spans::ChunkRecord::t_deliver},
  };
  std::uint64_t undelivered = 0;
  for (const spans::ChunkRecord& c : collector.chunks()) {
    if (!c.delivered()) {
      // Legal for chunks still in flight when the run stopped; counted so
      // a harness that expects full delivery can notice.
      ++undelivered;
      continue;
    }
    ++report.events_checked;
    bool complete = true;
    for (const Boundary& b : kBoundaries) {
      if (c.*(b.field) == spans::kNoTime) {
        std::ostringstream oss;
        oss << "chunk " << c.id << ": delivered but boundary '" << b.name
            << "' was never stamped";
        report.violations.push_back(oss.str());
        complete = false;
      }
    }
    if (!complete) continue;
    bool ordered = true;
    for (std::size_t i = 1; i < std::size(kBoundaries); ++i) {
      SimTime prev = c.*(kBoundaries[i - 1].field);
      SimTime cur = c.*(kBoundaries[i].field);
      if (cur < prev) {
        std::ostringstream oss;
        oss << "chunk " << c.id << ": boundary '" << kBoundaries[i].name
            << "' (" << cur << "ps) precedes '" << kBoundaries[i - 1].name
            << "' (" << prev << "ps)";
        report.violations.push_back(oss.str());
        ordered = false;
      }
    }
    if (!ordered) continue;
    SimDuration sum = 0;
    for (std::size_t s = 0; s < spans::kStageCount; ++s) {
      sum += c.StageDuration(static_cast<spans::Stage>(s));
    }
    const SimDuration e2e = c.EndToEnd();
    const SimDuration residue = sum > e2e ? sum - e2e : e2e - sum;
    if (residue > slack_ps) {
      std::ostringstream oss;
      oss << "chunk " << c.id << ": stage sum " << sum
          << "ps != end-to-end " << e2e << "ps (residue " << residue
          << "ps exceeds slack " << slack_ps << "ps)";
      report.violations.push_back(oss.str());
    }
  }
  if (undelivered > 0) {
    std::ostringstream oss;
    oss << "span conservation: " << undelivered << " sampled chunk(s) were "
        << "never delivered — conservation checked on the delivered "
        << collector.chunks().size() - undelivered << " only";
    report.warnings.push_back(oss.str());
  }
  return report;
}

InvariantReport CheckPoolConservation(
    const std::vector<const TraceLog*>& receiver_logs,
    const PoolCheckOptions& opts) {
  InvariantReport report;
  InvariantCheckOptions admit;
  admit.allow_truncated = opts.allow_truncated;

  // Ring deltas from every log, tagged for the cross-stream merge below.
  struct Delta {
    decltype(TraceEvent::time) time;
    std::int64_t bytes;  // +arrival / -copy-out
    const TraceEvent* ev;
  };
  std::vector<Delta> deltas;

  for (std::size_t i = 0; i < receiver_logs.size(); ++i) {
    const TraceLog* log = receiver_logs[i];
    std::string label = "pool receiver[" + std::to_string(i) + "]";
    if (log == nullptr) {
      report.violations.push_back(label + ": null trace log");
      continue;
    }
    if (!AdmitLog(*log, admit, label.c_str(), report)) continue;
    // Per-stream replay: conservation (never negative) and the lease
    // bound (a stream can never occupy more slab than it leased).
    std::int64_t occupancy = 0;
    bool over_lease = false;
    for (const auto& ev : log->events()) {
      switch (ev.type) {
        case TraceEventType::kIndirectArrived:
          occupancy += static_cast<std::int64_t>(ev.len);
          deltas.push_back({ev.time, static_cast<std::int64_t>(ev.len), &ev});
          if (opts.lease_bytes > 0 &&
              occupancy > static_cast<std::int64_t>(opts.lease_bytes)) {
            if (!over_lease) {
              Violation(report, ev,
                        label + ": ring occupancy " +
                            std::to_string(occupancy) +
                            " exceeds its lease of " +
                            std::to_string(opts.lease_bytes) + " byte(s)");
            }
            over_lease = true;
          }
          break;
        case TraceEventType::kCopyOut:
          occupancy -= static_cast<std::int64_t>(ev.len);
          deltas.push_back({ev.time, -static_cast<std::int64_t>(ev.len), &ev});
          if (occupancy < 0) {
            Violation(report, ev,
                      label + ": copied out " + std::to_string(ev.len) +
                          " byte(s) more than ever arrived (occupancy " +
                          std::to_string(occupancy) + ")");
          }
          if (opts.lease_bytes > 0 &&
              occupancy <= static_cast<std::int64_t>(opts.lease_bytes)) {
            over_lease = false;
          }
          break;
        default:
          break;
      }
    }
  }

  // Aggregate replay: merge every stream's deltas by time, draining
  // before filling at equal timestamps (the conservative tie-break — at
  // one instant the slab held at most the post-drain sum, so this order
  // cannot manufacture a false overshoot).  The summed occupancy staying
  // under the slab size is the O(pool) memory claim itself.
  if (opts.pool_capacity_bytes > 0) {
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const Delta& a, const Delta& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.bytes < b.bytes;
                     });
    std::int64_t total = 0;
    bool over_pool = false;
    for (const auto& d : deltas) {
      total += d.bytes;
      if (total > static_cast<std::int64_t>(opts.pool_capacity_bytes)) {
        if (!over_pool) {
          Violation(report, *d.ev,
                    "aggregate pool occupancy " + std::to_string(total) +
                        " exceeds the shared slab of " +
                        std::to_string(opts.pool_capacity_bytes) +
                        " byte(s) across " +
                        std::to_string(receiver_logs.size()) + " stream(s)");
        }
        over_pool = true;
      } else {
        over_pool = false;
      }
    }
  }
  return report;
}

InvariantReport CheckRpcConservation(
    const std::vector<const rpc::RpcLedger*>& clients,
    const rpc::RpcServerCounters* server) {
  InvariantReport report;
  std::uint64_t issued = 0;
  std::uint64_t shed = 0;
  std::uint64_t answered = 0;
  std::uint64_t refused = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t stale = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const rpc::RpcLedger& ledger = *clients[c];
    issued += ledger.issued();
    shed += ledger.shed_local;
    stale += ledger.stale_responses;
    std::uint64_t client_timed_out = 0;
    for (std::size_t i = 0; i < ledger.outcome.size(); ++i) {
      ++report.events_checked;
      const auto o = static_cast<rpc::Outcome>(ledger.outcome[i]);
      const std::uint8_t attempts = ledger.outcome_count[i];
      if (o == rpc::Outcome::kPending || attempts == 0) {
        report.violations.push_back(
            "rpc: client " + std::to_string(c) + " request " +
            std::to_string(i + 1) +
            " lost: no terminal outcome at quiescence");
        continue;
      }
      if (attempts != 1) {
        report.violations.push_back(
            "rpc: client " + std::to_string(c) + " request " +
            std::to_string(i + 1) + " resolved " + std::to_string(attempts) +
            " times (outcome must be exactly one of "
            "answered/timed-out/refused)");
      }
      switch (o) {
        case rpc::Outcome::kAnswered: ++answered; break;
        case rpc::Outcome::kRefused: ++refused; break;
        case rpc::Outcome::kTimedOut:
          ++timed_out;
          ++client_timed_out;
          break;
        case rpc::Outcome::kPending: break;
      }
    }
    if (ledger.cancelled > client_timed_out) {
      report.violations.push_back(
          "rpc: client " + std::to_string(c) + " records " +
          std::to_string(ledger.cancelled) + " cancellations but only " +
          std::to_string(client_timed_out) + " timed-out outcomes");
    }
  }
  if (shed > refused) {
    report.violations.push_back(
        "rpc: " + std::to_string(shed) + " locally shed request(s) exceed " +
        std::to_string(refused) + " refused outcome(s)");
  }
  if (server != nullptr) {
    const std::uint64_t on_wire = issued - (shed < issued ? shed : issued);
    if (server->requests_received != on_wire) {
      report.violations.push_back(
          "rpc: server received " + std::to_string(server->requests_received) +
          " request(s) but clients put " + std::to_string(on_wire) +
          " on the wire (" + std::to_string(issued) + " issued - " +
          std::to_string(shed) + " shed)");
    }
    const std::uint64_t refused_remote = refused - (shed < refused ? shed : refused);
    const std::uint64_t accounted = answered + refused_remote + stale;
    if (server->responses_sent != accounted) {
      report.violations.push_back(
          "rpc: server sent " + std::to_string(server->responses_sent) +
          " response(s) but clients account " + std::to_string(accounted) +
          " (" + std::to_string(answered) + " answered + " +
          std::to_string(refused_remote) + " refused + " +
          std::to_string(stale) + " stale)");
    }
    if (server->responses_sent != server->answered + server->refused) {
      report.violations.push_back(
          "rpc: server response split broken: " +
          std::to_string(server->responses_sent) + " sent != " +
          std::to_string(server->answered) + " answered + " +
          std::to_string(server->refused) + " refused");
    }
  }
  return report;
}

std::uint64_t TraceFingerprint(const TraceLog& log) {
  // FNV-1a over every recorded field, in order.  Traces carry no memory
  // addresses, so the hash is stable across processes and ASLR.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(log.events().size());
  mix(log.dropped());
  for (const auto& ev : log.events()) {
    mix(static_cast<std::uint64_t>(ev.time));
    mix(static_cast<std::uint64_t>(ev.type));
    mix(ev.seq);
    mix(ev.phase);
    mix(ev.len);
    mix(ev.msg_seq);
    mix(ev.msg_phase);
  }
  return h;
}

std::uint64_t ConnectionFingerprint(const Socket& a, const Socket& b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(TraceFingerprint(a.tx_trace()));
  mix(TraceFingerprint(a.rx_trace()));
  mix(TraceFingerprint(b.tx_trace()));
  mix(TraceFingerprint(b.rx_trace()));
  return h;
}

}  // namespace exs
