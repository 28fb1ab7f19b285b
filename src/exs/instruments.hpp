// Pre-resolved protocol instruments — the socket's single source of truth
// for every counter the paper reports (Table III, the transfer-ratio
// figures) plus the time-resolved signals its evaluation reasons about:
// ADVERT round trips, phase dwell, intermediate-buffer pressure, credit
// and in-flight WR depth, and copy-out cost.
//
// The hot paths (stream_tx/stream_rx/seqpacket/rendezvous/channel) poke
// these pointers directly; Socket::stats() folds the registry back into
// the legacy StreamStats snapshot, so there is exactly one place a number
// can come from.  Metric names, units, and the paper artefact each one
// explains are catalogued in docs/OBSERVABILITY.md.
#pragma once

#include "common/metrics.hpp"

namespace exs {

struct SocketInstruments {
  // Sender half (this socket's outgoing stream).
  metrics::Counter* sends_completed = nullptr;
  metrics::Counter* bytes_sent = nullptr;
  metrics::Counter* direct_transfers = nullptr;
  metrics::Counter* indirect_transfers = nullptr;
  metrics::Counter* direct_bytes = nullptr;
  metrics::Counter* indirect_bytes = nullptr;
  metrics::Counter* mode_switches = nullptr;
  metrics::Counter* adverts_received = nullptr;
  metrics::Counter* adverts_discarded = nullptr;
  metrics::Gauge* tx_phase = nullptr;
  metrics::Histogram* tx_phase_dwell_direct = nullptr;    ///< ps per phase
  metrics::Histogram* tx_phase_dwell_indirect = nullptr;  ///< ps per phase
  metrics::TimeWeightedSeries* tx_inflight_wwis = nullptr;
  metrics::TimeWeightedSeries* tx_remote_ring_used = nullptr;  ///< b_s view
  // Coalescing (StreamOptions::coalesce): staged sends/bytes and flushes
  // broken down by trigger (CoalesceFlushReason).
  metrics::Counter* coalesced_sends = nullptr;
  metrics::Counter* coalesced_bytes = nullptr;
  metrics::Counter* coalesce_flush_maxbytes = nullptr;
  metrics::Counter* coalesce_flush_timeout = nullptr;
  metrics::Counter* coalesce_flush_advert = nullptr;
  metrics::Counter* coalesce_flush_phase = nullptr;
  metrics::Counter* coalesce_flush_close = nullptr;
  metrics::Counter* coalesce_flush_ordering = nullptr;
  // Hot-path batching (StreamOptions::batching): doorbells rung through
  // batched posting and the WRs they covered; vectored Sendv() calls.
  metrics::Counter* doorbell_batches = nullptr;
  metrics::Counter* doorbell_wrs = nullptr;
  metrics::Counter* sendv_calls = nullptr;
  // MR registration traffic on the socket's device (mirrored from
  // verbs::Device counters: actual registrations vs cache-served pins).
  metrics::Counter* mr_registrations = nullptr;
  metrics::Counter* mr_cache_hits = nullptr;

  // Receiver half (this socket's incoming stream).
  metrics::Counter* recvs_completed = nullptr;
  metrics::Counter* bytes_received = nullptr;
  metrics::Counter* adverts_sent = nullptr;
  metrics::Counter* acks_sent = nullptr;
  metrics::Counter* acks_piggybacked = nullptr;  ///< ACKs riding ADVERTs
  metrics::Counter* direct_bytes_received = nullptr;
  metrics::Counter* indirect_bytes_received = nullptr;
  metrics::Counter* bytes_copied_out = nullptr;
  metrics::Counter* copy_busy_time = nullptr;  ///< ps the CPU spent copying
  metrics::Histogram* advert_rtt = nullptr;    ///< ADVERT -> first direct byte
  metrics::Gauge* rx_phase = nullptr;
  metrics::Histogram* rx_phase_dwell_direct = nullptr;
  metrics::Histogram* rx_phase_dwell_indirect = nullptr;
  metrics::TimeWeightedSeries* rx_ring_occupancy = nullptr;  ///< b_r

  // Control channel (shared by both halves).
  metrics::TimeWeightedSeries* send_credits = nullptr;
  metrics::Counter* credit_messages_sent = nullptr;

  // Fatal-fault recovery (StreamOptions::recovery; docs/FAULTS.md).
  metrics::Counter* transport_kills = nullptr;   ///< fatal transport deaths
  metrics::Counter* resumes = nullptr;           ///< successful resumes
  metrics::Counter* retransmitted_bytes = nullptr;  ///< re-sent after resume
  metrics::Histogram* resume_latency = nullptr;  ///< ps, kill -> resume

  /// Create (or re-resolve) every instrument in `registry`.
  static SocketInstruments Create(metrics::Registry& registry);
};

}  // namespace exs
