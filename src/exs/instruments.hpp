// Protocol instruments — the socket's single source of truth for every
// counter the paper reports (Table III, the transfer-ratio figures) plus
// the time-resolved signals its evaluation reasons about: ADVERT round
// trips, phase dwell, intermediate-buffer pressure, credit and in-flight
// WR depth, and copy-out cost.
//
// The instruments live here, by value, inside the socket they measure.
// The hot paths (stream_tx/stream_rx/seqpacket/rendezvous/channel) record
// into them directly; BindSocketInstruments() names them in the socket's
// metrics registry from the schema tables in instruments.cpp, and
// Socket::stats() folds them back into the legacy StreamStats snapshot, so
// there is exactly one place a number can come from.  Metric names, units,
// and the paper artefact each one explains are catalogued in
// docs/OBSERVABILITY.md.
//
// Bound instruments never move: channels and mux streams keep pointers to
// them, so neither struct is copyable or movable.
#pragma once

#include <cstdint>

#include "common/metrics.hpp"
#include "verbs/queue_pair.hpp"

namespace exs {

/// An implementation guard, not a protocol limit: catches garbage rail
/// counts before they allocate hundreds of queue pairs.
inline constexpr std::uint32_t kMaxRails = 16;

struct SocketInstruments {
  SocketInstruments() = default;
  SocketInstruments(const SocketInstruments&) = delete;
  SocketInstruments& operator=(const SocketInstruments&) = delete;

  // Sender half (this socket's outgoing stream).
  metrics::Counter sends_completed;
  metrics::Counter bytes_sent;
  metrics::Counter direct_transfers;
  metrics::Counter indirect_transfers;
  metrics::Counter direct_bytes;
  metrics::Counter indirect_bytes;
  metrics::Counter mode_switches;
  metrics::Counter adverts_received;
  metrics::Counter adverts_discarded;
  metrics::Gauge tx_phase;
  metrics::Histogram tx_phase_dwell_direct;    ///< ps per phase
  metrics::Histogram tx_phase_dwell_indirect;  ///< ps per phase
  metrics::TimeWeightedSeries tx_inflight_wwis;
  metrics::TimeWeightedSeries tx_remote_ring_used;  ///< b_s view
  // Coalescing (StreamOptions::coalesce): staged sends/bytes and flushes
  // broken down by trigger (CoalesceFlushReason).
  metrics::Counter coalesced_sends;
  metrics::Counter coalesced_bytes;
  metrics::Counter coalesce_flush_maxbytes;
  metrics::Counter coalesce_flush_timeout;
  metrics::Counter coalesce_flush_advert;
  metrics::Counter coalesce_flush_phase;
  metrics::Counter coalesce_flush_close;
  metrics::Counter coalesce_flush_ordering;
  // Hot-path batching (StreamOptions::batching): doorbells rung through
  // batched posting and the WRs they covered; vectored Sendv() calls.
  metrics::Counter doorbell_batches;
  metrics::Counter doorbell_wrs;
  metrics::Counter sendv_calls;

  // Receiver half (this socket's incoming stream).
  metrics::Counter recvs_completed;
  metrics::Counter bytes_received;
  metrics::Counter adverts_sent;
  metrics::Counter acks_sent;
  metrics::Counter acks_piggybacked;  ///< ACKs riding ADVERTs
  metrics::Counter direct_bytes_received;
  metrics::Counter indirect_bytes_received;
  metrics::Counter bytes_copied_out;
  metrics::Counter copy_busy_time;  ///< ps the CPU spent copying
  metrics::Histogram advert_rtt;    ///< ADVERT -> first direct byte
  metrics::Gauge rx_phase;
  metrics::Histogram rx_phase_dwell_direct;
  metrics::Histogram rx_phase_dwell_indirect;
  metrics::TimeWeightedSeries rx_ring_occupancy;  ///< b_r

  // Control channel (shared by both halves).
  metrics::TimeWeightedSeries send_credits;
  metrics::Counter credit_messages_sent;

  // Fatal-fault recovery (StreamOptions::recovery; docs/FAULTS.md).
  metrics::Counter transport_kills;      ///< fatal transport deaths
  metrics::Counter resumes;              ///< successful resumes
  metrics::Counter retransmitted_bytes;  ///< re-sent after resume
  metrics::Histogram resume_latency;     ///< ps, kill -> resume

  // Shared-QP multiplexing (docs/PROTOCOL.md §13); named on muxed sockets
  // only, where they replace the rail0.* queue-pair instruments.
  metrics::Histogram mux_hol_wait;  ///< ps, park -> send
  metrics::Counter mux_parks;
};

/// The socket-side half of one rail's telemetry ("rail<i>.*"): the
/// channel's outstanding-WR series and the stripe reorder buffer's
/// head-of-line wait for chunks that arrived on this rail.  The rest of
/// rail<i>.* is the rail channel's queue-pair counter block.
struct RailInstruments {
  RailInstruments() = default;
  RailInstruments(const RailInstruments&) = delete;
  RailInstruments& operator=(const RailInstruments&) = delete;

  metrics::TimeWeightedSeries inflight_wrs;
  metrics::Histogram hol_wait;  ///< ps behind an earlier stripe sequence
};

/// Name a socket's fixed instruments in `registry`, plus the mux.* pair
/// when `muxed`, and reserve room for `rails` rails' names (at most
/// kMaxRails), which BindRailInstruments then adds.
void BindSocketInstruments(metrics::Registry& registry,
                           SocketInstruments& inst, bool muxed,
                           std::size_t rails);

/// Name rail `rail`'s instruments: `inst` and the queue-pair counters `qp`
/// of the channel carrying the rail.
void BindRailInstruments(metrics::Registry& registry, std::size_t rail,
                         RailInstruments& inst, verbs::QueuePairCounters& qp);

}  // namespace exs
