#include "exs/instruments.hpp"

namespace exs {

SocketInstruments SocketInstruments::Create(metrics::Registry& registry) {
  SocketInstruments inst;

  inst.sends_completed = &registry.GetCounter("tx.sends_completed", "ops");
  inst.bytes_sent = &registry.GetCounter("tx.bytes_sent", "bytes");
  inst.direct_transfers = &registry.GetCounter("tx.direct_transfers", "transfers");
  inst.indirect_transfers =
      &registry.GetCounter("tx.indirect_transfers", "transfers");
  inst.direct_bytes = &registry.GetCounter("tx.direct_bytes", "bytes");
  inst.indirect_bytes = &registry.GetCounter("tx.indirect_bytes", "bytes");
  inst.mode_switches = &registry.GetCounter("tx.mode_switches", "switches");
  inst.adverts_received = &registry.GetCounter("tx.adverts_received", "messages");
  inst.adverts_discarded =
      &registry.GetCounter("tx.adverts_discarded", "messages");
  inst.tx_phase = &registry.GetGauge("tx.phase", "phase");
  inst.tx_phase_dwell_direct =
      &registry.GetHistogram("tx.phase_dwell_direct", "ps");
  inst.tx_phase_dwell_indirect =
      &registry.GetHistogram("tx.phase_dwell_indirect", "ps");
  inst.tx_inflight_wwis = &registry.GetSeries("tx.inflight_wwis", "wrs");
  inst.tx_remote_ring_used = &registry.GetSeries("tx.remote_ring_used", "bytes");
  inst.coalesced_sends = &registry.GetCounter("tx.coalesced_sends", "ops");
  inst.coalesced_bytes = &registry.GetCounter("tx.coalesced_bytes", "bytes");
  inst.coalesce_flush_maxbytes =
      &registry.GetCounter("tx.coalesce_flush_maxbytes", "flushes");
  inst.coalesce_flush_timeout =
      &registry.GetCounter("tx.coalesce_flush_timeout", "flushes");
  inst.coalesce_flush_advert =
      &registry.GetCounter("tx.coalesce_flush_advert", "flushes");
  inst.coalesce_flush_phase =
      &registry.GetCounter("tx.coalesce_flush_phase", "flushes");
  inst.coalesce_flush_close =
      &registry.GetCounter("tx.coalesce_flush_close", "flushes");
  inst.coalesce_flush_ordering =
      &registry.GetCounter("tx.coalesce_flush_ordering", "flushes");
  inst.doorbell_batches = &registry.GetCounter("doorbell.batches", "doorbells");
  inst.doorbell_wrs = &registry.GetCounter("doorbell.wrs_batched", "wrs");
  inst.sendv_calls = &registry.GetCounter("tx.sendv_calls", "ops");
  inst.mr_registrations = &registry.GetCounter("mr.registrations", "regions");
  inst.mr_cache_hits = &registry.GetCounter("mr.cache_hits", "pins");

  inst.recvs_completed = &registry.GetCounter("rx.recvs_completed", "ops");
  inst.bytes_received = &registry.GetCounter("rx.bytes_received", "bytes");
  inst.adverts_sent = &registry.GetCounter("rx.adverts_sent", "messages");
  inst.acks_sent = &registry.GetCounter("rx.acks_sent", "messages");
  inst.acks_piggybacked =
      &registry.GetCounter("rx.acks_piggybacked", "messages");
  inst.direct_bytes_received =
      &registry.GetCounter("rx.direct_bytes_received", "bytes");
  inst.indirect_bytes_received =
      &registry.GetCounter("rx.indirect_bytes_received", "bytes");
  inst.bytes_copied_out = &registry.GetCounter("rx.bytes_copied_out", "bytes");
  inst.copy_busy_time = &registry.GetCounter("rx.copy_busy_time", "ps");
  inst.advert_rtt = &registry.GetHistogram("rx.advert_rtt", "ps");
  inst.rx_phase = &registry.GetGauge("rx.phase", "phase");
  inst.rx_phase_dwell_direct =
      &registry.GetHistogram("rx.phase_dwell_direct", "ps");
  inst.rx_phase_dwell_indirect =
      &registry.GetHistogram("rx.phase_dwell_indirect", "ps");
  inst.rx_ring_occupancy = &registry.GetSeries("rx.ring_occupancy", "bytes");

  inst.send_credits = &registry.GetSeries("channel.send_credits", "credits");
  inst.credit_messages_sent =
      &registry.GetCounter("channel.credit_messages_sent", "messages");

  inst.transport_kills =
      &registry.GetCounter("recovery.transport_kills", "kills");
  inst.resumes = &registry.GetCounter("recovery.resumes", "resumes");
  inst.retransmitted_bytes =
      &registry.GetCounter("recovery.retransmitted_bytes", "bytes");
  inst.resume_latency = &registry.GetHistogram("recovery.resume_latency", "ps");

  return inst;
}

}  // namespace exs
