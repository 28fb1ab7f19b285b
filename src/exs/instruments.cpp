#include "exs/instruments.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <string_view>
#include <variant>

#include "common/check.hpp"

namespace exs {

namespace {

using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::TimeWeightedSeries;

/// One named instrument of `Owner`: its name, its unit, and where it
/// lives.  The variant's alternatives follow Registry::Reserve's order.
template <typename Owner>
struct Binding {
  std::string_view name;
  std::string_view unit;
  std::variant<Counter Owner::*, Gauge Owner::*, Histogram Owner::*,
               TimeWeightedSeries Owner::*>
      member;
};

// The fixed socket instruments.  With kMuxSchema and kRailSchema below,
// this is the single list of socket metric names; each table is in name
// order, so binding appends to the registry's tables.
constexpr Binding<SocketInstruments> kSocketSchema[] = {
    {"channel.credit_messages_sent", "messages",
     &SocketInstruments::credit_messages_sent},
    {"channel.send_credits", "credits", &SocketInstruments::send_credits},
    {"doorbell.batches", "doorbells", &SocketInstruments::doorbell_batches},
    {"doorbell.wrs_batched", "wrs", &SocketInstruments::doorbell_wrs},
    {"recovery.resume_latency", "ps", &SocketInstruments::resume_latency},
    {"recovery.resumes", "resumes", &SocketInstruments::resumes},
    {"recovery.retransmitted_bytes", "bytes",
     &SocketInstruments::retransmitted_bytes},
    {"recovery.transport_kills", "kills", &SocketInstruments::transport_kills},
    {"rx.acks_piggybacked", "messages", &SocketInstruments::acks_piggybacked},
    {"rx.acks_sent", "messages", &SocketInstruments::acks_sent},
    {"rx.advert_rtt", "ps", &SocketInstruments::advert_rtt},
    {"rx.adverts_sent", "messages", &SocketInstruments::adverts_sent},
    {"rx.bytes_copied_out", "bytes", &SocketInstruments::bytes_copied_out},
    {"rx.bytes_received", "bytes", &SocketInstruments::bytes_received},
    {"rx.copy_busy_time", "ps", &SocketInstruments::copy_busy_time},
    {"rx.direct_bytes_received", "bytes",
     &SocketInstruments::direct_bytes_received},
    {"rx.indirect_bytes_received", "bytes",
     &SocketInstruments::indirect_bytes_received},
    {"rx.phase", "phase", &SocketInstruments::rx_phase},
    {"rx.phase_dwell_direct", "ps", &SocketInstruments::rx_phase_dwell_direct},
    {"rx.phase_dwell_indirect", "ps",
     &SocketInstruments::rx_phase_dwell_indirect},
    {"rx.recvs_completed", "ops", &SocketInstruments::recvs_completed},
    {"rx.ring_occupancy", "bytes", &SocketInstruments::rx_ring_occupancy},
    {"tx.adverts_discarded", "messages", &SocketInstruments::adverts_discarded},
    {"tx.adverts_received", "messages", &SocketInstruments::adverts_received},
    {"tx.bytes_sent", "bytes", &SocketInstruments::bytes_sent},
    {"tx.coalesce_flush_advert", "flushes",
     &SocketInstruments::coalesce_flush_advert},
    {"tx.coalesce_flush_close", "flushes",
     &SocketInstruments::coalesce_flush_close},
    {"tx.coalesce_flush_maxbytes", "flushes",
     &SocketInstruments::coalesce_flush_maxbytes},
    {"tx.coalesce_flush_ordering", "flushes",
     &SocketInstruments::coalesce_flush_ordering},
    {"tx.coalesce_flush_phase", "flushes",
     &SocketInstruments::coalesce_flush_phase},
    {"tx.coalesce_flush_timeout", "flushes",
     &SocketInstruments::coalesce_flush_timeout},
    {"tx.coalesced_bytes", "bytes", &SocketInstruments::coalesced_bytes},
    {"tx.coalesced_sends", "ops", &SocketInstruments::coalesced_sends},
    {"tx.direct_bytes", "bytes", &SocketInstruments::direct_bytes},
    {"tx.direct_transfers", "transfers", &SocketInstruments::direct_transfers},
    {"tx.indirect_bytes", "bytes", &SocketInstruments::indirect_bytes},
    {"tx.indirect_transfers", "transfers",
     &SocketInstruments::indirect_transfers},
    {"tx.inflight_wwis", "wrs", &SocketInstruments::tx_inflight_wwis},
    {"tx.mode_switches", "switches", &SocketInstruments::mode_switches},
    {"tx.phase", "phase", &SocketInstruments::tx_phase},
    {"tx.phase_dwell_direct", "ps", &SocketInstruments::tx_phase_dwell_direct},
    {"tx.phase_dwell_indirect", "ps",
     &SocketInstruments::tx_phase_dwell_indirect},
    {"tx.remote_ring_used", "bytes", &SocketInstruments::tx_remote_ring_used},
    {"tx.sends_completed", "ops", &SocketInstruments::sends_completed},
    {"tx.sendv_calls", "ops", &SocketInstruments::sendv_calls},
};

constexpr Binding<SocketInstruments> kMuxSchema[] = {
    {"mux.hol_wait", "ps", &SocketInstruments::mux_hol_wait},
    {"mux.parks", "events", &SocketInstruments::mux_parks},
};

/// Field names of rail<i>.*, from the socket's RailInstruments and from
/// the rail channel's queue-pair block; RailNames spells out the full
/// names.
constexpr Binding<RailInstruments> kRailSchema[] = {
    {"hol_wait", "ps", &RailInstruments::hol_wait},
    {"inflight_wrs", "wrs", &RailInstruments::inflight_wrs},
};

using verbs::QueuePairCounters;
constexpr Binding<QueuePairCounters> kRailQpSchema[] = {
    {"completion_latency", "ps", &QueuePairCounters::completion_latency},
    {"messages_delivered", "messages", &QueuePairCounters::messages_delivered},
    {"payload_bytes_sent", "bytes", &QueuePairCounters::payload_bytes_sent},
    {"recvs_posted", "wrs", &QueuePairCounters::recvs_posted},
    {"sends_posted", "wrs", &QueuePairCounters::sends_posted},
    {"wire_bytes_sent", "bytes", &QueuePairCounters::wire_bytes_sent},
};

template <typename Owner, std::size_t N>
constexpr bool NamesSorted(const Binding<Owner> (&schema)[N]) {
  return std::is_sorted(std::begin(schema), std::end(schema),
                        [](const auto& a, const auto& b) {
                          return a.name < b.name;
                        });
}
static_assert(NamesSorted(kSocketSchema) && NamesSorted(kMuxSchema) &&
                  NamesSorted(kRailSchema) && NamesSorted(kRailQpSchema),
              "keep each schema table in name order");

/// "rail<i>.<field>" for every rail and field of a rail schema, spelled
/// out at compile time so the registry can bind them as static names.
struct RailName {
  char text[32] = {};
  std::size_t size = 0;

  constexpr void Append(std::string_view s) {
    for (char c : s) text[size++] = c;
  }
  std::string_view view() const { return {text, size}; }
};

static_assert(kMaxRails <= 100, "rail names carry at most two digits");
template <typename Owner, std::size_t N>
constexpr auto RailNames(const Binding<Owner> (&schema)[N]) {
  std::array<std::array<RailName, N>, kMaxRails> names;
  for (std::size_t r = 0; r < kMaxRails; ++r) {
    for (std::size_t f = 0; f < N; ++f) {
      RailName& n = names[r][f];
      n.Append("rail");
      if (r >= 10) n.text[n.size++] = static_cast<char>('0' + r / 10);
      n.text[n.size++] = static_cast<char>('0' + r % 10);
      n.Append(".");
      n.Append(schema[f].name);
    }
  }
  return names;
}
constexpr auto kRailNames = RailNames(kRailSchema);
constexpr auto kRailQpNames = RailNames(kRailQpSchema);

/// Entries `schema` adds to each table, in Registry::Reserve's order.
template <typename Owner, std::size_t N>
constexpr std::array<std::size_t, 4> KindCounts(
    const Binding<Owner> (&schema)[N]) {
  std::array<std::size_t, 4> counts{};
  for (const auto& b : schema) ++counts[b.member.index()];
  return counts;
}

template <typename Owner>
void BindOne(metrics::Registry& registry, std::string_view name,
             const Binding<Owner>& binding, Owner& owner) {
  std::visit(
      [&](auto member) { registry.Bind(name, binding.unit, owner.*member); },
      binding.member);
}

}  // namespace

void BindSocketInstruments(metrics::Registry& registry,
                           SocketInstruments& inst, bool muxed,
                           std::size_t rails) {
  EXS_CHECK_MSG(rails <= kMaxRails,
                "at most " << kMaxRails << " rails have instrument names");
  constexpr auto kFixed = KindCounts(kSocketSchema);
  constexpr auto kMux = KindCounts(kMuxSchema);
  constexpr auto kRail = KindCounts(kRailSchema);
  constexpr auto kRailQp = KindCounts(kRailQpSchema);
  std::array<std::size_t, 4> total{};
  for (std::size_t k = 0; k < total.size(); ++k) {
    total[k] = kFixed[k] + (muxed ? kMux[k] : 0) +
               rails * (kRail[k] + kRailQp[k]);
  }
  registry.Reserve(total[0], total[1], total[2], total[3]);

  for (const auto& b : kSocketSchema) BindOne(registry, b.name, b, inst);
  if (muxed) {
    for (const auto& b : kMuxSchema) BindOne(registry, b.name, b, inst);
  }
}

void BindRailInstruments(metrics::Registry& registry, std::size_t rail,
                         RailInstruments& inst, verbs::QueuePairCounters& qp) {
  EXS_CHECK_MSG(rail < kMaxRails,
                "at most " << kMaxRails << " rails have instrument names");
  for (std::size_t f = 0; f < std::size(kRailSchema); ++f) {
    BindOne(registry, kRailNames[rail][f].view(), kRailSchema[f], inst);
  }
  for (std::size_t f = 0; f < std::size(kRailQpSchema); ++f) {
    BindOne(registry, kRailQpNames[rail][f].view(), kRailQpSchema[f], qp);
  }
}

}  // namespace exs
