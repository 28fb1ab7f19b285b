// The observability exporters, end to end: a dynamic-mode run must render
// to a well-formed Chrome trace-event timeline (parsed, not
// string-matched), repeated fixed-seed runs must produce bit-identical
// snapshots, and the registry's named counters must agree with the
// TraceLog — the independent record of the same run.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "blast/blast.hpp"
#include "common/json.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/timeline.hpp"
#include "exs/trace.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

/// A small mixed direct/indirect workload with tracing enabled.
blast::BlastConfig DynamicCaptureConfig() {
  blast::BlastConfig config;
  config.message_count = 60;
  config.outstanding_sends = 4;
  config.outstanding_recvs = 2;
  config.seed = 7;
  config.capture_metrics = true;
  config.capture_timeline = true;
  return config;
}

TEST(Timeline, DynamicRunExportsValidChromeTrace) {
  blast::BlastResult result = blast::RunBlast(DynamicCaptureConfig());
  ASSERT_FALSE(result.timeline_json.empty());

  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(result.timeline_json, &root, &error)) << error;
  const json::Value* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  ASSERT_FALSE(events->array_items.empty());

  // Timestamps non-decreasing, and duration spans balanced with
  // stack discipline per (pid, tid) track.
  double last_ts = -1.0;
  std::map<std::pair<double, double>, std::vector<std::string>> span_stack;
  bool saw_span = false, saw_instant = false, saw_counter = false;
  for (const json::Value& ev : events->array_items) {
    ASSERT_TRUE(ev.IsObject());
    const json::Value* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string& kind = ph->string_value;
    if (kind == "M") continue;  // metadata carries no timestamp

    const json::Value* ts = ev.Find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->IsNumber());
    EXPECT_GE(ts->number_value, last_ts);
    last_ts = ts->number_value;

    double pid = ev.Find("pid")->number_value;
    double tid = ev.Find("tid") != nullptr ? ev.Find("tid")->number_value : -1;
    const std::string& name = ev.Find("name")->string_value;
    if (kind == "B") {
      saw_span = true;
      span_stack[{pid, tid}].push_back(name);
    } else if (kind == "E") {
      auto& stack = span_stack[{pid, tid}];
      ASSERT_FALSE(stack.empty()) << "E without B for " << name;
      EXPECT_EQ(stack.back(), name);
      stack.pop_back();
    } else if (kind == "i") {
      saw_instant = true;
      ASSERT_NE(ev.Find("args"), nullptr);
      EXPECT_NE(ev.Find("args")->Find("seq"), nullptr);
    } else if (kind == "C") {
      saw_counter = true;
      ASSERT_NE(ev.Find("args")->Find("value"), nullptr);
    }
  }
  for (const auto& [track, stack] : span_stack) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on pid " << track.first;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
}

TEST(Timeline, FixedSeedRunsProduceBitIdenticalSnapshots) {
  blast::BlastResult a = blast::RunBlast(DynamicCaptureConfig());
  blast::BlastResult b = blast::RunBlast(DynamicCaptureConfig());
  ASSERT_FALSE(a.metrics_json.empty());
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.timeline_json, b.timeline_json);
}

TEST(Timeline, MetricsSnapshotParsesAndNamesEverySocket) {
  blast::BlastResult result = blast::RunBlast(DynamicCaptureConfig());
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(result.metrics_json, &root, &error)) << error;
  ASSERT_NE(root.Find("sim_time_ps"), nullptr);
  const json::Value* sockets = root.Find("sockets");
  ASSERT_NE(sockets, nullptr);
  ASSERT_EQ(sockets->array_items.size(), 2u);
  EXPECT_EQ(sockets->array_items[0].Find("name")->string_value, "client");
  EXPECT_EQ(sockets->array_items[1].Find("name")->string_value, "server");
  const json::Value* metrics = sockets->array_items[0].Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* bytes_sent =
      metrics->Find("counters")->Find("tx.bytes_sent");
  ASSERT_NE(bytes_sent, nullptr);
  EXPECT_EQ(bytes_sent->Find("value")->number_value,
            static_cast<double>(result.client_stats.bytes_sent));
}

TEST(Metrics, RegistryCountersAgreeWithTraceLog) {
  // The TraceLog is an independent record of every posted transfer; the
  // registry's byte counters (which also feed Socket::stats()) must match
  // it exactly — the refactor away from ad-hoc stats pokes cannot have
  // changed the totals.
  Simulation sim(HardwareProfile::FdrInfiniBand(), 5, false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(512 * 1024), in(512 * 1024);
  client->Send(out.data(), out.size());  // buffered first: indirect phase
  for (int i = 0; i < 8; ++i) {
    server->Recv(in.data() + i * 64 * 1024, 64 * 1024,
                 RecvFlags{.waitall = true});
    sim.RunFor(Microseconds(50));
  }
  sim.Run();

  // One more exchange with the receive posted first, so its ADVERT reaches
  // the sender and the transfer lands direct (samples rx.advert_rtt).
  std::vector<std::uint8_t> extra(64 * 1024);
  server->Recv(in.data(), extra.size(), RecvFlags{.waitall = true});
  sim.RunFor(Microseconds(50));
  client->Send(extra.data(), extra.size());
  sim.Run();

  std::uint64_t traced_direct = 0, traced_indirect = 0;
  for (const TraceEvent& ev : client->tx_trace().events()) {
    if (ev.type == TraceEventType::kDirectPosted) traced_direct += ev.len;
    if (ev.type == TraceEventType::kIndirectPosted) traced_indirect += ev.len;
  }
  StreamStats stats = client->stats();
  EXPECT_GT(traced_direct, 0u);
  EXPECT_GT(traced_indirect, 0u);
  EXPECT_EQ(stats.direct_bytes, traced_direct);
  EXPECT_EQ(stats.indirect_bytes, traced_indirect);
  EXPECT_EQ(stats.direct_bytes + stats.indirect_bytes,
            out.size() + extra.size());

  // The same numbers under their registry names.
  const auto& counters = client->metrics_registry().counters();
  EXPECT_EQ(counters.at("tx.direct_bytes").instrument->value(),
            traced_direct);
  EXPECT_EQ(counters.at("tx.indirect_bytes").instrument->value(),
            traced_indirect);

  // Time-resolved signals actually observed the run.
  const auto& series = client->metrics_registry().series();
  EXPECT_GT(series.at("tx.inflight_wwis").instrument->count(), 0u);
  EXPECT_GT(series.at("channel.send_credits").instrument->count(), 0u);
  const auto& rx_series = server->metrics_registry().series();
  EXPECT_GT(rx_series.at("rx.ring_occupancy").instrument->max(), 0.0);
  const auto& rx_hists = server->metrics_registry().histograms();
  EXPECT_GT(rx_hists.at("rx.advert_rtt").instrument->count(), 0u);
}

TEST(TraceLogCap, BoundedLogDropsAndCounts) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 9, false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing(/*capacity=*/8);
  server->EnableTracing(/*capacity=*/8);
  std::vector<std::uint8_t> buf(64 * 1024);
  for (int i = 0; i < 16; ++i) {
    server->Recv(buf.data(), buf.size(), RecvFlags{.waitall = true});
    sim.RunFor(Microseconds(30));
    client->Send(buf.data(), buf.size());
    sim.Run();
  }
  EXPECT_EQ(client->tx_trace().events().size(), 8u);
  EXPECT_GT(client->tx_trace().dropped(), 0u);
  // The retained prefix is still a sound (shorter) run for the validators.
  auto result = ValidateSenderTrace(client->tx_trace().events());
  EXPECT_TRUE(result.ok()) << result.Summary();
}

TEST(TraceLogCap, DropsSurfaceInTheMetricsSnapshot) {
  // Satellite of the provenance work: a truncated trace must be visible
  // in the ordinary metrics exports, not only via TraceLog::dropped().
  Simulation sim(HardwareProfile::FdrInfiniBand(), 9, false);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing(/*capacity=*/8);
  server->EnableTracing(/*capacity=*/8);
  std::vector<std::uint8_t> buf(64 * 1024);
  for (int i = 0; i < 16; ++i) {
    server->Recv(buf.data(), buf.size(), RecvFlags{.waitall = true});
    sim.RunFor(Microseconds(30));
    client->Send(buf.data(), buf.size());
    sim.Run();
  }
  ASSERT_GT(client->tx_trace().dropped(), 0u);
  const auto& counters = client->metrics_registry().counters();
  ASSERT_TRUE(counters.count("trace.dropped_tx"));
  EXPECT_EQ(counters.at("trace.dropped_tx").instrument->value(),
            client->tx_trace().dropped());
  ASSERT_TRUE(counters.count("trace.dropped_rx"));
  EXPECT_EQ(counters.at("trace.dropped_rx").instrument->value(),
            client->rx_trace().dropped());

  // And the checker, when told to tolerate the truncation, must say so
  // out loud instead of silently passing on the retained prefix.
  InvariantCheckOptions opts;
  opts.allow_truncated = true;
  InvariantReport report = CheckStreamSenderTrace(client->tx_trace(), opts);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings.front().find("truncated"), std::string::npos);
  EXPECT_NE(report.Summary().find("warning"), std::string::npos);
}

TEST(TraceLogCap, UnboundedByDefaultAndClearResetsDropCount) {
  metrics::Registry registry;
  TraceLog log;
  log.BindDropCounter(registry, "trace.dropped_tx");
  const metrics::Counter& named =
      *registry.counters().at("trace.dropped_tx").instrument;
  log.Enable();
  EXPECT_EQ(log.capacity(), 0u);
  for (int i = 0; i < 100; ++i) log.Record(TraceEvent{});
  EXPECT_EQ(log.events().size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);

  log.Clear();
  log.SetCapacity(10);
  for (int i = 0; i < 100; ++i) log.Record(TraceEvent{});
  EXPECT_EQ(log.events().size(), 10u);
  EXPECT_EQ(log.dropped(), 90u);
  EXPECT_EQ(named.value(), 90u);
  log.Clear();
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(named.value(), 0u) << "Clear left the named drop count behind";
  EXPECT_TRUE(log.events().empty());
}

}  // namespace
}  // namespace exs
