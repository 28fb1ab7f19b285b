// Directed pins for multi-rail striping (StreamOptions::rails): in-order
// reassembly via the per-stream delivery sequence, rail negotiation,
// rail choice, the striped orderly close, wire-header accounting,
// and trace-level parity with the classic protocol at rails = 1.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "verbs/types.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

StreamOptions Railed(std::uint32_t rails,
                     std::uint64_t max_chunk = 64 * kKiB) {
  StreamOptions opts;
  opts.rails = rails;
  opts.max_wwi_chunk = max_chunk;  // force multi-chunk sends
  return opts;
}

std::uint64_t CounterValue(const Socket& socket, const std::string& name) {
  const auto& counters = socket.metrics_registry().counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.instrument->value();
}

/// Distinct rails named by posted events (msg_phase on striped posts).
std::size_t DistinctPostRails(const TraceLog& log) {
  std::vector<bool> seen(64, false);
  std::size_t distinct = 0;
  for (const auto& ev : log.events()) {
    if (ev.type != TraceEventType::kDirectPosted &&
        ev.type != TraceEventType::kIndirectPosted) {
      continue;
    }
    if (!seen[ev.msg_phase]) {
      seen[ev.msg_phase] = true;
      ++distinct;
    }
  }
  return distinct;
}

class StreamStripingTest : public ::testing::Test {
 protected:
  Simulation sim_{HardwareProfile::FdrInfiniBand(), /*seed=*/7,
                  /*carry_payload=*/true};
};

// A stream striped across four rails delivers the exact byte sequence the
// application submitted, uses every rail, and the receiver's reassembly
// counter matches the sender's stripe counter.
TEST_F(StreamStripingTest, StripedTransferDeliversBytesInOrder) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, Railed(4));
  client->EnableTracing();
  server->EnableTracing();
  EXPECT_EQ(client->effective_rails(), 4u);
  EXPECT_EQ(server->effective_rails(), 4u);

  std::vector<std::uint8_t> out(512 * kKiB), in(512 * kKiB);
  FillPattern(out.data(), out.size(), 0, 11);
  // Send first so the opening chunks go indirect; the receive posted
  // mid-flight flips later chunks direct — both kinds ride the rails.
  client->Send(out.data(), out.size());
  sim_.RunFor(Microseconds(10));
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(server->stats().recvs_completed, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 11), in.size());
  EXPECT_EQ(DistinctPostRails(client->tx_trace()), 4u);
  EXPECT_EQ(client->stream_tx()->NextStripeSeq(),
            server->stream_rx()->NextStripeSeq());
  EXPECT_GE(client->stream_tx()->NextStripeSeq(), 8u);

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// The two sides provision different rail counts; the connection settles on
// the minimum and never names a rail beyond it.
TEST_F(StreamStripingTest, NegotiationSettlesOnMinimum) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, Railed(4), Railed(2));
  client->EnableTracing();
  server->EnableTracing();
  EXPECT_EQ(client->ProvisionedRails(), 4u);
  EXPECT_EQ(server->ProvisionedRails(), 2u);
  EXPECT_EQ(client->effective_rails(), 2u);
  EXPECT_EQ(server->effective_rails(), 2u);

  std::vector<std::uint8_t> out(256 * kKiB), in(256 * kKiB);
  FillPattern(out.data(), out.size(), 0, 12);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 12), in.size());
  EXPECT_EQ(DistinctPostRails(client->tx_trace()), 2u);
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

/// Fixed workload used by the parity pin below.
std::uint64_t WorkloadFingerprint(StreamOptions client_opts,
                                  StreamOptions server_opts) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/7,
                 /*carry_payload=*/true);
  auto [client, server] = sim.CreateConnectedPair(
      SocketType::kStream, client_opts, server_opts);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(192 * kKiB), in(192 * kKiB);
  FillPattern(out.data(), out.size(), 0, 13);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  client->Close();
  sim.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 13), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  return ConnectionFingerprint(*client, *server);
}

// A single-rail peer pins the connection to the classic protocol: the
// trace fingerprint is bit-identical to an all-default run — no stripe
// headers, no timing change, nothing.
TEST(StreamStripingParity, SingleRailPeerPinsClassicProtocol) {
  StreamOptions classic;
  classic.max_wwi_chunk = 64 * kKiB;
  std::uint64_t striped_client = WorkloadFingerprint(Railed(4), classic);
  std::uint64_t baseline = WorkloadFingerprint(classic, classic);
  EXPECT_EQ(striped_client, baseline);
}

// Orderly close under striping: the SHUTDOWN rides rail 0 but must not
// overtake data still flying on other rails.  Close() immediately after a
// large striped send still delivers every byte before end-of-stream.
TEST_F(StreamStripingTest, ShutdownTrailsStripedData) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, Railed(4, 32 * kKiB));
  client->EnableTracing();
  server->EnableTracing();

  bool peer_closed = false;
  std::uint64_t received = 0;
  server->events().SetHandler([&](const Event& ev) {
    if (ev.type == EventType::kPeerClosed) peer_closed = true;
    if (ev.type == EventType::kRecvComplete) received += ev.bytes;
  });

  std::vector<std::uint8_t> out(1 * kMiB), in(1 * kMiB);
  FillPattern(out.data(), out.size(), 0, 15);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  client->Close();
  sim_.Run();

  EXPECT_TRUE(peer_closed);
  EXPECT_EQ(received, out.size());
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 15), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Delay one rail's incoming dispatch: chunks from the other rails park in
// the reorder buffer (delivered but not yet processed) and drain in exact
// stripe order once the held rail catches up.  End-of-stream waits for the
// reorder buffer too.
TEST_F(StreamStripingTest, HeldRailParksChunksInReorderBuffer) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, Railed(4, 32 * kKiB));
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(256 * kKiB), in(256 * kKiB);
  FillPattern(out.data(), out.size(), 0, 16);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.RunFor(Microseconds(5));  // the ADVERT reaches the sender

  // Rail 0 carries stripe 0 (ties in outstanding bytes break to the
  // lowest index), so holding it forces every other arrival to wait.
  server->rail(0).HoldIncoming(Microseconds(300));
  client->Send(out.data(), out.size());
  client->Close();
  sim_.RunFor(Microseconds(150));
  EXPECT_GT(server->stream_rx()->StripeReorderDepth(), 0u);
  EXPECT_EQ(server->stats().recvs_completed, 0u);

  sim_.Run();
  EXPECT_EQ(server->stream_rx()->StripeReorderDepth(), 0u);
  EXPECT_EQ(server->stats().recvs_completed, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 16), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// The stripe header costs exactly kStripeHeaderBytes per chunk on the
// wire.  Rail 1 of the sender carries nothing but data chunks here, so its
// wire/payload counter difference is the per-chunk overhead, precisely.
TEST_F(StreamStripingTest, StripeHeaderChargedPerChunk) {
  StreamOptions opts = Railed(2, 32 * kKiB);
  opts.mode = ProtocolMode::kIndirectOnly;
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);

  std::vector<std::uint8_t> out(128 * kKiB), in(128 * kKiB);
  FillPattern(out.data(), out.size(), 0, 17);
  client->Send(out.data(), out.size());
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 17), in.size());

  std::uint64_t chunks = CounterValue(*client, "rail1.sends_posted");
  EXPECT_EQ(chunks, 2u);  // 4 chunks round-tripped across 2 rails
  std::uint64_t payload = CounterValue(*client, "rail1.payload_bytes_sent");
  std::uint64_t wire = CounterValue(*client, "rail1.wire_bytes_sent");
  // Data WWI overhead: base wire header + 4-byte immediate + the stripe
  // extension.
  EXPECT_EQ(wire - payload,
            chunks * (verbs::kWireHeaderBytes + 4 + verbs::kStripeHeaderBytes));
}

// Rail metrics exist exactly for the provisioned rails; a classic socket
// has rail 0 only.
TEST_F(StreamStripingTest, RailInstrumentsMatchProvisioning) {
  auto [striped, striped_peer] =
      sim_.CreateConnectedPair(SocketType::kStream, Railed(2));
  auto [classic, classic_peer] =
      sim_.CreateConnectedPair(SocketType::kStream, StreamOptions{});
  (void)striped_peer;
  (void)classic_peer;
  const auto& striped_counters = striped->metrics_registry().counters();
  const auto& classic_counters = classic->metrics_registry().counters();
  EXPECT_EQ(striped_counters.count("rail0.sends_posted"), 1u);
  EXPECT_EQ(striped_counters.count("rail1.sends_posted"), 1u);
  EXPECT_EQ(classic_counters.count("rail0.sends_posted"), 1u);
  EXPECT_EQ(classic_counters.count("rail1.sends_posted"), 0u);

  // At the rail limit every name carries its full rail number.
  StreamOptions widest = Railed(kMaxRails);
  widest.intermediate_buffer_bytes = 64 * kKiB;
  auto [wide, wide_peer] =
      sim_.CreateConnectedPair(SocketType::kStream, widest);
  (void)wide_peer;
  const metrics::Registry& r = wide->metrics_registry();
  EXPECT_EQ(r.counters().count("rail10.sends_posted"), 1u);
  EXPECT_EQ(r.counters().count("rail15.wire_bytes_sent"), 1u);
  EXPECT_EQ(r.counters().count("rail16.sends_posted"), 0u);
  EXPECT_EQ(r.histograms().count("rail15.hol_wait"), 1u);
  EXPECT_EQ(r.series().count("rail12.inflight_wrs"), 1u);
  EXPECT_EQ(r.series().at("rail15.inflight_wrs").unit, "wrs");
  EXPECT_EQ(r.counters().size(),
            classic_counters.size() + 5 * (kMaxRails - 1));
}

// SOCK_SEQPACKET and read-rendezvous sockets clamp to a single rail — a
// message or a READ never splits into chunks, so there is nothing to
// stripe — and still interoperate normally.
TEST_F(StreamStripingTest, NonStreamSocketsClampToOneRail) {
  StreamOptions packet_opts;
  packet_opts.rails = 4;
  auto [pc, ps] =
      sim_.CreateConnectedPair(SocketType::kSeqPacket, packet_opts);
  EXPECT_EQ(pc->options().rails, 1u);
  EXPECT_EQ(pc->effective_rails(), 1u);

  std::vector<std::uint8_t> msg(4 * kKiB), got(4 * kKiB);
  FillPattern(msg.data(), msg.size(), 0, 18);
  ps->Recv(got.data(), got.size());
  pc->Send(msg.data(), msg.size());
  sim_.Run();
  EXPECT_EQ(VerifyPattern(got.data(), got.size(), 0, 18), got.size());

  StreamOptions rdv_opts;
  rdv_opts.rails = 4;
  rdv_opts.mode = ProtocolMode::kReadRendezvous;
  auto [rc, rs] = sim_.CreateConnectedPair(SocketType::kStream, rdv_opts);
  EXPECT_EQ(rc->options().rails, 1u);
  EXPECT_EQ(rc->effective_rails(), 1u);
  std::vector<std::uint8_t> rout(64 * kKiB), rin(64 * kKiB);
  FillPattern(rout.data(), rout.size(), 0, 19);
  rs->Recv(rin.data(), rin.size(), RecvFlags{.waitall = true});
  rc->Send(rout.data(), rout.size());
  sim_.Run();
  EXPECT_EQ(VerifyPattern(rin.data(), rin.size(), 0, 19), rin.size());
}

// Vectored sends compose with striping: a multi-slice Sendv chunked
// across four rails (with doorbell batching armed on every rail)
// reassembles into the exact submitted byte sequence, and the per-rail
// gather/doorbell conservation audit passes.
TEST_F(StreamStripingTest, SendvStripesAcrossRailsIntact) {
  StreamOptions opts = Railed(4, /*max_chunk=*/8 * kKiB);
  opts.batching.doorbell = true;
  opts.batching.max_wrs = 4;
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream, opts);
  ASSERT_EQ(client->effective_rails(), 4u);
  client->EnableTracing();
  server->EnableTracing();

  // Three scattered slices forming one 192 KiB logical stream write —
  // large enough to split into many chunks over every rail.
  std::vector<std::uint8_t> s0(96 * kKiB), s1(64 * kKiB), s2(32 * kKiB);
  FillPattern(s0.data(), s0.size(), 0, 23);
  FillPattern(s1.data(), s1.size(), s0.size(), 23);
  FillPattern(s2.data(), s2.size(), s0.size() + s1.size(), 23);
  Socket::IoSlice iov[3] = {{s0.data(), s0.size()},
                            {s1.data(), s1.size()},
                            {s2.data(), s2.size()}};
  std::vector<std::uint8_t> in(192 * kKiB, 0);
  client->Sendv(iov, 3);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 23), in.size());
  EXPECT_GE(DistinctPostRails(client->tx_trace()), 2u);  // actually striped
  StreamStats stats = client->stats();
  EXPECT_EQ(stats.sendv_calls, 1u);
  EXPECT_GT(stats.doorbell_batches, 0u);
  EXPECT_GE(stats.batched_wrs, stats.doorbell_batches);

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Striping also negotiates over the timed listen/connect/accept handshake
// (the rail count rides the REQ/REP ring credentials).
TEST_F(StreamStripingTest, HandshakeNegotiatesRails) {
  Listener* listener = sim_.Listen(1, 9000, SocketType::kStream, Railed(2));
  Socket* accepted = nullptr;
  listener->SetAcceptHandler([&](Socket* s) { accepted = s; });
  Socket* client = sim_.Connect(0, 9000, SocketType::kStream, Railed(4),
                                [](Socket*) {});
  sim_.Run();
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(client->effective_rails(), 2u);
  EXPECT_EQ(accepted->effective_rails(), 2u);

  std::vector<std::uint8_t> out(128 * kKiB), in(128 * kKiB);
  FillPattern(out.data(), out.size(), 0, 20);
  accepted->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  sim_.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 20), in.size());
}

}  // namespace
}  // namespace exs
