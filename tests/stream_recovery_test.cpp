// Fatal-fault recovery: directed kill/resume pins, the already-dead-QP
// no-op regression, the resume-aware invariant rules, and the equivalence
// property — for any (seed, kill point, workload variant) the delivered
// byte stream of a killed-and-resumed run is byte-identical to the
// unkilled golden run (the twin harness in tools/torture.cpp compares FNV
// fingerprints of the delivered payloads).  A recorded corpus of twin-run
// fingerprints pins the recovery schedule itself; regenerate after an
// intentional protocol change with
//
//   EXS_UPDATE_GOLDEN=1 ./fault_test --gtest_filter='StreamRecoveryGolden*'
//
// The same loop pins one torture fingerprint per mode, profile and
// pinnable shape knob (tests/data/torture_golden.txt, regenerated with
// --gtest_filter='TortureGolden*').
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/mux.hpp"
#include "simnet/faults.hpp"
#include "torture.hpp"

namespace exs {
namespace {

using simnet::FaultInjector;
using simnet::FaultKind;
using simnet::FaultPlan;
using simnet::HardwareProfile;

StreamOptions RecoveryOpts() {
  StreamOptions opts;
  opts.recovery.enabled = true;
  opts.intermediate_buffer_bytes = 64 * 1024;
  return opts;
}

/// The kill flushes one side instantly; the peer's QPs die one ack delay
/// later.  Pump simulated time until both transport halves are down.
void AwaitBothDead(Simulation& sim, Socket* a, Socket* b) {
  for (int i = 0; i < 1000 && !(a->TransportDead() && b->TransportDead());
       ++i) {
    sim.RunFor(Microseconds(50));
  }
  ASSERT_TRUE(a->TransportDead());
  ASSERT_TRUE(b->TransportDead());
}

void ExpectCleanChecker(Socket* client, Socket* server) {
  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
}

std::uint64_t CounterValue(Socket* s, const char* name, const char* unit) {
  const auto& named = s->metrics_registry().counters().at(name);
  EXPECT_EQ(named.unit, unit) << name;
  return named.instrument->value();
}

// Kill the connection before the receiver has ever advertised: the resume
// handshake must cope with a zero delivered frontier and untouched ring
// cursors, and the stream must then run to completion normally.
TEST(StreamRecoveryTest, KillBeforeFirstAdvert) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/5,
                 /*carry_payload=*/true);
  auto [client, server] =
      sim.CreateConnectedPair(SocketType::kStream, RecoveryOpts());
  client->EnableTracing();
  server->EnableTracing();

  ASSERT_TRUE(client->KillTransport());
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);

  constexpr std::uint64_t kTotal = 64 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, 5);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  client->Send(out.data(), kTotal);
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 5), in.size());
  EXPECT_EQ(server->stream_rx()->sequence(), kTotal);
  EXPECT_EQ(CounterValue(client, "recovery.transport_kills", "kills"), 1u);
  EXPECT_EQ(CounterValue(client, "recovery.resumes", "resumes"), 1u);
  ExpectCleanChecker(client, server);
}

// Kill while WWI chunks are in flight: the sender's completed-but-
// undelivered suffix (the completion fallacy — a send completion is not
// delivery) must be retransmitted from the staging log, and the receiver
// must end gap-free and duplicate-free at exactly `total` bytes.
TEST(StreamRecoveryTest, KillMidChunkRetransmitsUndeliveredSuffix) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/11,
                 /*carry_payload=*/true);
  auto [client, server] =
      sim.CreateConnectedPair(SocketType::kStream, RecoveryOpts());
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kTotal = 192 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, 11);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  client->Send(out.data(), kTotal);

  // Advance until delivery is mid-stream AND posted bytes run ahead of the
  // delivered frontier — chunks are in flight, so the kill strands a
  // completed-but-undelivered suffix that only retransmission can recover.
  bool armed = false;
  for (int i = 0; i < 400000 && !armed; ++i) {
    sim.RunFor(Nanoseconds(500));
    armed = server->stream_rx()->sequence() >= 16 * 1024 &&
            client->stream_tx()->sequence() >
                server->stream_rx()->DeliveredFrontier();
  }
  ASSERT_TRUE(armed) << "no instant with chunks in flight mid-stream";
  ASSERT_LT(server->stream_rx()->sequence(), kTotal);
  ASSERT_TRUE(client->KillTransport());
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 11), in.size());
  EXPECT_EQ(client->stream_tx()->sequence(), kTotal);
  EXPECT_EQ(server->stream_rx()->sequence(), kTotal);
  EXPECT_GT(CounterValue(client, "recovery.retransmitted_bytes", "bytes"), 0u);
  ExpectCleanChecker(client, server);
}

// Striped connection killed while the receiver's stripe reorder buffer
// holds chunks that arrived ahead of sequence: resume must discard the
// partial reassembly state, restart stripe numbering at zero, and still
// deliver the stream intact.
TEST(StreamRecoveryTest, KillWithOccupiedStripeReorderBuffer) {
  StreamOptions opts = RecoveryOpts();
  opts.rails = 4;
  opts.max_wwi_chunk = 4 * 1024;
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/23,
                 /*carry_payload=*/true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kTotal = 256 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, 23);
  client->Send(out.data(), kTotal);

  // Step in small slices until chunks are parked in the reorder buffer
  // (rails drain unevenly, so a later stripe overtakes an earlier one).
  std::size_t deepest = 0;
  for (int i = 0; i < 200000 && deepest == 0; ++i) {
    sim.RunFor(Nanoseconds(500));
    deepest = std::max(deepest, server->stream_rx()->StripeReorderDepth());
  }
  EXPECT_GT(deepest, 0u)
      << "workload never parked a chunk in the stripe reorder buffer";

  ASSERT_TRUE(server->KillTransport());
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 23), in.size());
  EXPECT_EQ(server->stream_rx()->sequence(), kTotal);
  EXPECT_EQ(client->effective_rails(), 4u);
  ExpectCleanChecker(client, server);
}

// A second kill landing immediately after ResumePair — while the resume
// handshake's re-sent control traffic is still in flight — must flush
// cleanly and allow a second resume to finish the stream.
TEST(StreamRecoveryTest, DoubleKillDuringResume) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/31,
                 /*carry_payload=*/true);
  auto [client, server] =
      sim.CreateConnectedPair(SocketType::kStream, RecoveryOpts());
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kTotal = 128 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, 31);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  client->Send(out.data(), kTotal);
  for (int i = 0; i < 100000 && server->stream_rx()->sequence() < 8 * 1024;
       ++i) {
    sim.RunFor(Microseconds(5));
  }
  ASSERT_TRUE(client->KillTransport());
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);

  // No simulated time has passed since the resume: everything it re-sent
  // is still in flight when the second kill lands — this time on the
  // other side, so both kill directions are covered.
  ASSERT_TRUE(server->KillTransport());
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 31), in.size());
  EXPECT_EQ(server->stream_rx()->sequence(), kTotal);
  EXPECT_EQ(CounterValue(client, "recovery.transport_kills", "kills"), 2u);
  EXPECT_EQ(CounterValue(client, "recovery.resumes", "resumes"), 2u);
  ExpectCleanChecker(client, server);
}

// Rail failover: a 4-rail striped stream resumes onto 2 surviving rails.
// The unacknowledged suffix is re-chunked across the new rail set with
// stripe numbering restarted at zero; the checker's resume-aware rules
// accept the shrunken rail count and the stream must arrive intact.
TEST(StreamRecoveryTest, RailFailoverRechunksAcrossSurvivingRails) {
  StreamOptions opts = RecoveryOpts();
  opts.rails = 4;
  opts.max_wwi_chunk = 8 * 1024;
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/41,
                 /*carry_payload=*/true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();
  ASSERT_EQ(client->effective_rails(), 4u);

  constexpr std::uint64_t kTotal = 256 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, 41);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  client->Send(out.data(), kTotal);
  for (int i = 0; i < 100000 && server->stream_rx()->sequence() < 32 * 1024;
       ++i) {
    sim.RunFor(Microseconds(5));
  }
  ASSERT_LT(server->stream_rx()->sequence(), kTotal);
  ASSERT_TRUE(client->KillTransport());
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server, /*max_rails=*/2);
  EXPECT_EQ(client->effective_rails(), 2u);
  EXPECT_EQ(server->effective_rails(), 2u);
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 41), in.size());
  EXPECT_EQ(server->stream_rx()->sequence(), kTotal);
  ExpectCleanChecker(client, server);
}

// Under recovery every send snapshots its payload into a registered
// buffer.  A record pruned from the retransmission log deregisters its
// snapshot, so live registrations stay within the log depth of the
// pre-traffic count instead of growing with every send.
TEST(StreamRecoveryTest, PrunedSnapshotsAreDeregistered) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/13,
                 /*carry_payload=*/true);
  auto [client, server] =
      sim.CreateConnectedPair(SocketType::kStream, RecoveryOpts());
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(4096), in(4096);
  FillPattern(out.data(), out.size(), 0, 13);
  client->RegisterMemory(out.data(), out.size());
  server->RegisterMemory(in.data(), in.size());
  const verbs::Device& device = sim.device(0);
  const std::size_t before = device.RegisteredRegionCount();
  constexpr int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
    client->Send(out.data(), out.size());
    sim.Run();
    ASSERT_EQ(VerifyPattern(in.data(), in.size(), 0, 13), in.size());
  }
  const std::size_t depth = client->stream_tx()->RetransmitLogDepth();
  EXPECT_LT(depth, 8u);
  EXPECT_LE(device.RegisteredRegionCount(), before + depth + 1);
  ExpectCleanChecker(client, server);
}

// Doorbell batching meets a kill in the same simulated instant as a Send,
// before the deferred doorbell event runs: the channel posts the pending
// batch into the killed queue pair, where every WR is refused with an
// immediate flush.  The resumed connection still delivers byte-exact, and
// the batching audit, which spans every queue pair the rail has had, must
// count those refused posts the same way on both sides of its rules.
TEST(StreamRecoveryTest, KillBeforeDeferredDoorbellFlushesPendingBatch) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/59,
                 /*carry_payload=*/true);
  StreamOptions opts = RecoveryOpts();
  opts.batching.doorbell = true;
  opts.batching.max_wrs = 8;
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kSend = 512;
  constexpr int kSends = 4;
  std::vector<std::uint8_t> out(kSends * kSend), in(kSends * kSend, 0);
  FillPattern(out.data(), out.size(), 0, 59);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  for (int i = 0; i < kSends; ++i) client->Send(out.data() + i * kSend, kSend);
  ASSERT_GT(client->rail(0).PendingBatchedWrs(), 0u);
  const std::uint64_t flushed = client->rail(0).qp_stats().flushed_wrs;
  ASSERT_TRUE(client->KillTransport());
  EXPECT_EQ(client->rail(0).PendingBatchedWrs(), 0u);
  EXPECT_GT(client->rail(0).qp_stats().flushed_wrs, flushed)
      << "the pending batch never reached the killed queue pair";

  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 59), in.size());
  EXPECT_GT(client->stats().doorbell_batches, 0u);
  ExpectCleanChecker(client, server);
}

// Regression: a fault scheduled against an already-dead transport is a
// guaranteed no-op — not a second flush, not a dangling callback.  Both
// the direct API and the FaultInjector path must agree, and a kill
// arriving after a resume must land on the *new* transport.  Swept over
// the three ways a socket reaches the wire, since KillTransport and
// TransportDead loop over whatever rails the socket holds: one dedicated
// rail, four striped rails, and one MuxStream on a width-1 group.
struct TransportWiring {
  const char* name;
  std::uint32_t rails;
  bool muxed;
};

void PrintTo(const TransportWiring& w, std::ostream* os) { *os << w.name; }

class StreamRecoveryKillTest
    : public ::testing::TestWithParam<TransportWiring> {};

/// What kills of `s` have flushed so far: the error-flushed work requests
/// of its rails' queue pairs, or its group's virtual kills when muxed.
std::uint64_t Flushed(Socket* s) {
  if (s->Muxed()) return s->mux_stream()->group().stats().virtual_kills;
  std::uint64_t flushed = 0;
  for (std::size_t r = 0; r < s->effective_rails(); ++r) {
    flushed += s->rail(r).qp_stats().flushed_wrs;
  }
  return flushed;
}

TEST_P(StreamRecoveryKillTest, KillOnDeadTransportIsNoOp) {
  const TransportWiring& wiring = GetParam();
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/47,
                 /*carry_payload=*/true);
  StreamOptions opts = RecoveryOpts();
  opts.rails = wiring.rails;
  std::unique_ptr<MuxGroup> g0, g1;
  std::pair<Socket*, Socket*> pair;
  if (wiring.muxed) {
    MuxOptions mopts;
    mopts.width = 1;
    g0 = std::make_unique<MuxGroup>(sim.device(0), mopts);
    g1 = std::make_unique<MuxGroup>(sim.device(1), mopts);
    MuxGroup::Connect(*g0, *g1);
    pair = sim.CreateMuxedPair(*g0, *g1, opts);
  } else {
    pair = sim.CreateConnectedPair(SocketType::kStream, opts);
  }
  auto [client, server] = pair;
  ASSERT_EQ(client->effective_rails(), wiring.rails);
  ASSERT_EQ(client->Muxed(), wiring.muxed);
  client->EnableTracing();
  server->EnableTracing();

  FaultInjector injector(sim.fabric());
  injector.AttachKillTarget(0, client);
  injector.AttachKillTarget(1, server);
  FaultPlan plan;
  simnet::FaultEvent ev;
  ev.kind = FaultKind::kQpKill;
  ev.target = 0;
  ev.at = sim.Now() + Microseconds(10);
  plan.events.push_back(ev);          // lands on a dead transport: no-op
  ev.at = sim.Now() + Microseconds(20);
  plan.events.push_back(ev);          // ditto — double-scheduled kill
  ev.at = sim.Now() + Milliseconds(2);
  plan.events.push_back(ev);          // lands after the resume: applies
  injector.Arm(plan);

  // Manual kill first: a second one, and both planned near-term kills,
  // then hit a corpse and flush nothing.
  ASSERT_TRUE(client->KillTransport());
  const std::uint64_t flushed = Flushed(client);
  EXPECT_GT(flushed, 0u);
  EXPECT_FALSE(client->KillTransport());
  EXPECT_EQ(Flushed(client), flushed);
  AwaitBothDead(sim, client, server);
  sim.RunFor(Microseconds(100));
  EXPECT_EQ(injector.KillsApplied(), 0u);
  EXPECT_EQ(injector.FaultsApplied(), 2u);
  EXPECT_EQ(Flushed(client), flushed);
  EXPECT_EQ(CounterValue(client, "recovery.transport_kills", "kills"), 1u);

  Socket::ResumePair(*client, *server);
  EXPECT_FALSE(client->TransportDead());
  EXPECT_FALSE(server->TransportDead());
  constexpr std::uint64_t kTotal = 96 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, 47);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  client->Send(out.data(), kTotal);
  sim.Run();  // the third kill fires against the revived transport

  EXPECT_EQ(injector.KillsApplied(), 1u);
  EXPECT_EQ(CounterValue(client, "recovery.transport_kills", "kills"), 2u);
  // The counts cover every queue pair a rail has had: the second kill's
  // flushes add to the first's instead of restarting from the fresh pair.
  EXPECT_GT(Flushed(client), flushed);
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 47), in.size());
  EXPECT_EQ(server->stream_rx()->sequence(), kTotal);
  EXPECT_EQ(client->effective_rails(), wiring.rails);
  ExpectCleanChecker(client, server);
}

INSTANTIATE_TEST_SUITE_P(
    Wiring, StreamRecoveryKillTest,
    ::testing::Values(TransportWiring{"dedicated", 1, false},
                      TransportWiring{"rails4", 4, false},
                      TransportWiring{"mux1", 1, true}),
    [](const ::testing::TestParamInfo<TransportWiring>& info) {
      return std::string(info.param.name);
    });

// The resume-aware gap-free/duplicate-free rule: the receiver-side byte
// continuity check runs *through* kill/resume markers unreset, so a
// duplicated delivery after a resume is still a violation.
TEST(StreamRecoveryTest, CheckerRejectsDuplicateDeliveryAcrossResume) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/53,
                 /*carry_payload=*/true);
  auto [client, server] =
      sim.CreateConnectedPair(SocketType::kStream, RecoveryOpts());
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kTotal = 64 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  FillPattern(out.data(), out.size(), 0, 53);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  client->Send(out.data(), kTotal);
  for (int i = 0; i < 100000 && server->stream_rx()->sequence() < 8 * 1024;
       ++i) {
    sim.RunFor(Microseconds(5));
  }
  ASSERT_TRUE(client->KillTransport());
  AwaitBothDead(sim, client, server);
  Socket::ResumePair(*client, *server);
  sim.Run();

  // The honest trace is clean...
  InvariantCheckOptions opts;
  opts.rx_ring_capacity = server->stream_rx()->ring_capacity();
  EXPECT_TRUE(CheckStreamReceiverTrace(server->rx_trace(), opts).ok());

  // ...but replaying one delivery event (a duplicate byte range, exactly
  // what a resume that ignored the delivered frontier would produce) must
  // be convicted by the continuity rule.
  TraceLog forged;
  forged.Enable();
  const TraceEvent* last_delivery = nullptr;
  for (const TraceEvent& ev : server->rx_trace().events()) {
    forged.Record(ev);
    if (ev.type == TraceEventType::kDirectArrived ||
        ev.type == TraceEventType::kCopyOut) {
      last_delivery = &ev;
    }
  }
  ASSERT_NE(last_delivery, nullptr);
  forged.Record(*last_delivery);
  InvariantReport report = CheckStreamReceiverTrace(forged, opts);
  EXPECT_FALSE(report.ok());
  bool continuity_conviction = false;
  for (const std::string& v : report.violations) {
    if (v.find("not contiguous") != std::string::npos) {
      continuity_conviction = true;
    }
  }
  EXPECT_TRUE(continuity_conviction) << report.Summary();
}

// Engine-accepted sockets (shared buffer pool + SRQ-backed control slots)
// recover too: the resumed channel re-adopts its slot reservation instead
// of re-reserving, the untouched second stream is not perturbed, and both
// leases return to the pool after EOF.
TEST(StreamRecoveryTest, EngineSocketResumesWithSharedSlotReservation) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/61,
                 /*carry_payload=*/true);
  engine::ProgressEngine engine(sim.fabric().node(1).cpu(),
                                engine::ProgressEngineOptions{});
  StreamOptions opts = RecoveryOpts();
  opts.credits = 8;
  engine::AcceptorOptions aopts;
  aopts.pool = {.pool_bytes = 2 * opts.intermediate_buffer_bytes,
                .lease_bytes = opts.intermediate_buffer_bytes,
                .high_watermark = 1.0,
                .low_watermark = 1.0};
  aopts.control_slots = 2 * opts.credits;
  engine::Acceptor acceptor(sim.device(1), engine, aopts);

  constexpr std::uint64_t kPerStream = 96 * 1024;
  struct Rx {
    Socket* socket = nullptr;
    std::vector<std::uint8_t> data;
    std::uint64_t received = 0;
    bool eof = false;
  };
  std::vector<std::unique_ptr<Rx>> rxs;
  std::unordered_map<Socket*, Rx*> rx_by_socket;
  acceptor.Listen(
      sim.connections(), 4000, opts,
      [&](Socket& s, const Event& ev) {
        auto it = rx_by_socket.find(&s);
        if (it == rx_by_socket.end()) return;
        if (ev.type == EventType::kRecvComplete) {
          it->second->received += ev.bytes;
        }
        if (ev.type == EventType::kPeerClosed) it->second->eof = true;
      },
      [&](Socket& s) {
        auto rx = std::make_unique<Rx>();
        rx->socket = &s;
        rx->data.resize(kPerStream);
        s.Recv(rx->data.data(), kPerStream, RecvFlags{.waitall = true});
        rx_by_socket.emplace(&s, rx.get());
        rxs.push_back(std::move(rx));
      });

  std::vector<Socket*> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(sim.Connect(0, 4000, SocketType::kStream, opts,
                                  [](Socket*) {}));
  }
  sim.Run();
  ASSERT_EQ(rxs.size(), 2u);

  std::vector<std::vector<std::uint8_t>> payloads(2);
  for (int i = 0; i < 2; ++i) {
    payloads[i].resize(kPerStream);
    FillPattern(payloads[i].data(), kPerStream, 0, 61 + i);
    clients[i]->Send(payloads[i].data(), kPerStream);
  }
  for (int i = 0; i < 100000 && rxs[0]->socket->stream_rx()->sequence() <
                                    8 * 1024;
       ++i) {
    sim.RunFor(Microseconds(5));
  }
  ASSERT_TRUE(clients[0]->KillTransport());
  AwaitBothDead(sim, clients[0], rxs[0]->socket);
  Socket::ResumePair(*clients[0], *rxs[0]->socket);
  sim.Run();
  for (int i = 0; i < 2; ++i) {
    clients[i]->Close();
  }
  sim.Run();

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(rxs[i]->received, kPerStream) << "stream " << i;
    EXPECT_EQ(VerifyPattern(rxs[i]->data.data(), kPerStream, 0, 61 + i),
              kPerStream)
        << "stream " << i;
    EXPECT_TRUE(rxs[i]->eof) << "stream " << i;
  }
  EXPECT_EQ(acceptor.pool().LeasesActive(), 0u)
      << "leases must return to the pool after EOF, resume included";
}

// ---------------------------------------------------------------------------
// The equivalence property, swept: kill offsets × profiles × workload
// variants (classic dynamic, coalesce, striped).  Each case is a twin run
// — unkilled golden and killed/resumed — and passes only when both legs
// deliver the byte-identical stream (payload FNV fingerprints equal).
// ---------------------------------------------------------------------------

// The kill-mode harness derives its workload variant from the seed with
// this exact domain separation; mirror it to pick one seed per variant so
// the sweep provably covers all three chunking disciplines.
std::uint64_t KillVariantForSeed(std::uint64_t seed) {
  return SplitMix64(seed ^ 0x4b111f7e57a7e5ull).Next() % 3;
}

TEST(StreamRecoveryProperty, KilledRunsMatchUnkilledGoldenFingerprints) {
  std::uint64_t variant_seed[3] = {0, 0, 0};
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 64 && found < 3; ++seed) {
    std::uint64_t v = KillVariantForSeed(seed);
    if (variant_seed[v] == 0) {
      variant_seed[v] = seed;
      ++found;
    }
  }
  ASSERT_EQ(found, 3) << "no seed in 1..64 produced every workload variant";

  std::vector<torture::TortureConfig> cases;
  for (std::uint64_t seed : variant_seed) {
    for (std::uint32_t permille : {80u, 250u, 400u}) {
      torture::TortureConfig cfg;
      cfg.seed = seed;
      cfg.mode = "kill";
      cfg.profile = "fdr";
      cfg.kill_permille = permille;
      cases.push_back(cfg);
    }
  }
  {
    // Pinned rails (forced stripe) and the WAN profile, one case each.
    torture::TortureConfig cfg;
    cfg.seed = 7;
    cfg.mode = "kill";
    cfg.profile = "fdr";
    cfg.rails = 2;
    cfg.kill_permille = 250;
    cases.push_back(cfg);
    cfg.rails = 0;
    cfg.profile = "wan";
    cases.push_back(cfg);
  }

  for (const torture::TortureConfig& cfg : cases) {
    torture::TortureResult res = torture::RunTorture(cfg);
    EXPECT_TRUE(res.ok) << torture::EncodeCorpusEntry(cfg) << "\n"
                        << res.Describe();
    EXPECT_EQ(res.kills_applied, 1u) << torture::EncodeCorpusEntry(cfg);
  }
}

// ---------------------------------------------------------------------------
// Recorded torture fingerprints (the stream_golden_test convention): a
// corpus file pins the exact run of each configuration it lists — for the
// kill twin the recovery schedule (retransmission postings, resume
// markers, both delivered payloads), for every other mode the chained
// trace fingerprints.  Each entry also runs twice in-process as the
// determinism witness.
// ---------------------------------------------------------------------------

/// The recorded-corpus loop.  With EXS_UPDATE_GOLDEN set it rewrites
/// `path` as `header` plus one fingerprinted entry per `regenerate`
/// configuration; otherwise every recorded entry must pass, replay
/// identically, and reproduce its recorded fingerprint.
void ExpectCorpusFingerprints(
    const char* path, const char* header,
    const std::vector<torture::TortureConfig>& regenerate) {
  if (std::getenv("EXS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot rewrite " << path;
    file << header;
    file.close();
    for (const torture::TortureConfig& cfg : regenerate) {
      torture::TortureResult res = torture::RunTorture(cfg);
      ASSERT_TRUE(res.ok) << torture::EncodeCorpusEntry(cfg) << "\n"
                          << res.Describe();
      torture::AppendCorpusEntry(path, cfg, res.fingerprint);
    }
    GTEST_SKIP() << "corpus regenerated at " << path;
  }

  std::vector<torture::TortureConfig> entries = torture::LoadCorpus(path);
  ASSERT_FALSE(entries.empty());
  for (const torture::TortureConfig& cfg : entries) {
    torture::TortureResult first = torture::RunTorture(cfg);
    torture::TortureResult second = torture::RunTorture(cfg);
    EXPECT_TRUE(first.ok) << torture::EncodeCorpusEntry(cfg) << "\n"
                          << first.Describe();
    EXPECT_EQ(first.fingerprint, second.fingerprint)
        << "nondeterministic twin run: " << torture::EncodeCorpusEntry(cfg);
    EXPECT_EQ(first.fingerprint, cfg.expect_fingerprint)
        << "run drifted from the recorded corpus entry: "
        << torture::EncodeCorpusEntry(cfg)
        << " (intentional change? regenerate with EXS_UPDATE_GOLDEN=1)";
  }
}

constexpr const char* kRecoveryCorpusPath =
    EXS_TEST_DATA_DIR "/recovery_golden.txt";

std::vector<torture::TortureConfig> RecoveryGoldenConfigs() {
  std::vector<torture::TortureConfig> cfgs;
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    torture::TortureConfig cfg;
    cfg.seed = seed;
    cfg.mode = "kill";
    cfg.profile = "fdr";
    cfg.kill_permille = static_cast<std::uint32_t>(100 + 70 * seed);
    cfgs.push_back(cfg);
  }
  torture::TortureConfig cfg;
  cfg.seed = 5;
  cfg.mode = "kill";
  cfg.profile = "fdr";
  cfg.rails = 2;
  cfg.kill_permille = 250;
  cfgs.push_back(cfg);
  cfg.rails = 0;
  cfg.seed = 1;
  cfg.profile = "wan";
  cfg.kill_permille = 200;
  cfgs.push_back(cfg);
  return cfgs;
}

TEST(StreamRecoveryGolden, TwinRunFingerprintsMatchCorpus) {
  ExpectCorpusFingerprints(
      kRecoveryCorpusPath,
      "# Twin-run recovery fingerprints (kill mode): chained FNV of\n"
      "# the golden payload, the killed payload, and the killed\n"
      "# leg's trace fingerprint.  Regenerate with\n"
      "# EXS_UPDATE_GOLDEN=1 (see stream_recovery_test.cpp).\n",
      RecoveryGoldenConfigs());
}

constexpr const char* kTortureCorpusPath =
    EXS_TEST_DATA_DIR "/torture_golden.txt";

/// One run per mode but `kill` (recovery_golden.txt pins it) on each
/// profile, then one run per pinnable shape knob and one without faults.
std::vector<torture::TortureConfig> TortureGoldenConfigs() {
  std::vector<torture::TortureConfig> cfgs;
  // From seed 2: at seed 1 on fdr, dynamic, indirect and coalesce run the
  // same schedule, which would pin one run three times.
  std::uint64_t seed = 2;
  for (const char* profile : {"fdr", "iwarp", "wan"}) {
    for (const char* mode : {"dynamic", "direct", "indirect", "coalesce",
                             "stripe", "seqpacket", "many", "mux", "batch",
                             "rpc"}) {
      torture::TortureConfig cfg;
      cfg.seed = seed;
      cfg.profile = profile;
      cfg.mode = mode;
      cfgs.push_back(cfg);
    }
    ++seed;
  }
  auto pinned = [&cfgs](const char* mode) -> torture::TortureConfig& {
    torture::TortureConfig cfg;
    cfg.seed = 5;
    cfg.mode = mode;
    cfgs.push_back(cfg);
    return cfgs.back();
  };
  pinned("stripe").rails = 3;
  pinned("many").streams = 3;
  pinned("mux").streams = 3;
  pinned("mux").width = 3;
  pinned("rpc").streams = 3;
  pinned("rpc").width = 3;
  torture::TortureConfig& batch = pinned("batch");
  batch.batch = 4;
  batch.arity = 4;
  pinned("dynamic").enable_faults = false;
  return cfgs;
}

TEST(TortureGolden, EveryModeFingerprintMatchesCorpus) {
  ExpectCorpusFingerprints(
      kTortureCorpusPath,
      "# Torture fingerprints, one run per mode (kill excepted: see\n"
      "# recovery_golden.txt) on each profile, then one per pinned shape\n"
      "# knob and one without faults.  Regenerate with\n"
      "# EXS_UPDATE_GOLDEN=1 (see stream_recovery_test.cpp).\n",
      TortureGoldenConfigs());
}

}  // namespace
}  // namespace exs
