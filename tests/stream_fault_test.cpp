// Directed fault-injection scenarios: specific protocol races provoked by
// hand-placed faults (delayed control traffic, CPU stalls, link jitter and
// stall bursts), each asserting full stream integrity AND a clean report
// from the trace invariant checker — plus determinism and corpus-format
// coverage for the seeded torture harness built on the same machinery.
#include <gtest/gtest.h>

#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "simnet/faults.hpp"
#include "torture.hpp"

namespace exs {
namespace {

using simnet::FaultInjector;
using simnet::FaultKind;
using simnet::FaultPlan;
using simnet::FaultPlanConfig;
using simnet::HardwareProfile;

void ExpectCleanChecker(Socket* client, Socket* server) {
  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
}

class StreamFaultTest : public ::testing::Test {
 protected:
  Simulation sim_{HardwareProfile::FdrInfiniBand(), /*seed=*/77,
                  /*carry_payload=*/true};
};

// The fresh ADVERT that would flip the sender back to direct is held at
// the sender's control channel across the phase boundary.  The sender
// keeps servicing indirectly; when the hold releases, the ADVERT arrives
// stale (Fig. 8) and must be discarded — with no integrity loss.
TEST_F(StreamFaultTest, AdvertDelayedAcrossPhaseFlip) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(96 * 1024), in(96 * 1024);
  FillPattern(out.data(), out.size(), 0, 1);

  // Indirect phase: send with no receive posted.
  client->Send(out.data(), 32 * 1024);
  sim_.RunFor(Microseconds(100));
  ASSERT_EQ(client->stream_tx()->phase() % 2, 1u);

  // Drain, then freeze the sender's incoming control traffic before the
  // fresh receive's ADVERT can arrive.
  server->Recv(in.data(), 32 * 1024, RecvFlags{.waitall = true});
  sim_.RunFor(Milliseconds(1));
  client->rail(0).HoldIncoming(Microseconds(400));
  server->Recv(in.data() + 32 * 1024, 32 * 1024);
  sim_.RunFor(Microseconds(50));
  EXPECT_GT(client->rail(0).HeldCompletions(), 0u)
      << "the hold window should have captured the in-flight ADVERT";

  // New data during the hold is serviced indirectly; the held ADVERT is
  // stale by the time it is delivered.
  client->Send(out.data() + 32 * 1024, 32 * 1024);
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(client->rail(0).HeldCompletions(), 0u);

  // The released ADVERT is now stale (S_s moved past it during the hold);
  // the next send's matching loop must discard it, not match it.
  client->Send(out.data() + 64 * 1024, 32 * 1024);
  server->Recv(in.data() + 64 * 1024, 32 * 1024, RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_GE(client->stats().adverts_discarded, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 1), in.size());
  EXPECT_EQ(server->stream_rx()->sequence(), in.size());
  ExpectCleanChecker(client, server);
}

// The receiver's CPU stalls in the middle of draining the intermediate
// buffer: copy-out resumes afterwards and every occupancy/continuity
// invariant still holds.
TEST_F(StreamFaultTest, ReceiverCpuStallDuringCopyOut) {
  StreamOptions opts;
  opts.mode = ProtocolMode::kIndirectOnly;
  opts.intermediate_buffer_bytes = 32 * 1024;
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(128 * 1024), in(128 * 1024);
  FillPattern(out.data(), out.size(), 0, 2);

  client->Send(out.data(), out.size());
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.RunFor(Microseconds(40));  // copy-out under way

  sim_.fabric().node(1).cpu().InjectStall(Milliseconds(2));
  sim_.Run();

  EXPECT_EQ(sim_.fabric().node(1).cpu().StallsInjected(), 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 2), in.size());
  EXPECT_TRUE(client->Quiescent() && server->Quiescent());
  ExpectCleanChecker(client, server);
}

// Heavy link jitter while the dynamic protocol is switching phases: the
// monotone-delivery clamp keeps RC ordering, so the protocol must come
// through with both integrity and invariants intact.
TEST_F(StreamFaultTest, JitterBurstDuringDynamicSwitching) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  constexpr std::uint64_t kChunk = 8 * 1024;
  constexpr int kChunks = 16;
  std::vector<std::uint8_t> out(kChunks * kChunk), in(kChunks * kChunk);
  FillPattern(out.data(), out.size(), 0, 3);

  Rng jitter_rng(99);
  sim_.fabric().channel_from(0).AddFaultJitter(Microseconds(20), &jitter_rng);
  sim_.fabric().channel_from(1).AddFaultJitter(Microseconds(20), &jitter_rng);

  for (int i = 0; i < kChunks; ++i) {
    client->Send(out.data() + i * kChunk, kChunk);
    server->Recv(in.data() + i * kChunk, kChunk, RecvFlags{.waitall = true});
    sim_.RunFor(Microseconds(30));
    if (i == kChunks / 2) {
      // Close the jitter window mid-run: the second half runs clean.
      sim_.fabric().channel_from(0).AddFaultJitter(-Microseconds(20),
                                                   &jitter_rng);
      sim_.fabric().channel_from(1).AddFaultJitter(-Microseconds(20),
                                                   &jitter_rng);
    }
  }
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 3), in.size());
  EXPECT_EQ(client->stream_tx()->sequence(), out.size());
  EXPECT_EQ(server->stream_rx()->sequence_estimate(), out.size());
  ExpectCleanChecker(client, server);
}

// A retransmission-style stall burst on the data direction mid-transfer.
TEST_F(StreamFaultTest, LinkStallBurstMidTransfer) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  FillPattern(out.data(), out.size(), 0, 4);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.RunFor(Microseconds(20));
  client->Send(out.data(), out.size());
  sim_.RunFor(Microseconds(10));

  auto& data_link = sim_.fabric().channel_from(0);
  data_link.AddFaultDelay(Microseconds(300));
  sim_.RunFor(Microseconds(200));
  data_link.AddFaultDelay(-Microseconds(300));
  ASSERT_EQ(data_link.fault_delay(), SimDuration{0});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 4), in.size());
  ExpectCleanChecker(client, server);
}

// Overlapping hold windows on the control channel must release everything
// exactly once, in arrival order.
TEST_F(StreamFaultTest, OverlappingControlHoldsDrainOnce) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(48 * 1024), in(48 * 1024);
  FillPattern(out.data(), out.size(), 0, 5);

  client->rail(0).HoldIncoming(Microseconds(100));
  client->rail(0).HoldIncoming(Microseconds(50));  // subsumed
  client->rail(0).HoldIncoming(Microseconds(250));

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  client->Send(out.data(), out.size());
  sim_.Run();

  EXPECT_EQ(client->rail(0).HeldCompletions(), 0u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 5), in.size());
  ExpectCleanChecker(client, server);
}

TEST(FaultPlanTest, GenerationIsDeterministicPerSeed) {
  FaultPlanConfig cfg = FaultPlanConfig::ScaledTo(Milliseconds(5));
  FaultPlan a = FaultPlan::Generate(42, cfg);
  FaultPlan b = FaultPlan::Generate(42, cfg);
  FaultPlan c = FaultPlan::Generate(43, cfg);

  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GT(a.events.size(), 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }
  EXPECT_FALSE(a.Describe().empty());

  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = c.events[i].at != a.events[i].at;
  }
  EXPECT_TRUE(differs) << "different seeds should give different plans";
}

TEST(TortureHarnessTest, RunIsDeterministicByFingerprint) {
  torture::TortureConfig cfg;
  cfg.seed = 7;
  cfg.total_bytes = 64 * 1024;
  torture::TortureResult a = torture::RunTorture(cfg);
  torture::TortureResult b = torture::RunTorture(cfg);
  EXPECT_TRUE(a.ok) << a.Describe();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events_checked, b.events_checked);
  EXPECT_GT(a.faults_applied, 0u);

  torture::TortureConfig other = cfg;
  other.seed = 8;
  EXPECT_NE(torture::RunTorture(other).fingerprint, a.fingerprint);
}

TEST(TortureHarnessTest, AllProfilesAndModesPass) {
  for (const char* profile : {"fdr", "iwarp", "wan"}) {
    for (const char* mode : {"dynamic", "direct", "indirect", "seqpacket"}) {
      torture::TortureConfig cfg;
      cfg.seed = 11;
      cfg.profile = profile;
      cfg.mode = mode;
      cfg.total_bytes = 64 * 1024;
      torture::TortureResult res = torture::RunTorture(cfg);
      EXPECT_TRUE(res.ok) << profile << "/" << mode << ": " << res.Describe();
    }
  }
}

TEST(TortureHarnessTest, KillLegsHonourSabotage) {
  // Both legs of the kill twin run with the sabotaged protocol, so the
  // resumed leg's own checker must catch each bug: its violations carry
  // the "killed: " prefix.
  for (bool stale : {true, false}) {
    int killed_hits = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      torture::TortureConfig cfg;
      cfg.seed = seed;
      cfg.mode = "kill";
      cfg.sabotage_stale_adverts = stale;
      cfg.sabotage_advert_gate = !stale;
      for (const std::string& v :
           torture::RunTorture(cfg).checker_violations) {
        if (v.rfind("killed: ", 0) == 0) ++killed_hits;
      }
    }
    EXPECT_GT(killed_hits, 0)
        << (stale ? "stale-advert" : "advert-gate")
        << " sabotage never reached the resumed leg's checker";
  }
}

TEST(TortureHarnessTest, CorpusEntryRoundTrips) {
  torture::TortureConfig cfg;
  cfg.seed = 123;
  cfg.profile = "wan";
  cfg.mode = "seqpacket";
  cfg.total_bytes = 12345;
  cfg.max_message = 777;
  cfg.buffer_bytes = 4096;
  cfg.trace_capacity = 50;
  cfg.enable_faults = false;
  cfg.sabotage_advert_gate = true;
  cfg.expect_fingerprint = 0xdeadbeefull;

  torture::TortureConfig parsed;
  ASSERT_TRUE(
      torture::DecodeCorpusEntry(torture::EncodeCorpusEntry(cfg), &parsed));
  EXPECT_EQ(parsed.seed, cfg.seed);
  EXPECT_EQ(parsed.profile, cfg.profile);
  EXPECT_EQ(parsed.mode, cfg.mode);
  EXPECT_EQ(parsed.total_bytes, cfg.total_bytes);
  EXPECT_EQ(parsed.max_message, cfg.max_message);
  EXPECT_EQ(parsed.buffer_bytes, cfg.buffer_bytes);
  EXPECT_EQ(parsed.trace_capacity, cfg.trace_capacity);
  EXPECT_EQ(parsed.enable_faults, cfg.enable_faults);
  EXPECT_EQ(parsed.sabotage_stale_adverts, cfg.sabotage_stale_adverts);
  EXPECT_EQ(parsed.sabotage_advert_gate, cfg.sabotage_advert_gate);
  EXPECT_EQ(parsed.expect_fingerprint, cfg.expect_fingerprint);

  torture::TortureConfig ignored;
  EXPECT_FALSE(torture::DecodeCorpusEntry("", &ignored));
  EXPECT_FALSE(torture::DecodeCorpusEntry("seed=abc mode=dynamic", &ignored));
  EXPECT_FALSE(torture::DecodeCorpusEntry("seed=1 mode=bogus", &ignored));
  EXPECT_FALSE(
      torture::DecodeCorpusEntry("seed=1 mode=stripe sched=rr", &ignored))
      << "the rail-scheduler key left with the scheduler";
  EXPECT_FALSE(torture::DecodeCorpusEntry("mode=dynamic", &ignored))
      << "an entry without a seed is not replayable";
}

}  // namespace
}  // namespace exs
