// Hot-path batching through the stream protocol: doorbell batching of a
// pump pass's WWIs (StreamOptions::Batching::doorbell), and vectored sends
// (Socket::Sendv) gathered straight from the caller's slices with no
// staging copy, their registrations found again on every reuse.  Every
// test closes with the connection-level invariant audit, which now
// includes the per-rail gather-byte and doorbell conservation rules.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

StreamOptions AllBatchingOn() {
  StreamOptions opts;
  opts.coalesce.enabled = true;
  opts.batching.doorbell = true;
  opts.batching.max_wrs = 8;
  return opts;
}

class StreamBatchingTest : public ::testing::Test {
 protected:
  Simulation sim_{HardwareProfile::FdrInfiniBand(), /*seed=*/13,
                  /*carry_payload=*/true};
};

// A burst of small sends under doorbell batching still delivers the exact
// byte stream, and the doorbell counters show the batch actually formed:
// fewer doorbells than WRs, every WR accounted.
TEST_F(StreamBatchingTest, DoorbellBatchingDeliversExactStream) {
  StreamOptions opts;
  opts.batching.doorbell = true;
  opts.batching.max_wrs = 8;
  opts.max_wwi_chunk = 512;  // force each send to split into many WWIs
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(16 * kKiB), in(16 * kKiB, 0);
  FillPattern(out.data(), out.size(), 0, 17);
  client->Send(out.data(), out.size());
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 17), in.size());
  StreamStats stats = client->stats();
  EXPECT_GT(stats.doorbell_batches, 0u);
  EXPECT_GE(stats.batched_wrs, stats.doorbell_batches);
  // Batching must actually amortise: strictly fewer doorbells than WRs.
  EXPECT_LT(stats.doorbell_batches, stats.batched_wrs);

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Sends submitted at one simulated instant share one deferred doorbell:
// the zero-delay flush event is FIFO-ordered after every same-instant
// pump pass, so sixteen back-to-back 512 B sends accumulate into full
// max_wrs batches instead of ringing per chunk.
TEST_F(StreamBatchingTest, SameInstantSendsShareTheDeferredDoorbell) {
  StreamOptions opts;
  opts.batching.doorbell = true;
  opts.batching.max_wrs = 8;
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(16 * 512), in(16 * 512, 0);
  FillPattern(out.data(), out.size(), 0, 23);
  for (int i = 0; i < 16; ++i) client->Send(out.data() + i * 512, 512);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 23), in.size());
  StreamStats stats = client->stats();
  EXPECT_GE(stats.batched_wrs, 16u);
  // All sixteen chunks were pumped at one instant: average batch depth
  // must be at least half the max_wrs bound.
  EXPECT_LE(stats.doorbell_batches * 4, stats.batched_wrs);

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Batched CQ dispatch through the socket: with cq_drain armed the
// completion-clocked window refill happens in clumps, and the doorbell
// batches those clumped posts — the closed-loop mechanism ext_batching
// measures.  Off-path guarantee: cq_drain = 1 stays the default and is
// covered by DisabledBatchingMatchesDefaultWireCounts below.
TEST_F(StreamBatchingTest, CqDrainClumpsCompletionClockedSends) {
  StreamOptions opts;
  opts.batching.doorbell = true;
  opts.batching.max_wrs = 8;
  opts.batching.cq_drain = 16;
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  // A completion-clocked loop: every send completion immediately submits
  // a replacement, so clumped completion delivery produces clumped
  // submission.
  constexpr std::uint64_t kMessages = 256;
  constexpr std::uint64_t kSize = 512;
  std::vector<std::uint8_t> out(kSize);
  FillPattern(out.data(), out.size(), 0, 27);
  std::uint64_t submitted = 0;
  client->events().SetHandler([&](const Event& ev) {
    if (ev.type != EventType::kSendComplete) return;
    if (submitted < kMessages) {
      ++submitted;
      client->Send(out.data(), out.size());
    }
  });
  std::vector<std::uint8_t> in(64 * kKiB, 0);
  std::function<void()> repost = [&] {
    server->Recv(in.data(), in.size(), RecvFlags{});
  };
  server->events().SetHandler([&](const Event& ev) {
    if (ev.type == EventType::kRecvComplete) repost();
  });
  for (int i = 0; i < 32; ++i) {
    ++submitted;
    client->Send(out.data(), out.size());
  }
  repost();
  sim_.Run();

  StreamStats stats = client->stats();
  EXPECT_EQ(stats.sends_completed, kMessages);
  EXPECT_GT(stats.doorbell_batches, 0u);
  // The steady state must actually clump: strictly fewer doorbells than
  // WRs.  Under the stock interrupt-driven profile (notify latency and
  // jitter on) the clumping is marginal — this test pins the mechanism,
  // not the magnitude; ext_batching quantifies the polling-grade regime
  // (see EXPERIMENTS.md).
  EXPECT_LT(stats.doorbell_batches, stats.batched_wrs);
}

// Sendv gathers scattered slices into one stream write with zero staging
// memcpys: a vectored send never enters the coalescing stage, even with
// coalescing on, so no send is counted as staged.
TEST_F(StreamBatchingTest, SendvAggregationIsZeroCopy) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, AllBatchingOn());
  client->EnableTracing();
  server->EnableTracing();

  // Three scattered slices forming one contiguous logical pattern.
  std::vector<std::uint8_t> s0(300), s1(500), s2(224);
  FillPattern(s0.data(), s0.size(), 0, 29);
  FillPattern(s1.data(), s1.size(), 300, 29);
  FillPattern(s2.data(), s2.size(), 800, 29);
  Socket::IoSlice iov[3] = {{s0.data(), s0.size()},
                            {s1.data(), s1.size()},
                            {s2.data(), s2.size()}};
  std::vector<std::uint8_t> in(1024, 0);
  client->Sendv(iov, 3);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 29), in.size());
  StreamStats stats = client->stats();
  EXPECT_EQ(stats.sendv_calls, 1u);
  EXPECT_EQ(stats.coalesced_sends, 0u);  // the zero-copy witness
  EXPECT_EQ(stats.bytes_sent, 1024u);
  EXPECT_EQ(stats.sends_completed, 1u);

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Repeated Sendv of the same slices registers them once: round 1
// auto-registers both slices, paying the armed cost model, and every
// later round finds them in the device's address index.  Slices from
// fresh buffers register once each and stay registered: nothing evicts an
// auto-registration.  The counts live on the device, not in a socket's
// registry.
TEST_F(StreamBatchingTest, SendvReusesCachedRegistrations) {
  verbs::Device& node0 = sim_.device(0);
  node0.EnableMrCostModel();
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, AllBatchingOn());
  client->EnableTracing();
  server->EnableTracing();
  const SimDuration cost = node0.profile().mr_register_cost;

  std::vector<std::uint8_t> s0(512), s1(512);
  std::vector<std::uint8_t> in(1024, 0);
  constexpr std::uint64_t kRounds = 5;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::uint64_t registrations = node0.RegionsRegistered();
    const SimDuration charged = node0.MrTimeCharged();
    FillPattern(s0.data(), s0.size(), round * 1024, 41);
    FillPattern(s1.data(), s1.size(), round * 1024 + 512, 41);
    Socket::IoSlice iov[2] = {{s0.data(), s0.size()}, {s1.data(), s1.size()}};
    client->Sendv(iov, 2);
    server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
    sim_.Run();
    EXPECT_EQ(VerifyPattern(in.data(), in.size(), round * 1024, 41),
              in.size());
    const std::uint64_t fresh = round == 0 ? 2 : 0;
    EXPECT_EQ(node0.RegionsRegistered(), registrations + fresh)
        << "round " << round + 1;
    EXPECT_EQ(node0.MrTimeCharged(),
              charged + static_cast<SimDuration>(fresh) * cost)
        << "round " << round + 1;
  }

  constexpr std::size_t kFresh = 40;
  std::vector<std::uint8_t> fresh(kFresh * 64), sink(kFresh * 64);
  const std::uint64_t registrations = node0.RegionsRegistered();
  const std::size_t live = node0.RegisteredRegionCount();
  server->Recv(sink.data(), sink.size(), RecvFlags{.waitall = true});
  for (std::size_t i = 0; i < kFresh; ++i) {
    Socket::IoSlice one[1] = {{fresh.data() + i * 64, 64}};
    client->Sendv(one, 1);
  }
  sim_.Run();
  EXPECT_EQ(node0.RegionsRegistered(), registrations + kFresh);
  EXPECT_EQ(node0.RegisteredRegionCount(), live + kFresh);

  StreamStats stats = client->stats();
  EXPECT_EQ(stats.sendv_calls, kRounds + kFresh);
  EXPECT_EQ(stats.bytes_sent, kRounds * in.size() + sink.size());
  EXPECT_EQ(stats.mr_registrations, node0.RegionsRegistered());
  EXPECT_EQ(client->metrics_registry().counters().count("mr.registrations"),
            0u);

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A Sendv whose slices sum to zero bytes completes immediately with zero
// bytes and posts nothing, like a zero-length Send.
TEST_F(StreamBatchingTest, ZeroLengthSendvCompletesImmediately) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, AllBatchingOn());
  (void)server;

  std::vector<Event> completions;
  client->events().SetHandler(
      [&](const Event& ev) { completions.push_back(ev); });

  std::uint8_t byte = 0;
  Socket::IoSlice iov[2] = {{&byte, 0}, {&byte, 0}};
  std::uint64_t id = client->Sendv(iov, 2);
  sim_.Run();

  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].id, id);
  EXPECT_EQ(completions[0].type, EventType::kSendComplete);
  EXPECT_EQ(completions[0].bytes, 0u);
}

// Sendv works without any batching option armed: slices are staged or
// posted exactly like the equivalent Send calls, bytes land intact.
TEST_F(StreamBatchingTest, SendvWorksWithDefaultsOff) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> s0(40 * kKiB), s1(24 * kKiB);
  FillPattern(s0.data(), s0.size(), 0, 43);
  FillPattern(s1.data(), s1.size(), s0.size(), 43);
  Socket::IoSlice iov[2] = {{s0.data(), s0.size()}, {s1.data(), s1.size()}};
  std::vector<std::uint8_t> in(64 * kKiB, 0);
  client->Sendv(iov, 2);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 43), in.size());
  EXPECT_EQ(client->stats().sendv_calls, 1u);
  EXPECT_EQ(client->stats().doorbell_batches, 0u);  // batching stayed off

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Batching off must be bit-identical to the pre-batching protocol: the
// same workload with and without the whole Batching block armed produces
// byte-identical delivered streams and identical wire-level transfer
// counts with batching disabled vs. a default-constructed options set.
TEST_F(StreamBatchingTest, DisabledBatchingMatchesDefaultWireCounts) {
  auto run = [](StreamOptions opts) {
    Simulation sim{HardwareProfile::FdrInfiniBand(), /*seed=*/99,
                   /*carry_payload=*/true};
    auto [client, server] =
        sim.CreateConnectedPair(SocketType::kStream, opts);
    std::vector<std::uint8_t> out(32 * kKiB), in(32 * kKiB, 0);
    FillPattern(out.data(), out.size(), 0, 47);
    client->Send(out.data(), out.size());
    server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
    sim.Run();
    EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 47), in.size());
    StreamStats s = client->stats();
    return std::tuple{s.direct_transfers, s.indirect_transfers, s.bytes_sent,
                      sim.scheduler().Now()};
  };
  StreamOptions defaults;
  StreamOptions explicit_off;
  explicit_off.batching.doorbell = false;
  EXPECT_EQ(run(defaults), run(explicit_off));
}

// A sender destroyed while both of its timers are armed: the coalescing
// flush timer (a small send sits in the staging buffer) and the deferred
// doorbell (a chunk waits in the pending batch).  ~StreamTx cancels both
// through their handles, so the run completes with neither firing: the
// two events leave the queue at once and nothing more leaves node 0.
TEST(StreamBatchingTeardown, SenderDestroyedWithTimersArmedFiresNeither) {
  StreamOptions opts;
  opts.coalesce.enabled = true;
  opts.batching.doorbell = true;
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/13);
  // Declared after the Simulation, so both die before its scheduler.
  auto client = std::make_unique<Socket>(sim.device(0), SocketType::kStream,
                                         opts, "doomed-tx");
  auto server = std::make_unique<Socket>(sim.device(1), SocketType::kStream,
                                         opts, "rx");
  Socket::ConnectPair(*client, *server);
  sim.Run();
  ASSERT_TRUE(sim.scheduler().Empty());

  std::vector<std::uint8_t> out(8 * kKiB);
  const std::uint64_t wire_messages =
      sim.fabric().channel_from(0).MessagesCarried();
  client->Send(out.data(), out.size());  // over coalesce.max_bytes: batched
  EXPECT_EQ(sim.scheduler().PendingCount(), 1u);  // the doorbell flush
  client->Send(out.data(), 256);                  // staged
  EXPECT_EQ(sim.scheduler().PendingCount(), 2u);  // plus the flush timer
  EXPECT_EQ(client->stats().coalesced_sends, 1u);

  const std::uint64_t executed = sim.scheduler().ExecutedCount();
  client.reset();
  EXPECT_TRUE(sim.scheduler().Empty());
  sim.Run();
  EXPECT_EQ(sim.scheduler().ExecutedCount(), executed);
  EXPECT_EQ(sim.fabric().channel_from(0).MessagesCarried(), wire_messages);
}

}  // namespace
}  // namespace exs
