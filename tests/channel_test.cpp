// The control channel's credit scheme (§II-B): the pre-posted receive pool
// bounds outstanding messages, consumed receives are recycled and credits
// returned (piggybacked or standalone), and the receiver-not-ready error
// can never fire through the EXS layer.
#include <gtest/gtest.h>

#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

TEST(ChannelTest, TinyCreditPoolStillDeliversEverything) {
  // With only a handful of credits, the sender must repeatedly stall on
  // credit returns; correctness must be unaffected and no RNR can occur.
  StreamOptions opts;
  opts.credits = 4;  // minimum viable pool
  opts.max_wwi_chunk = 2 * 1024;  // many chunks -> many credits consumed
  Simulation sim(HardwareProfile::FdrInfiniBand(), 2, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  constexpr std::uint64_t kTotal = 128 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal);
  FillPattern(out.data(), out.size(), 0, 7);

  client->Send(out.data(), kTotal);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  sim.Run();

  EXPECT_EQ(server->stats().bytes_received, kTotal);
  EXPECT_EQ(VerifyPattern(in.data(), kTotal, 0, 7), kTotal);
  EXPECT_EQ(client->rail(0).qp_stats().rnr_errors, 0u);
  EXPECT_EQ(server->rail(0).qp_stats().rnr_errors, 0u);
}

TEST(ChannelTest, CreditsAreConservedAtQuiescence) {
  StreamOptions opts;
  opts.credits = 16;
  Simulation sim(HardwareProfile::FdrInfiniBand(), 3, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  for (int round = 0; round < 5; ++round) {
    client->Send(out.data(), 8 * 1024);
    server->Recv(in.data(), 8 * 1024, RecvFlags{.waitall = true});
    sim.Run();
  }
  // All traffic acknowledged: both sides should have their full view of
  // the peer's pool back (allowing credits still owed but unreported).
  EXPECT_GE(client->rail(0).remote_credits() , opts.credits / 2);
  EXPECT_GE(server->rail(0).remote_credits(), opts.credits / 2);
  EXPECT_LE(client->rail(0).remote_credits(), opts.credits);
  EXPECT_LE(server->rail(0).remote_credits(), opts.credits);
}

TEST(ChannelTest, StandaloneCreditMessagesFlowWhenTrafficIsOneSided) {
  // A long one-directional indirect stream: the client consumes server
  // receives with data WWIs while the server's control traffic (ACKs) is
  // sparse relative to chunk count, so the server must eventually return
  // credits with standalone CREDIT messages.
  StreamOptions opts;
  opts.credits = 8;
  opts.max_wwi_chunk = 1024;
  opts.mode = ProtocolMode::kIndirectOnly;
  opts.ack_threshold_bytes = 1 * kMiB;  // suppress ACK piggybacking
  Simulation sim(HardwareProfile::FdrInfiniBand(), 4, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);

  constexpr std::uint64_t kTotal = 64 * 1024;
  std::vector<std::uint8_t> out(kTotal), in(kTotal);
  FillPattern(out.data(), out.size(), 0, 8);
  client->Send(out.data(), kTotal);
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), kTotal, 0, 8), kTotal);
  EXPECT_GT(server->rail(0).credit_messages_sent(), 0u);
}

TEST(ChannelTest, TooSmallPoolIsRejected) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 5, true);
  StreamOptions opts;
  opts.credits = 2;
  EXPECT_THROW(Socket(sim.device(0), SocketType::kStream, opts, "x"),
               InvariantViolation);
}

TEST(ChannelTest, ControlTrafficCountsAppearInQpStats) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 6, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> out(4 * 1024), in(4 * 1024);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim.RunFor(Microseconds(20));
  client->Send(out.data(), out.size());
  sim.Run();

  // Server sent at least one ADVERT; client sent exactly one data WWI.
  EXPECT_GE(server->rail(0).qp_stats().sends_posted, 1u);
  EXPECT_GE(client->rail(0).qp_stats().sends_posted, 1u);
  EXPECT_GE(client->rail(0).qp_stats().payload_bytes_sent, 4096u);
  // Wire accounting includes header overhead.
  EXPECT_GT(client->rail(0).qp_stats().wire_bytes_sent,
            client->rail(0).qp_stats().payload_bytes_sent);
}

}  // namespace
}  // namespace exs
