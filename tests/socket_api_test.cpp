// Socket API surface: misuse rejection, registration lifecycle, stats
// exposure, multiple coexisting connections, and a long full-duplex soak
// with interleaved closes.
#include <gtest/gtest.h>

#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/exs.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

TEST(SocketApi, IoBeforeConnectThrows) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 1, false);
  Socket lone(sim.device(0), SocketType::kStream, StreamOptions{}, "lone");
  std::vector<std::uint8_t> buf(64);
  EXPECT_THROW(lone.Send(buf.data(), buf.size()), InvariantViolation);
  EXPECT_THROW(lone.Recv(buf.data(), buf.size()), InvariantViolation);
}

TEST(SocketApi, DoubleConnectThrows) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 2, false);
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  EXPECT_THROW(Socket::ConnectPair(*a, *b), InvariantViolation);
}

TEST(SocketApi, ZeroLengthRecvThrows) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 3, false);
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  (void)b;
  std::vector<std::uint8_t> buf(64);
  EXPECT_THROW(a->Recv(buf.data(), 0), InvariantViolation);
}

TEST(SocketApi, RegistrationCoversSubranges) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 4, true);
  StreamOptions opts;
  opts.auto_register_memory = false;
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream, opts);
  std::vector<std::uint8_t> big(64 * 1024);
  a->RegisterMemory(big.data(), big.size());
  b->RegisterMemory(big.data(), big.size());
  // Interior slices of a registered region are fine without re-registering.
  b->Recv(big.data() + 1024, 2048, RecvFlags{.waitall = true});
  a->Send(big.data() + 10000, 2048);
  sim.Run();
  EXPECT_EQ(b->stats().bytes_received, 2048u);
  // A range extending past the registration is not.
  EXPECT_THROW(a->Send(big.data() + big.size() - 10, 20),
               InvariantViolation);
}

// Registration is device-scoped, like exs_mregister and verbs protection
// domains: memory registered through one socket serves every socket on the
// same node, and no socket on the other.
TEST(SocketApi, RegistrationCoversEverySocketOnTheDevice) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 4, true);
  StreamOptions opts;
  opts.auto_register_memory = false;
  auto [a1, b1] = sim.CreateConnectedPair(SocketType::kStream, opts);
  auto [a2, b2] = sim.CreateConnectedPair(SocketType::kStream, opts);
  (void)b1;
  std::vector<std::uint8_t> out(8192), in(8192, 0);
  FillPattern(out.data(), out.size(), 0, 9);
  a1->RegisterMemory(out.data(), out.size());
  b1->RegisterMemory(in.data(), in.size());
  const std::size_t node0 = sim.device(0).RegisteredRegionCount();

  // a2 never registered `out`, b2 never registered `in`.
  b2->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  a2->Send(out.data(), out.size());
  sim.Run();
  EXPECT_EQ(b2->stats().bytes_received, out.size());
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 9), in.size());
  EXPECT_EQ(sim.device(0).RegisteredRegionCount(), node0);

  // Node 1 never registered `out`: its sockets still refuse it.
  EXPECT_THROW(b2->Send(out.data(), out.size()), InvariantViolation);
  EXPECT_THROW(b1->Send(out.data() + 64, 64), InvariantViolation);
}

TEST(SocketApi, StatsAndIntrospectionExposed) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 5, false);
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  EXPECT_EQ(a->type(), SocketType::kStream);
  EXPECT_EQ(a->name(), "client");
  EXPECT_EQ(b->name(), "server");
  EXPECT_NE(a->stream_tx(), nullptr);
  EXPECT_NE(a->stream_rx(), nullptr);
  EXPECT_EQ(a->options().mode, ProtocolMode::kDynamic);
  EXPECT_TRUE(a->Quiescent());

  Simulation sim2(HardwareProfile::FdrInfiniBand(), 5, false);
  auto [c, d] = sim2.CreateConnectedPair(SocketType::kSeqPacket);
  (void)d;
  EXPECT_EQ(c->stream_tx(), nullptr);  // packet sockets have no stream half
}

TEST(SocketApi, MultiplePairsCoexistOnOneFabric) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 6, true);
  auto [a1, b1] = sim.CreateConnectedPair(SocketType::kStream);
  auto [a2, b2] = sim.CreateConnectedPair(SocketType::kSeqPacket);

  std::vector<std::uint8_t> s1(8192), r1(8192), s2(4096), r2(4096);
  FillPattern(s1.data(), s1.size(), 0, 1);
  FillPattern(s2.data(), s2.size(), 0, 2);
  b1->Recv(r1.data(), r1.size(), RecvFlags{.waitall = true});
  b2->Recv(r2.data(), r2.size());
  sim.RunFor(Microseconds(30));
  a1->Send(s1.data(), s1.size());
  a2->Send(s2.data(), s2.size());
  sim.Run();

  EXPECT_EQ(VerifyPattern(r1.data(), r1.size(), 0, 1), r1.size());
  EXPECT_EQ(VerifyPattern(r2.data(), r2.size(), 0, 2), r2.size());
}

TEST(SocketApi, DuplexSoakWithClosesBothWays) {
  // A long, randomized, full-duplex conversation that ends with both
  // directions closing; every byte accounted for, clean quiescence.
  Simulation sim(HardwareProfile::FdrInfiniBand(), 7, true);
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  a->EnableTracing();
  b->EnableTracing();

  Rng rng(99);
  constexpr std::uint64_t kAtoB = 300 * 1024;
  constexpr std::uint64_t kBtoA = 200 * 1024;
  std::vector<std::uint8_t> ab_out(kAtoB), ab_in(kAtoB);
  std::vector<std::uint8_t> ba_out(kBtoA), ba_in(kBtoA);
  FillPattern(ab_out.data(), kAtoB, 0, 11);
  FillPattern(ba_out.data(), kBtoA, 0, 22);

  std::uint64_t ab_sent = 0, ab_posted = 0, ba_sent = 0, ba_posted = 0;
  std::uint64_t a_eof_events = 0, b_eof_events = 0;
  a->events().SetHandler([&](const Event& ev) {
    if (ev.type == EventType::kPeerClosed) ++a_eof_events;
  });
  b->events().SetHandler([&](const Event& ev) {
    if (ev.type == EventType::kPeerClosed) ++b_eof_events;
  });

  while (ab_sent < kAtoB || ba_sent < kBtoA || ab_posted < kAtoB ||
         ba_posted < kBtoA) {
    if (ab_sent < kAtoB && rng.NextBool()) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1, 32 * 1024), kAtoB - ab_sent);
      a->Send(ab_out.data() + ab_sent, n);
      ab_sent += n;
      if (ab_sent == kAtoB) a->Close();
    }
    if (ba_sent < kBtoA && rng.NextBool()) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1, 32 * 1024), kBtoA - ba_sent);
      b->Send(ba_out.data() + ba_sent, n);
      ba_sent += n;
      if (ba_sent == kBtoA) b->Close();
    }
    if (ab_posted < kAtoB && rng.NextBool()) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1, 32 * 1024), kAtoB - ab_posted);
      b->Recv(ab_in.data() + ab_posted, n, RecvFlags{.waitall = true});
      ab_posted += n;
    }
    if (ba_posted < kBtoA && rng.NextBool()) {
      std::uint64_t n = std::min<std::uint64_t>(
          rng.NextInRange(1, 32 * 1024), kBtoA - ba_posted);
      a->Recv(ba_in.data() + ba_posted, n, RecvFlags{.waitall = true});
      ba_posted += n;
    }
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(25)))));
  }
  sim.Run();

  EXPECT_EQ(b->stats().bytes_received, kAtoB);
  EXPECT_EQ(a->stats().bytes_received, kBtoA);
  EXPECT_EQ(VerifyPattern(ab_in.data(), kAtoB, 0, 11), kAtoB);
  EXPECT_EQ(VerifyPattern(ba_in.data(), kBtoA, 0, 22), kBtoA);
  EXPECT_EQ(a_eof_events, 1u);
  EXPECT_EQ(b_eof_events, 1u);
  EXPECT_TRUE(a->Quiescent());
  EXPECT_TRUE(b->Quiescent());

  // Both directions' traces satisfy the paper's lemmas.
  auto ab = ValidateConnectionTraces(a->tx_trace().events(),
                                     b->rx_trace().events());
  EXPECT_TRUE(ab.ok()) << ab.Summary();
  auto ba = ValidateConnectionTraces(b->tx_trace().events(),
                                     a->rx_trace().events());
  EXPECT_TRUE(ba.ok()) << ba.Summary();
}

}  // namespace
}  // namespace exs
