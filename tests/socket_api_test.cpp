// Socket API surface: misuse rejection, registration lifecycle, stats
// exposure, multiple coexisting connections, and a long full-duplex soak
// with interleaved closes.
#include <gtest/gtest.h>

#include <utility>
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

// The rail accessor reaches a classic socket's dedicated channels only:
// a muxed socket has none (its one rail is its MuxStream), and an index
// past the provisioned rails is refused, not read out of bounds.
TEST(SocketApi, RailAccessorRejectsMuxedSocketsAndMissingRails) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 5, false);
  StreamOptions opts;
  opts.rails = 2;
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream, opts);
  (void)b;
  const Socket& classic = *a;
  ASSERT_EQ(classic.ProvisionedRails(), 2u);
  EXPECT_TRUE(classic.rail(0).HasQueuePair());
  EXPECT_TRUE(classic.rail(1).HasQueuePair());
  EXPECT_THROW(classic.rail(2), InvariantViolation);
  EXPECT_THROW(a->rail(2), InvariantViolation);

  MuxGroup g0(sim.device(0), MuxOptions{});
  MuxGroup g1(sim.device(1), MuxOptions{});
  MuxGroup::Connect(g0, g1);
  auto [m, n] = sim.CreateMuxedPair(g0, g1);
  (void)n;
  ASSERT_TRUE(m->Muxed());
  ASSERT_EQ(m->ProvisionedRails(), 1u);
  EXPECT_THROW(m->rail(0), InvariantViolation);
  EXPECT_THROW(std::as_const(*m).rail(0), InvariantViolation);
  EXPECT_NE(m->mux_stream(), nullptr);
  EXPECT_EQ(a->mux_stream(), nullptr);
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

// A send that only a longer region than the one indexed at its start
// address would cover auto-registers that longer region once, and every
// identical send then finds it.  An index that kept only the first region
// at each start would miss every time: each send would register again,
// and nothing ever frees those regions.
TEST(SocketApi, AutoRegistrationBehindAShorterRegionRegistersOnce) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 4, true);
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  constexpr int kSends = 40;
  std::vector<std::uint8_t> out(4096), in(kSends * out.size());
  FillPattern(out.data(), out.size(), 0, 5);
  a->RegisterMemory(out.data(), 64);
  b->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  const verbs::Device& node0 = sim.device(0);
  const std::uint64_t registrations = node0.RegionsRegistered();
  const std::size_t live = node0.RegisteredRegionCount();
  for (int i = 0; i < kSends; ++i) a->Send(out.data(), out.size());
  sim.Run();
  EXPECT_EQ(b->stats().bytes_received, in.size());
  EXPECT_EQ(VerifyPattern(in.data() + (kSends - 1) * out.size(), out.size(),
                          0, 5),
            out.size());
  EXPECT_LE(node0.RegionsRegistered(), registrations + 1);
  EXPECT_LE(node0.RegisteredRegionCount(), live + 1);
}

// ---- handle-addressed I/O (exs_send/exs_recv with an exs_mhandle_t) ------

TEST(SocketApi, HandleFormsRejectForeignDeadAndShortRegions) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 8, true);
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> buf(4096);
  std::uint8_t* base = buf.data() + 1024;
  auto mine = a->RegisterMemory(base, 2048);
  auto other_node = b->RegisterMemory(buf.data(), buf.size());

  // Another device's region, even one covering the buffer.
  EXPECT_THROW(a->Send(base, 64, *other_node), InvariantViolation);
  EXPECT_THROW(a->Recv(base, 64, *other_node), InvariantViolation);
  // A range starting before, or ending past, the region.
  EXPECT_THROW(a->Send(base - 1, 64, *mine), InvariantViolation);
  EXPECT_THROW(a->Send(base + 2048 - 63, 64, *mine), InvariantViolation);
  EXPECT_THROW(a->Recv(base - 8, 16, *mine), InvariantViolation);
  EXPECT_THROW(a->Recv(base + 2000, 49, *mine), InvariantViolation);
  Socket::IoSlice past[2] = {{base, 64, mine.get()},
                             {base + 2040, 16, mine.get()}};
  EXPECT_THROW(a->Sendv(past, 2), InvariantViolation);

  // A rejected call consumes its request id, as an address-form one does.
  const std::uint64_t id = a->Send(base, 64, *mine);
  EXPECT_THROW(a->Send(base - 1, 64, *mine), InvariantViolation);
  EXPECT_EQ(a->Send(base, 64, *mine), id + 2);
  sim.Run();

  // A deregistered region.
  sim.device(0).DeregisterMemory(mine);
  EXPECT_THROW(a->Send(base, 64, *mine), InvariantViolation);
  EXPECT_THROW(a->Recv(base, 64, *mine), InvariantViolation);
  Socket::IoSlice dead[1] = {{base, 64, mine.get()}};
  EXPECT_THROW(a->Sendv(dead, 1), InvariantViolation);
  sim.Run();
  EXPECT_EQ(a->stats().bytes_sent, 128u);  // only the two accepted sends
  EXPECT_TRUE(a->Quiescent());
}

TEST(SocketApi, ZeroLengthHandleSendCompletesAsTheAddressFormDoes) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 9, true);
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  (void)b;
  std::vector<std::uint8_t> buf(64);
  auto mr = a->RegisterMemory(buf.data(), buf.size());
  std::vector<Event> done;
  a->events().SetHandler([&](const Event& ev) { done.push_back(ev); });
  const std::uint64_t by_address = a->Send(buf.data(), 0);
  const std::uint64_t by_handle = a->Send(buf.data(), 0, *mr);
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].type, EventType::kSendComplete);
  EXPECT_EQ(done[0].id, by_address);
  EXPECT_EQ(done[1].type, EventType::kSendComplete);
  EXPECT_EQ(done[1].id, by_handle);
  EXPECT_EQ(done[0].bytes, done[1].bytes);
  EXPECT_EQ(a->stats().sends_completed, 2u);
  EXPECT_EQ(a->stats().bytes_sent, 0u);
}

// Memory the address index never holds — an internal-scope
// RegisteredBuffer, as the RPC tier's pools are — is reachable by handle
// only.  Recv hands the stream and SEQPACKET receivers its rkey (the peer
// writes into the buffer) and the rendezvous receiver its lkey (it reads
// into it), so each socket kind is driven.
void ExpectHandleOnlyRoundTrip(SocketType type, ProtocolMode mode) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 10, true);
  StreamOptions opts;
  opts.mode = mode;
  opts.auto_register_memory = false;
  auto [a, b] = sim.CreateConnectedPair(type, opts);
  verbs::RegisteredBuffer out(sim.device(0), 4096);
  verbs::RegisteredBuffer in(sim.device(1), 4096);
  FillPattern(out.data(), out.size(), 0, 21);
  EXPECT_THROW(a->Send(out.data() + 40, 3000), InvariantViolation);
  EXPECT_THROW(b->Recv(in.data() + 96, 3000), InvariantViolation);

  std::vector<Event> received;
  b->events().SetHandler([&](const Event& ev) {
    if (ev.type == EventType::kRecvComplete) received.push_back(ev);
  });
  const std::uint64_t recv_id = b->Recv(in.data() + 96, 3000, in.region(),
                                        RecvFlags{.waitall = true});
  a->Send(out.data() + 40, 3000, out.region());
  sim.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].id, recv_id);
  EXPECT_EQ(received[0].bytes, 3000u);
  EXPECT_EQ(VerifyPattern(in.data() + 96, 3000, 40, 21), 3000u);
  EXPECT_TRUE(a->Quiescent());
}

TEST(SocketApi, HandleReachesUnindexedMemoryOnAStream) {
  ExpectHandleOnlyRoundTrip(SocketType::kStream, ProtocolMode::kDynamic);
}

TEST(SocketApi, HandleReachesUnindexedMemoryOnSeqPacket) {
  ExpectHandleOnlyRoundTrip(SocketType::kSeqPacket, ProtocolMode::kDynamic);
}

TEST(SocketApi, HandleReachesUnindexedMemoryOnRendezvous) {
  ExpectHandleOnlyRoundTrip(SocketType::kStream,
                            ProtocolMode::kReadRendezvous);
}

// Each Sendv slice carries its own handle; a slice without one still
// resolves by address, so with auto-registration off it throws here.
TEST(SocketApi, SendvSlicesCarryTheirHandles) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 11, true);
  StreamOptions opts;
  opts.auto_register_memory = false;
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream, opts);
  verbs::RegisteredBuffer out(sim.device(0), 4096);
  std::vector<std::uint8_t> in(300, 0);
  b->RegisterMemory(in.data(), in.size());
  FillPattern(out.data(), out.size(), 0, 33);

  Socket::IoSlice unresolved[2] = {{out.data(), 100, &out.region()},
                                   {out.data() + 1000, 200}};
  EXPECT_THROW(a->Sendv(unresolved, 2), InvariantViolation);

  b->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  Socket::IoSlice iov[2] = {{out.data(), 100, &out.region()},
                            {out.data() + 1000, 200, &out.region()}};
  a->Sendv(iov, 2);
  sim.Run();
  EXPECT_EQ(b->stats().bytes_received, 300u);
  EXPECT_EQ(VerifyPattern(in.data(), 100, 0, 33), 100u);
  EXPECT_EQ(VerifyPattern(in.data() + 100, 200, 1000, 33), 200u);
}

// With the registration cost model armed, a Sendv slice that a handle or
// an indexed region covers registers and charges nothing: a handle slice
// is sent through its region, and an address slice resolves to the region
// that covers it, as Send's address form does.
TEST(SocketApi, SendvHandleSlicesSkipTheMrCache) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 12, true);
  sim.device(0).EnableMrCostModel();
  sim.device(1).EnableMrCostModel();
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> out(1024), in(2048);
  auto mr = a->RegisterMemory(out.data(), out.size());
  b->RegisterMemory(in.data(), in.size());
  const verbs::Device& node0 = sim.device(0);
  const std::uint64_t registrations = node0.RegionsRegistered();
  const SimDuration charged = node0.MrTimeCharged();
  const std::size_t live = node0.RegisteredRegionCount();

  b->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  Socket::IoSlice by_handle[2] = {{out.data(), 256, mr.get()},
                                  {out.data() + 512, 256, mr.get()}};
  for (int i = 0; i < 3; ++i) a->Sendv(by_handle, 2);
  Socket::IoSlice by_address[2] = {{out.data(), 256},
                                   {out.data() + 256, 256}};
  a->Sendv(by_address, 2);
  sim.Run();
  EXPECT_EQ(b->stats().bytes_received, in.size());
  EXPECT_EQ(node0.RegionsRegistered(), registrations);
  EXPECT_EQ(node0.MrTimeCharged(), charged);
  EXPECT_EQ(node0.RegisteredRegionCount(), live);
}

// tx.sendv_calls counts accepted vectored sends.  A Sendv with a slice no
// registration covers, auto-registration off, throws as Send's address
// form does: it registers nothing and is not counted, though it consumes
// a request id.
TEST(SocketApi, RejectedSendvIsNotCounted) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 13, true);
  StreamOptions opts;
  opts.auto_register_memory = false;
  auto [a, b] = sim.CreateConnectedPair(SocketType::kStream, opts);
  std::vector<std::uint8_t> out(512), in(512, 0);
  FillPattern(out.data(), out.size(), 0, 13);
  b->RegisterMemory(in.data(), in.size());
  const verbs::Device& node0 = sim.device(0);
  const std::uint64_t registrations = node0.RegionsRegistered();
  const std::size_t live = node0.RegisteredRegionCount();
  const metrics::Counter& sendv_calls =
      *a->metrics_registry().counters().at("tx.sendv_calls").instrument;

  Socket::IoSlice iov[2] = {{out.data(), 200}, {out.data() + 200, 312}};
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(a->Sendv(iov, 2), InvariantViolation);
  }
  EXPECT_THROW(a->Send(out.data(), out.size()), InvariantViolation);
  EXPECT_EQ(sendv_calls.value(), 0u);
  EXPECT_EQ(a->stats().sendv_calls, 0u);
  EXPECT_EQ(node0.RegionsRegistered(), registrations);
  EXPECT_EQ(node0.RegisteredRegionCount(), live);

  a->RegisterMemory(out.data(), out.size());
  b->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  EXPECT_EQ(a->Sendv(iov, 2), 5u);  // ids 1..4 went to the rejected calls
  sim.Run();
  EXPECT_EQ(sendv_calls.value(), 1u);
  EXPECT_EQ(a->stats().sendv_calls, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 13), in.size());
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
