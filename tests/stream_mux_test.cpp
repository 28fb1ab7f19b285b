// Shared-QP stream multiplexing (exs/mux.hpp): directed pins for the mux
// tier — stream-id demultiplexing under interleaved traffic, the
// per-stream credit window parking bulk streams without starving
// cohabitants, bit-exactness of the classic path when the tier is off,
// mid-flight teardown of a muxed socket, virtual kill/resume of one
// stream on a shared QP, an absolute pin of DRR dispatch order with many
// streams parked at once — plus a seeds x profiles x widths property sweep
// asserting that dedicated and muxed transports deliver byte-identical
// per-stream payloads, all under the invariant checker's mux conservation
// rules (CheckMuxGroupPair).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/mux.hpp"
#include "simnet/faults.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

std::uint64_t CounterValue(Socket* s, const char* name, const char* unit) {
  const auto& named = s->metrics_registry().counters().at(name);
  EXPECT_EQ(named.unit, unit) << name;
  return named.instrument->value();
}

/// FNV-1a over delivered bytes — the equality the dedicated-vs-muxed
/// property is stated over (trace fingerprints legitimately differ: the
/// muxed arm shares QPs, so its completion interleaving differs).
std::uint64_t PayloadFnv(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void ExpectCleanChecker(Socket* client, Socket* server) {
  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
}

void ExpectCleanMuxPair(const MuxGroup& a, const MuxGroup& b) {
  InvariantReport report = CheckMuxGroupPair(a, b);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
}

// ---------------------------------------------------------------------------
// Directed pins.
// ---------------------------------------------------------------------------

// Four streams on one shared QP, chunks posted round-robin so their WWIs
// interleave on the wire: every byte must land at the stream that sent it
// (the stream-id demux), with per-stream continuity and conservation
// audited by the checker.
TEST(StreamMuxTest, InterleavedChunksDemuxToOwningStreams) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/41);
  MuxOptions mopts;
  mopts.width = 1;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  constexpr int kStreams = 4;
  constexpr std::uint64_t kChunk = 4 * 1024;
  constexpr int kChunks = 8;
  std::vector<std::pair<Socket*, Socket*>> pairs;
  std::vector<std::vector<std::uint8_t>> out(kStreams), in(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    pairs.push_back(sim.CreateMuxedPair(g0, g1));
    pairs[s].first->EnableTracing();
    pairs[s].second->EnableTracing();
    out[s].resize(kChunks * kChunk);
    in[s].resize(kChunks * kChunk);
    FillPattern(out[s].data(), out[s].size(), 0, 100 + s);
    pairs[s].second->Recv(in[s].data(), in[s].size(),
                          RecvFlags{.waitall = true});
  }
  ASSERT_EQ(sim.device(1).QueuePairsCreated(), mopts.width)
      << "muxed pairs must not create per-stream queue pairs";

  // Round-robin posting: chunk i of every stream is in flight together.
  for (int c = 0; c < kChunks; ++c) {
    for (int s = 0; s < kStreams; ++s) {
      pairs[s].first->Send(out[s].data() + c * kChunk, kChunk);
    }
    sim.RunFor(Microseconds(20));
  }
  sim.Run();

  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(VerifyPattern(in[s].data(), in[s].size(), 0, 100 + s),
              in[s].size())
        << "stream " << s << " delivered another stream's bytes";
    EXPECT_TRUE(pairs[s].first->Quiescent() && pairs[s].second->Quiescent());
    ExpectCleanChecker(pairs[s].first, pairs[s].second);
  }
  EXPECT_GT(g0.stats().data_posted, 0u);
  ExpectCleanMuxPair(g0, g1);
}

// A one-WWI per-stream window: both bulk streams repeatedly exhaust their
// own credit and park while the slot QP itself still has §II-B credits —
// the cohabitant keeps flowing, the parked stream wakes on its completion,
// and the waits are accounted in mux.hol_wait / mux.parks.
TEST(StreamMuxTest, PerStreamCreditExhaustionParksWithoutStarving) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/42);
  MuxOptions mopts;
  mopts.width = 1;
  mopts.per_stream_credits = 1;  // exhausted by every single chunk
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  StreamOptions opts;
  opts.max_wwi_chunk = 4 * 1024;  // 24 chunks against a 1-WWI window
  auto [a_tx, a_rx] = sim.CreateMuxedPair(g0, g1, opts);
  auto [b_tx, b_rx] = sim.CreateMuxedPair(g0, g1, opts);
  a_tx->EnableTracing();
  a_rx->EnableTracing();
  b_tx->EnableTracing();
  b_rx->EnableTracing();

  constexpr std::uint64_t kTotal = 96 * 1024;
  std::vector<std::uint8_t> a_out(kTotal), a_in(kTotal);
  std::vector<std::uint8_t> b_out(kTotal), b_in(kTotal);
  FillPattern(a_out.data(), kTotal, 0, 7);
  FillPattern(b_out.data(), kTotal, 0, 8);
  a_rx->Recv(a_in.data(), kTotal, RecvFlags{.waitall = true});
  b_rx->Recv(b_in.data(), kTotal, RecvFlags{.waitall = true});
  a_tx->Send(a_out.data(), kTotal);
  b_tx->Send(b_out.data(), kTotal);

  // The per-stream window must bound outstanding WWIs at every instant,
  // not just at quiescence.
  bool a_parked_seen = false;
  for (int step = 0; step < 4000 && !(a_rx->Quiescent() && b_rx->Quiescent());
       ++step) {
    sim.RunFor(Microseconds(5));
    ASSERT_LE(a_tx->mux_stream()->outstanding(), mopts.per_stream_credits);
    ASSERT_LE(b_tx->mux_stream()->outstanding(), mopts.per_stream_credits);
    a_parked_seen = a_parked_seen || a_tx->mux_stream()->parked();
  }
  sim.Run();

  EXPECT_EQ(VerifyPattern(a_in.data(), kTotal, 0, 7), kTotal);
  EXPECT_EQ(VerifyPattern(b_in.data(), kTotal, 0, 8), kTotal);
  EXPECT_TRUE(a_parked_seen)
      << "a 1-credit window never parked a 96 KiB bulk stream";
  EXPECT_GT(CounterValue(a_tx, "mux.parks", "events"), 0u);
  EXPECT_GT(a_tx->metrics_registry()
                .histograms()
                .at("mux.hol_wait")
                .instrument->count(),
            0u);
  ExpectCleanChecker(a_tx, a_rx);
  ExpectCleanChecker(b_tx, b_rx);
  ExpectCleanMuxPair(g0, g1);
}

// The tier is strictly opt-in: a classic (dedicated-QP) connection must
// produce the byte-identical trace fingerprint whether or not the same
// simulation hosts connected mux groups with live muxed traffic.  This is
// the "mux off = bit-exact" pin — the wire-format extensions
// (ControlMessage mux fields, the WR mux header) cost classic connections
// nothing.  The mux machinery is created AFTER the classic pair: CQ
// notify-jitter streams are seeded by per-device creation order (a
// pre-existing property independent of this tier — any extra socket
// created first shifts them the same way), and the classic golden-corpus
// suite already pins the classic wire image absolutely.
TEST(StreamMuxTest, MuxOffIsBitIdenticalToClassic) {
  constexpr std::uint64_t kTotal = 64 * 1024;
  auto run_classic = [&](bool with_mux_traffic) {
    Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/43);
    auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
    client->EnableTracing();
    server->EnableTracing();

    std::unique_ptr<MuxGroup> g0, g1;
    Socket* mux_tx = nullptr;
    Socket* mux_rx = nullptr;
    std::vector<std::uint8_t> mux_out(kTotal), mux_in(kTotal);
    if (with_mux_traffic) {
      MuxOptions mopts;
      mopts.width = 2;
      g0 = std::make_unique<MuxGroup>(sim.device(0), mopts);
      g1 = std::make_unique<MuxGroup>(sim.device(1), mopts);
      MuxGroup::Connect(*g0, *g1);
      std::tie(mux_tx, mux_rx) = sim.CreateMuxedPair(*g0, *g1);
      FillPattern(mux_out.data(), kTotal, 0, 10);
    }

    std::vector<std::uint8_t> out(kTotal), in(kTotal);
    FillPattern(out.data(), kTotal, 0, 9);
    server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
    client->Send(out.data(), kTotal);
    sim.Run();
    EXPECT_EQ(VerifyPattern(in.data(), kTotal, 0, 9), kTotal);
    EXPECT_FALSE(client->Muxed());
    std::uint64_t fp = ConnectionFingerprint(*client, *server);

    if (with_mux_traffic) {
      // Muxed traffic after the classic stream quiesced: shared links and
      // CPUs, zero effect on the already-recorded classic traces.
      mux_rx->Recv(mux_in.data(), kTotal, RecvFlags{.waitall = true});
      mux_tx->Send(mux_out.data(), kTotal);
      sim.Run();
      EXPECT_EQ(VerifyPattern(mux_in.data(), kTotal, 0, 10), kTotal);
      EXPECT_EQ(fp, ConnectionFingerprint(*client, *server))
          << "muxed traffic mutated a quiesced classic connection's trace";
    }
    return fp;
  };
  std::uint64_t pristine = run_classic(false);
  std::uint64_t cohabiting = run_classic(true);
  EXPECT_EQ(pristine, cohabiting)
      << "coexisting mux machinery perturbed a classic connection's trace";
}

// A muxed socket torn down mid-flight (PR-5 zombie/lease rules): its
// in-flight arrivals become accounted orphans, its send completions drain
// through the slot FIFO as orphan completions, and the cohabitant stream
// on the same slot finishes untouched.  Conservation must still balance.
TEST(StreamMuxTest, MuxedTeardownMidFlightLeavesCohabitantIntact) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/44);
  MuxOptions mopts;
  mopts.width = 1;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  // Built outside the Simulation facade so the test owns the lifetimes.
  SocketWiring wa0, wa1, wc0, wc1;
  wa0.mux_stream = g0.AttachStream(0);
  wa1.mux_stream = g1.AttachStream(0);
  wc0.mux_stream = g0.AttachStream(1);
  wc1.mux_stream = g1.AttachStream(1);
  StreamOptions opts;
  auto a_tx = std::make_unique<Socket>(sim.device(0), SocketType::kStream,
                                       opts, "doomed-tx", std::move(wa0));
  auto a_rx = std::make_unique<Socket>(sim.device(1), SocketType::kStream,
                                       opts, "doomed-rx", std::move(wa1));
  auto c_tx = std::make_unique<Socket>(sim.device(0), SocketType::kStream,
                                       opts, "keeper-tx", std::move(wc0));
  auto c_rx = std::make_unique<Socket>(sim.device(1), SocketType::kStream,
                                       opts, "keeper-rx", std::move(wc1));
  Socket::ConnectPair(*a_tx, *a_rx);
  Socket::ConnectPair(*c_tx, *c_rx);
  c_tx->EnableTracing();
  c_rx->EnableTracing();

  constexpr std::uint64_t kTotal = 64 * 1024;
  std::vector<std::uint8_t> a_out(kTotal), a_in(kTotal);
  std::vector<std::uint8_t> c_out(kTotal), c_in(kTotal);
  FillPattern(a_out.data(), kTotal, 0, 11);
  FillPattern(c_out.data(), kTotal, 0, 12);
  a_rx->Recv(a_in.data(), kTotal, RecvFlags{.waitall = true});
  c_rx->Recv(c_in.data(), kTotal, RecvFlags{.waitall = true});
  a_tx->Send(a_out.data(), kTotal);
  c_tx->Send(c_out.data(), kTotal);
  sim.RunFor(Microseconds(15));  // both streams mid-flight on the slot

  ASSERT_EQ(g0.AttachedStreams(), 2u);
  a_tx.reset();  // chunks and control from/for stream 0 are still in flight
  a_rx.reset();
  EXPECT_EQ(g0.AttachedStreams(), 1u);
  EXPECT_EQ(g1.AttachedStreams(), 1u);
  sim.Run();

  EXPECT_EQ(VerifyPattern(c_in.data(), kTotal, 0, 12), kTotal)
      << "teardown of a cohabitant corrupted the surviving stream";
  EXPECT_TRUE(c_tx->Quiescent() && c_rx->Quiescent());
  // Whatever stream 0 had in flight at teardown is accounted, not lost.
  EXPECT_GT(g1.stats().orphan_drops + g0.stats().orphan_drops +
                g1.stats().orphan_control_drops +
                g0.stats().orphan_control_drops +
                g0.stats().orphan_completions + g1.stats().orphan_completions,
            0u)
      << "mid-flight teardown should have produced orphaned traffic";
  ExpectCleanChecker(c_tx.get(), c_rx.get());
  ExpectCleanMuxPair(g0, g1);
}

// Group-before-stream destruction order (either side may die first, the
// ControlSlotSource idiom): a stream outliving its group must go inert,
// not crash.
TEST(StreamMuxTest, StreamOutlivingGroupIsInert) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/45);
  auto g0 = std::make_unique<MuxGroup>(sim.device(0), MuxOptions{});
  auto g1 = std::make_unique<MuxGroup>(sim.device(1), MuxOptions{});
  MuxGroup::Connect(*g0, *g1);
  std::unique_ptr<MuxStream> s = g0->AttachStream(0);
  ASSERT_TRUE(s->GroupAlive());
  g0.reset();
  g1.reset();
  EXPECT_FALSE(s->GroupAlive());
  EXPECT_FALSE(s->CanSend());
  s.reset();  // must not touch the dead group
}

// A slot's send completion carries only the wr_id, so a stream posts under
// a tag that spends 24 of its bits on the stream id and epoch: an id wider
// than the remaining 40 is refused before anything is posted or counted.
TEST(StreamMuxTest, PostRefusesAWrIdWiderThanTheCompletionTag) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/44);
  MuxGroup g0(sim.device(0), MuxOptions{});
  MuxGroup g1(sim.device(1), MuxOptions{});
  MuxGroup::Connect(g0, g1);
  auto [client, server] = sim.CreateMuxedPair(g0, g1);
  MuxStream& stream = *client->mux_stream();
  ASSERT_TRUE(stream.CanSend());

  verbs::RegisteredBuffer src(sim.device(0), 64);
  const verbs::Sge sge{reinterpret_cast<std::uint64_t>(src.data()), 64,
                       src.lkey()};
  const Socket::RingCredentials ring = server->LocalRingCredentials();
  const std::uint64_t sends_before = g0.slot(0).qp_stats().sends_posted;
  EXPECT_THROW(stream.PostDataWwi(std::uint64_t{1} << 40, {&sge, 1},
                                  ring.addr, ring.rkey, /*indirect=*/true,
                                  verbs::ExtHeader{}),
               InvariantViolation);
  EXPECT_EQ(stream.tx_seq(), 0u);
  EXPECT_EQ(stream.outstanding(), 0u);
  EXPECT_EQ(g0.stats().data_posted, 0u);
  EXPECT_EQ(g0.slot(0).qp_stats().sends_posted, sends_before);
}

// Virtual kill of one stream on a shared QP: the victim dies with real
// fault semantics (local flush now, peer discovery one ack delay later),
// the cohabitant on the same slot never notices, and kill/resume at the
// delivered frontier (PR-7 recovery) replays the victim to a byte-perfect
// stream.
TEST(StreamMuxTest, KillResumeOnSharedQpLeavesCohabitantUndisturbed) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/46);
  MuxOptions mopts;
  mopts.width = 1;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  StreamOptions opts;
  opts.recovery.enabled = true;
  opts.max_wwi_chunk = 8 * 1024;  // keep chunks in flight around the kill
  auto [a_tx, a_rx] = sim.CreateMuxedPair(g0, g1, opts);
  auto [b_tx, b_rx] = sim.CreateMuxedPair(g0, g1, opts);
  a_tx->EnableTracing();
  a_rx->EnableTracing();
  b_tx->EnableTracing();
  b_rx->EnableTracing();

  constexpr std::uint64_t kTotal = 96 * 1024;
  std::vector<std::uint8_t> a_out(kTotal), a_in(kTotal);
  std::vector<std::uint8_t> b_out(kTotal), b_in(kTotal);
  FillPattern(a_out.data(), kTotal, 0, 21);
  FillPattern(b_out.data(), kTotal, 0, 22);
  a_rx->Recv(a_in.data(), kTotal, RecvFlags{.waitall = true});
  b_rx->Recv(b_in.data(), kTotal, RecvFlags{.waitall = true});
  a_tx->Send(a_out.data(), kTotal);
  b_tx->Send(b_out.data(), kTotal);

  // Kill stream A mid-transfer, in flight on both directions.
  for (int i = 0; i < 100000 && a_rx->stream_rx()->sequence() < 8 * 1024;
       ++i) {
    sim.RunFor(Microseconds(2));
  }
  ASSERT_LT(a_rx->stream_rx()->sequence(), kTotal);
  ASSERT_TRUE(a_tx->KillTransport());
  EXPECT_TRUE(a_tx->TransportDead());
  EXPECT_FALSE(b_tx->TransportDead()) << "virtual kill leaked to a cohabitant";
  EXPECT_FALSE(g0.slot(0).dead()) << "virtual kill killed the shared QP";

  // The peer stream discovers the death with transport timing.
  sim.RunUntil([&] { return a_rx->TransportDead(); });
  EXPECT_FALSE(b_rx->TransportDead());

  Socket::ResumePair(*a_tx, *a_rx);
  sim.Run();

  EXPECT_EQ(VerifyPattern(a_in.data(), kTotal, 0, 21), kTotal)
      << "kill/resume on the shared QP lost or duplicated victim bytes";
  EXPECT_EQ(VerifyPattern(b_in.data(), kTotal, 0, 22), kTotal)
      << "kill/resume of a cohabitant corrupted the undisturbed stream";
  EXPECT_EQ(g0.stats().virtual_kills, 1u);
  EXPECT_EQ(g0.stats().revives, 1u);
  EXPECT_EQ(g1.stats().revives, 1u);
  EXPECT_EQ(CounterValue(a_tx, "recovery.transport_kills", "kills"), 1u);
  EXPECT_EQ(CounterValue(a_tx, "recovery.resumes", "resumes"), 1u);
  ExpectCleanChecker(b_tx, b_rx);
  ExpectCleanMuxPair(g0, g1);
}

// A real slot-QP death on a width-2 pool takes only that slot's streams
// with it (MuxGroup::OnFatal): slot 1's streams keep delivering, a
// reconnect refused while the peer slot still lives changes nothing,
// MuxGroup::Connect then rebuilds just the dead slot pair, and each
// slot-0 pair resumes pairwise at its delivered frontier.  Slot 0 dies
// once idle and once with data in flight; the WWIs the mid-transfer death
// swallows are counted where they were lost, so the mux conservation
// rule still balances exactly.
TEST(StreamMuxTest, DeadSlotReconnectsWithoutDisturbingLiveSlot) {
  for (const bool mid_transfer : {false, true}) {
    SCOPED_TRACE(mid_transfer ? "slot 0 killed mid-transfer"
                              : "slot 0 killed idle");
    Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/49);
    MuxOptions mopts;
    mopts.width = 2;
    MuxGroup g0(sim.device(0), mopts);
    MuxGroup g1(sim.device(1), mopts);
    MuxGroup::Connect(g0, g1);

    StreamOptions opts;
    opts.recovery.enabled = true;
    opts.intermediate_buffer_bytes = 64 * 1024;
    opts.max_wwi_chunk = 8 * 1024;
    constexpr int kStreams = 4;  // ids 0..3: slots 0, 1, 0, 1
    constexpr std::uint64_t kSlot0Total = 64 * 1024;
    constexpr std::uint64_t kSlot1Total = 1024 * 1024;
    struct Pair {
      Socket* tx = nullptr;
      Socket* rx = nullptr;
      std::vector<std::uint8_t> out, in;
    };
    std::vector<Pair> pairs(kStreams);
    for (int s = 0; s < kStreams; ++s) {
      Pair& p = pairs[s];
      std::tie(p.tx, p.rx) = sim.CreateMuxedPair(g0, g1, opts);
      p.tx->EnableTracing();
      p.rx->EnableTracing();
      const std::uint64_t total = s % 2 == 0 ? kSlot0Total : kSlot1Total;
      p.out.resize(total);
      p.in.resize(total);
      FillPattern(p.out.data(), total, 0, 60 + s);
      p.rx->Recv(p.in.data(), total, RecvFlags{.waitall = true});
    }
    auto on_slot0 = [](int s) { return s % 2 == 0; };

    // Slot 0 carries the first half of its streams while slot 1's bulk
    // streams are mid-transfer.  It dies once its first chunk has landed,
    // or once it has delivered its halves and fallen idle.
    for (int s = 0; s < kStreams; ++s) {
      Pair& p = pairs[s];
      p.tx->Send(p.out.data(), on_slot0(s) ? kSlot0Total / 2 : kSlot1Total);
    }
    ASSERT_TRUE(sim.RunUntil([&] {
      if (mid_transfer) return pairs[0].rx->stream_rx()->sequence() > 0;
      for (int s = 0; s < kStreams; s += 2) {
        if (pairs[s].rx->stream_rx()->sequence() < kSlot0Total / 2 ||
            !pairs[s].tx->stream_tx()->Quiescent()) {
          return false;
        }
      }
      return true;
    }));
    ASSERT_LT(pairs[1].rx->stream_rx()->sequence(), kSlot1Total);
    ASSERT_EQ(pairs[0].tx->stream_tx()->Quiescent(), !mid_transfer);

    ASSERT_TRUE(g0.slot(0).Kill());
    for (int s = 0; s < kStreams; ++s) {
      EXPECT_EQ(pairs[s].tx->TransportDead(), on_slot0(s)) << "stream " << s;
    }
    // The peer slot still lives for one ack delay: a reconnect now is
    // refused before any slot pair is touched.
    const std::uint64_t qps0 = sim.device(0).QueuePairsCreated();
    const std::uint64_t qps1 = sim.device(1).QueuePairsCreated();
    EXPECT_THROW(MuxGroup::Connect(g0, g1), InvariantViolation);
    EXPECT_EQ(sim.device(0).QueuePairsCreated(), qps0);
    EXPECT_EQ(sim.device(1).QueuePairsCreated(), qps1);
    EXPECT_FALSE(g1.slot(0).dead());

    sim.Run();
    EXPECT_TRUE(g1.slot(0).dead());
    EXPECT_FALSE(g0.slot(1).dead() || g1.slot(1).dead());
    for (int s = 1; s < kStreams; s += 2) {
      EXPECT_EQ(VerifyPattern(pairs[s].in.data(), kSlot1Total, 0, 60 + s),
                kSlot1Total)
          << "slot-1 stream " << s << " stalled or corrupted by slot 0's death";
      EXPECT_FALSE(pairs[s].rx->TransportDead());
    }
    // Only the mid-transfer death swallows WWIs: some never reached a live
    // peer queue pair, the rest landed after the receiving slot had died.
    const std::uint64_t swallowed = g0.slot(0).qp_stats().wwis_unreached +
                                    g1.slot(0).dropped_data_wwis();
    EXPECT_EQ(swallowed > 0, mid_transfer) << swallowed << " swallowed";

    // Only the dead slot pair is rebuilt; its streams then resume pairwise.
    MuxGroup::Connect(g0, g1);
    EXPECT_EQ(sim.device(0).QueuePairsCreated(), qps0 + 1);
    EXPECT_EQ(sim.device(1).QueuePairsCreated(), qps1 + 1);
    for (int s = 0; s < kStreams; s += 2) {
      Socket::ResumePair(*pairs[s].tx, *pairs[s].rx);
      pairs[s].tx->Send(pairs[s].out.data() + kSlot0Total / 2,
                        kSlot0Total / 2);
    }
    sim.Run();

    for (int s = 0; s < kStreams; ++s) {
      const Pair& p = pairs[s];
      EXPECT_EQ(VerifyPattern(p.in.data(), p.in.size(), 0, 60 + s),
                p.in.size())
          << "stream " << s;
      EXPECT_TRUE(p.tx->Quiescent() && p.rx->Quiescent()) << "stream " << s;
      ExpectCleanChecker(p.tx, p.rx);
    }
    EXPECT_EQ(g0.stats().revives, 2u);
    ExpectCleanMuxPair(g0, g1);
  }
}

// Dispatch order with the tier on, pinned absolutely.  72 streams share a
// width-2 pool with one-WWI windows and a 24-credit slot pool, so dozens
// park at once and every shared-credit return runs a real DRR round; some
// rounds run dry mid-rotation, others wake every parked stream.  Two
// thirds of the senders are torn down mid-flight, parked ones included:
// each slot of the sending group skips detached entries lazily, then
// compacts its rotation and resets its cursor.  (Their receivers stay up
// until the end, so no receive-side copy pass outlives its socket.)  One
// survivor is then virtually killed and resumed.  The survivors' trace
// fingerprints and the exact round, wake and park counts move if any
// round visits its parked streams in another order.
TEST(StreamMuxTest, ParkedDispatchOrderGolden) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/48);
  MuxOptions mopts;
  mopts.width = 2;
  mopts.qp_credits = 24;
  mopts.per_stream_credits = 1;
  mopts.drr_quantum = 4 * 1024;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  constexpr int kStreams = 72;
  constexpr int kVictim = 9;  // a survivor on slot 1
  constexpr std::uint64_t kTotal = 24 * 1024;
  struct Pair {
    std::unique_ptr<Socket> tx, rx;
    std::vector<std::uint8_t> out, in;
  };
  std::vector<Pair> pairs(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    const std::uint32_t id = g0.AllocateStreamId();
    SocketWiring w0, w1;
    w0.mux_stream = g0.AttachStream(id);
    w1.mux_stream = g1.AttachStream(id);
    StreamOptions opts;
    opts.intermediate_buffer_bytes = 64 * 1024;  // 144 rings: keep them small
    opts.max_wwi_chunk = 2 * 1024;  // 12 WWIs against a one-WWI window
    opts.recovery.enabled = s == kVictim;
    Pair& p = pairs[s];
    p.tx = std::make_unique<Socket>(sim.device(0), SocketType::kStream, opts,
                                    std::to_string(s) + "-tx", std::move(w0));
    p.rx = std::make_unique<Socket>(sim.device(1), SocketType::kStream, opts,
                                    std::to_string(s) + "-rx", std::move(w1));
    Socket::ConnectPair(*p.tx, *p.rx);
    p.tx->EnableTracing();
    p.rx->EnableTracing();
    p.out.resize(kTotal);
    p.in.resize(kTotal);
    FillPattern(p.out.data(), kTotal, 0, 500 + s);
    p.rx->Recv(p.in.data(), kTotal, RecvFlags{.waitall = true});
    p.tx->Send(p.out.data(), kTotal);
  }

  sim.RunFor(Microseconds(160));  // rounds have moved both slots' cursors
  int parked = 0;
  int parked_doomed = 0;
  for (int s = 0; s < kStreams; ++s) {
    if (!pairs[s].tx->mux_stream()->parked()) continue;
    ++parked;
    if (s % 3 != 0) ++parked_doomed;
  }
  EXPECT_GE(parked, 16) << "too few streams parked to exercise DRR rounds";
  EXPECT_GT(parked_doomed, 0) << "no parked stream was torn down";

  // 24 of each slot's 36 senders go; the 19th detach on a slot compacts.
  std::uint64_t parks = 0;
  for (int s = 0; s < kStreams; ++s) {
    if (s % 3 == 0) continue;
    parks += CounterValue(pairs[s].tx.get(), "mux.parks", "events");
    pairs[s].tx.reset();
  }
  EXPECT_EQ(g0.AttachedStreams(), 24u);

  sim.RunFor(Microseconds(10));
  Pair& victim = pairs[kVictim];
  ASSERT_LT(victim.rx->stream_rx()->sequence(), kTotal);
  ASSERT_TRUE(victim.tx->KillTransport());
  sim.RunUntil([&] { return victim.rx->TransportDead(); });
  Socket::ResumePair(*victim.tx, *victim.rx);
  sim.Run();

  for (int s = 0; s < kStreams; ++s) {
    const Pair& p = pairs[s];
    parks += CounterValue(p.rx.get(), "mux.parks", "events");
    if (p.tx == nullptr) continue;
    parks += CounterValue(p.tx.get(), "mux.parks", "events");
    EXPECT_EQ(VerifyPattern(p.in.data(), kTotal, 0, 500 + s), kTotal)
        << "stream " << s;
    EXPECT_TRUE(p.tx->Quiescent() && p.rx->Quiescent()) << "stream " << s;
    ExpectCleanChecker(p.tx.get(), p.rx.get());
  }
  ExpectCleanMuxPair(g0, g1);
  EXPECT_EQ(g0.stats().virtual_kills, 1u);
  EXPECT_EQ(g0.stats().revives, 1u);

  const std::pair<int, std::uint64_t> kFingerprints[] = {
      {0, 0xbda0d9c3a2cabe2dull},  {3, 0x20af166465624185ull},
      {kVictim, 0x5cc05bbe293672c5ull}, {36, 0x43908e655d808400ull},
      {69, 0x85d588950cca484aull},
  };
  for (const auto& [s, fp] : kFingerprints) {
    EXPECT_EQ(ConnectionFingerprint(*pairs[s].tx, *pairs[s].rx), fp)
        << "stream " << s;
  }
  EXPECT_EQ(g0.stats().dispatch_rounds, 77u);
  EXPECT_EQ(g0.stats().dispatch_wakes, 442u);
  EXPECT_EQ(g1.stats().dispatch_rounds, 12u);
  EXPECT_EQ(g1.stats().dispatch_wakes, 27u);
  EXPECT_EQ(parks, 363u);
}

// The engine path end to end: a server Acceptor with a QpPool, clients
// connecting with wiring-borne MuxStreams through the real handshake.
// Accepted streams ride the pool's shared QPs; a REQ beyond max_streams is
// refused with the same REJECT as memory pressure.
TEST(StreamMuxTest, AcceptorQpPoolAdmitsOverSharedQps) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), /*seed=*/47);
  metrics::Registry registry;
  engine::ProgressEngine engine(sim.fabric().node(1).cpu(),
                                engine::ProgressEngineOptions{});
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 16 * 1024;

  engine::AcceptorOptions aopts;
  aopts.pool = {.pool_bytes = 4 * 16 * 1024, .lease_bytes = 16 * 1024};
  aopts.control_slots = 64;
  engine::QpPoolOptions popts;
  popts.mux.width = 2;
  popts.max_streams = 3;  // the fourth muxed connect must be refused
  aopts.mux = popts;
  engine::Acceptor acceptor(sim.device(1), engine, aopts, &registry);
  ASSERT_NE(acceptor.qp_pool(), nullptr);

  // The client side keeps its own group, wired to the pool's once.
  MuxGroup client_group(sim.device(0), popts.mux);
  MuxGroup::Connect(client_group, acceptor.qp_pool()->group());
  const std::uint64_t qps_before = sim.device(1).QueuePairsCreated();

  constexpr std::uint64_t kTotal = 8 * 1024;
  struct Rx {
    std::vector<std::uint8_t> data;
    std::uint64_t received = 0;
  };
  std::vector<std::unique_ptr<Rx>> rxs;
  acceptor.Listen(
      sim.connections(), 4000, opts,
      [&](Socket&, const Event&) {},
      [&](Socket& s) {
        auto rx = std::make_unique<Rx>();
        rx->data.resize(kTotal);
        s.Recv(rx->data.data(), kTotal, RecvFlags{.waitall = true});
        rxs.push_back(std::move(rx));
      });

  std::vector<Socket*> clients;
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    std::uint32_t id = client_group.AllocateStreamId();
    SocketWiring wiring;
    wiring.mux_stream = client_group.AttachStream(id);
    sim.Connect(0, 4000, SocketType::kStream, opts, std::move(wiring),
                [&](Socket* s) {
                  if (s == nullptr) {
                    ++rejected;
                  } else {
                    clients.push_back(s);
                  }
                });
    sim.Run();  // complete each handshake before the next REQ
  }
  ASSERT_EQ(clients.size(), 3u);
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(acceptor.qp_pool()->AdmissionRefusals(), 1u);
  EXPECT_EQ(
      registry.counters().at("mux.admission_refusals").instrument->value(),
      acceptor.qp_pool()->AdmissionRefusals());
  EXPECT_EQ(acceptor.qp_pool()->LiveStreams(), 3u);
  EXPECT_EQ(sim.device(1).QueuePairsCreated(), qps_before)
      << "accepting muxed connections must not create queue pairs";

  std::vector<std::vector<std::uint8_t>> outs;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    outs.emplace_back(kTotal);
    FillPattern(outs[i].data(), kTotal, 0, 300 + i);
    clients[i]->Send(outs[i].data(), kTotal);
  }
  sim.Run();
  ASSERT_EQ(rxs.size(), 3u);
  for (std::size_t i = 0; i < rxs.size(); ++i) {
    EXPECT_EQ(VerifyPattern(rxs[i]->data.data(), kTotal, 0, 300 + i), kTotal)
        << "engine-accepted muxed stream " << i;
  }
  ExpectCleanMuxPair(client_group, acceptor.qp_pool()->group());
}

// ---------------------------------------------------------------------------
// Property sweep: dedicated and muxed transports are payload-equivalent.
// ---------------------------------------------------------------------------

struct SweepConfig {
  std::uint64_t seed;
  const char* profile;  // "fdr" | "wan"
  int streams;
  std::uint32_t width;  // muxed arm's slot count
};

HardwareProfile SweepProfile(const std::string& name) {
  if (name == "wan") {
    return HardwareProfile::RoCE10GWithDelay(Milliseconds(24));
  }
  return HardwareProfile::FdrInfiniBand();
}

/// One arm of the property: run `streams` concurrent one-direction
/// transfers with a seed-derived interleave, dedicated or muxed, and
/// return the per-stream delivered-payload FNV fingerprints.  Checker
/// must be clean in both arms.
std::vector<std::uint64_t> RunSweepArm(const SweepConfig& cfg, bool muxed) {
  Simulation sim(SweepProfile(cfg.profile), cfg.seed);
  std::unique_ptr<MuxGroup> g0, g1;
  if (muxed) {
    MuxOptions mopts;
    mopts.width = cfg.width;
    g0 = std::make_unique<MuxGroup>(sim.device(0), mopts);
    g1 = std::make_unique<MuxGroup>(sim.device(1), mopts);
    MuxGroup::Connect(*g0, *g1);
  }

  const std::uint64_t per_stream = 24 * 1024;
  std::vector<std::pair<Socket*, Socket*>> pairs;
  std::vector<std::vector<std::uint8_t>> out(cfg.streams), in(cfg.streams);
  for (int s = 0; s < cfg.streams; ++s) {
    pairs.push_back(muxed
                        ? sim.CreateMuxedPair(*g0, *g1)
                        : sim.CreateConnectedPair(SocketType::kStream));
    pairs[s].first->EnableTracing();
    pairs[s].second->EnableTracing();
    out[s].resize(per_stream);
    in[s].resize(per_stream);
    FillPattern(out[s].data(), per_stream, 0, cfg.seed * 1000 + s);
    pairs[s].second->Recv(in[s].data(), per_stream,
                          RecvFlags{.waitall = true});
  }

  // Identical seed-derived posting interleave in both arms: the payload
  // byte streams must match chunk for chunk regardless of transport.
  Rng rng(SplitMix64(cfg.seed ^ 0x3a6d0f5b9ull).Next());
  std::vector<std::uint64_t> sent(cfg.streams, 0);
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (int s = 0; s < cfg.streams; ++s) {
      if (sent[s] >= per_stream) continue;
      std::uint64_t n = rng.NextInRange(1, 6 * 1024);
      if (n > per_stream - sent[s]) n = per_stream - sent[s];
      pairs[s].first->Send(out[s].data() + sent[s], n);
      sent[s] += n;
      remaining = remaining || sent[s] < per_stream;
    }
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(40)))));
  }
  sim.Run();

  std::vector<std::uint64_t> fps;
  for (int s = 0; s < cfg.streams; ++s) {
    EXPECT_TRUE(pairs[s].first->Quiescent() && pairs[s].second->Quiescent())
        << (muxed ? "muxed" : "dedicated") << " stream " << s << " seed "
        << cfg.seed;
    InvariantReport report =
        CheckConnection(*pairs[s].first, *pairs[s].second);
    EXPECT_TRUE(report.ok())
        << (muxed ? "muxed" : "dedicated") << " stream " << s << " seed "
        << cfg.seed << ": " << report.Summary();
    fps.push_back(PayloadFnv(in[s].data(), per_stream));
  }
  if (muxed) {
    InvariantReport report = CheckMuxGroupPair(*g0, *g1);
    EXPECT_TRUE(report.ok()) << "seed " << cfg.seed << ": "
                             << report.Summary();
  }
  return fps;
}

TEST(StreamMuxPropertyTest, DedicatedAndMuxedDeliverIdenticalPayloads) {
  std::vector<SweepConfig> sweep;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const char* profile : {"fdr", "wan"}) {
      // Width and stream count derived from the seed, ids crossing slots.
      std::uint64_t bits = SplitMix64(seed ^ 0x9e3779b97f4a7c15ull).Next();
      sweep.push_back(SweepConfig{seed, profile,
                                  /*streams=*/2 + static_cast<int>(bits % 5),
          /*width=*/static_cast<std::uint32_t>(1 + (bits >> 8) % 3)});
    }
  }
  for (const SweepConfig& cfg : sweep) {
    SCOPED_TRACE(std::string("seed ") + std::to_string(cfg.seed) + " " +
                 cfg.profile + " streams " + std::to_string(cfg.streams) +
                 " width " + std::to_string(cfg.width));
    std::vector<std::uint64_t> dedicated = RunSweepArm(cfg, /*muxed=*/false);
    std::vector<std::uint64_t> muxed = RunSweepArm(cfg, /*muxed=*/true);
    ASSERT_EQ(dedicated.size(), muxed.size());
    for (std::size_t s = 0; s < dedicated.size(); ++s) {
      EXPECT_EQ(dedicated[s], muxed[s])
          << "stream " << s
          << ": muxed transport delivered different bytes than dedicated";
    }
  }
}

}  // namespace
}  // namespace exs
