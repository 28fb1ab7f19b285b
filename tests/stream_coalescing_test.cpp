// Directed pins for the small-transfer coalescing stage and the ACK
// piggyback (StreamOptions::coalesce).  Every flush trigger is exercised
// by a deterministic construction, and the per-send completion contract of
// merged WWIs — one event per Submit, in submission order — is checked
// event by event.
#include <gtest/gtest.h>

#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

StreamOptions CoalesceOn() {
  StreamOptions opts;
  opts.coalesce.enabled = true;
  return opts;
}

std::uint64_t CountFlushes(const TraceLog& log, CoalesceFlushReason reason) {
  std::uint64_t n = 0;
  for (const auto& ev : log.events()) {
    if (ev.type == TraceEventType::kCoalesceFlushed &&
        ev.msg_phase == static_cast<std::uint64_t>(reason)) {
      ++n;
    }
  }
  return n;
}

class StreamCoalescingTest : public ::testing::Test {
 protected:
  Simulation sim_{HardwareProfile::FdrInfiniBand(), /*seed=*/7,
                  /*carry_payload=*/true};
};

// Three small sends merge into one WWI; the application still sees three
// completion events, in submission order, each reporting its own byte
// count.
TEST_F(StreamCoalescingTest, ThreeMergedSendsCompleteInOrder) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, CoalesceOn());
  client->EnableTracing();
  server->EnableTracing();

  std::vector<Event> completions;
  client->events().SetHandler(
      [&](const Event& ev) { completions.push_back(ev); });

  std::vector<std::uint8_t> out(768), in(768);
  FillPattern(out.data(), out.size(), 0, 5);
  std::uint64_t id0 = client->Send(out.data(), 256);
  std::uint64_t id1 = client->Send(out.data() + 256, 256);
  std::uint64_t id2 = client->Send(out.data() + 512, 256);
  sim_.RunFor(Microseconds(50));  // past the 5 µs delay budget

  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].id, id0);
  EXPECT_EQ(completions[1].id, id1);
  EXPECT_EQ(completions[2].id, id2);
  for (const Event& ev : completions) {
    EXPECT_EQ(ev.type, EventType::kSendComplete);
    EXPECT_EQ(ev.bytes, 256u);
  }

  StreamStats stats = client->stats();
  EXPECT_EQ(stats.coalesced_sends, 3u);
  EXPECT_EQ(stats.coalesced_bytes, 768u);
  EXPECT_EQ(stats.coalesce_flushes, 1u);
  EXPECT_EQ(stats.indirect_transfers, 1u);  // one merged WWI on the wire
  EXPECT_EQ(stats.sends_completed, 3u);
  EXPECT_EQ(stats.bytes_sent, 768u);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();
  EXPECT_EQ(server->stats().recvs_completed, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 5), in.size());

  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A lone staged send stays put until Coalesce::max_delay expires, then
// flushes with reason kTimeout.
TEST_F(StreamCoalescingTest, FlushOnTimeout) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_delay = Microseconds(20);
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(256), in(256);
  FillPattern(out.data(), out.size(), 0, 6);
  client->Send(out.data(), out.size());

  sim_.RunFor(Microseconds(10));  // inside the delay budget: still staged
  EXPECT_EQ(client->stream_tx()->StagedSends(), 1u);
  EXPECT_EQ(client->stream_tx()->StagedBytes(), 256u);
  EXPECT_EQ(client->stats().indirect_transfers, 0u);
  EXPECT_EQ(client->stats().sends_completed, 0u);

  sim_.RunFor(Microseconds(50));  // deadline passed: flushed and posted
  EXPECT_EQ(client->stream_tx()->StagedSends(), 0u);
  EXPECT_EQ(client->stats().indirect_transfers, 1u);
  EXPECT_EQ(client->stats().sends_completed, 1u);
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kTimeout),
            1u);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 6), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A send that would overflow the staging buffer forces the held bytes out
// first (the overflow split), and an exact fill flushes immediately.
TEST_F(StreamCoalescingTest, MaxBytesOverflowSplits) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_bytes = 1024;
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kLead = 8 * 1024;
  std::vector<std::uint8_t> out(kLead + 1800), in(kLead + 1800);
  FillPattern(out.data(), out.size(), 0, 7);

  // A leading oversized send (not coalescing-eligible) puts the sender in
  // an indirect phase, so the splits below are driven purely by the
  // staging capacity and not by a phase switch.
  client->Send(out.data(), kLead);
  ASSERT_EQ(client->stats().coalesced_sends, 0u);

  // 600 stages; the second 600 would overflow (1200 > 1024), so the first
  // flushes alone and the second restarts the staging buffer.
  client->Send(out.data() + kLead, 600);
  client->Send(out.data() + kLead + 600, 600);
  EXPECT_EQ(client->stream_tx()->StagedBytes(), 600u);
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kMaxBytes),
            1u);

  // 424 more bytes make the restarted buffer exactly full: immediate flush,
  // no timer wait.
  client->Send(out.data() + kLead + 1200, 424);
  EXPECT_EQ(client->stream_tx()->StagedBytes(), 0u);
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kMaxBytes),
            2u);

  // 176 trailing bytes ride the timer.
  client->Send(out.data() + kLead + 1624, 176);
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  StreamStats stats = client->stats();
  EXPECT_EQ(stats.coalesced_sends, 4u);
  EXPECT_EQ(stats.coalesced_bytes, 1800u);
  EXPECT_EQ(stats.sends_completed, 5u);
  EXPECT_EQ(server->stats().bytes_received, kLead + 1800u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 7), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Close() flushes staged bytes so the SHUTDOWN trails them on the wire:
// the peer sees all data, then end-of-stream.
TEST_F(StreamCoalescingTest, FlushOnClose) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_delay = Milliseconds(10);  // timer must not preempt
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(300), in(512);
  FillPattern(out.data(), out.size(), 0, 8);
  client->Send(out.data(), out.size());
  EXPECT_EQ(client->stream_tx()->StagedSends(), 1u);
  client->Close();
  EXPECT_EQ(client->stream_tx()->StagedSends(), 0u);
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kClose),
            1u);
  sim_.Run();

  // A plain receive completes short with the flushed bytes; end-of-stream
  // has been delivered behind them.
  server->Recv(in.data(), in.size());
  sim_.Run();
  EXPECT_EQ(server->stats().recvs_completed, 1u);
  EXPECT_EQ(server->stats().bytes_received, out.size());
  EXPECT_EQ(VerifyPattern(in.data(), out.size(), 0, 8), out.size());
  EXPECT_TRUE(client->stream_tx()->Quiescent());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// The phase-change flush, reached by credit starvation: a large send is
// blocked mid-stream in a direct phase with its ADVERT fully consumed, a
// small send stages behind it, and the receiver's credit return drives the
// remainder indirect — the direct→indirect switch must flush the staged
// bytes into the same burst.
TEST_F(StreamCoalescingTest, FlushOnPhaseChange) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_delay = Milliseconds(10);  // timer must not preempt
  opts.credits = 4;
  opts.max_wwi_chunk = 1024;
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(4096 + 256), in(4096 + 256);
  FillPattern(out.data(), out.size(), 0, 9);

  // The WAITALL receive advertises 3 KiB.
  server->Recv(in.data(), 3072, RecvFlags{.waitall = true});
  sim_.RunFor(Microseconds(20));
  ASSERT_EQ(client->stats().adverts_received, 1u);

  // Three direct 1 KiB chunks fill the ADVERT and exhaust the sender's
  // credits (CanSend needs two in reserve), leaving the last KiB of this
  // send blocked at the queue head — still in the direct phase.
  client->Send(out.data(), 4096);
  ASSERT_EQ(client->stats().direct_transfers, 3u);
  ASSERT_EQ(client->stats().indirect_transfers, 0u);

  // The small send stages behind the blocked remainder (the ADVERT queue
  // is empty again, so it is coalescing-eligible).
  client->Send(out.data() + 4096, 256);
  ASSERT_EQ(client->stream_tx()->StagedSends(), 1u);

  // The receiver's credit return unblocks the pump; the remainder has no
  // ADVERT and goes indirect, and the direct→indirect phase switch flushes
  // the staged send into the same burst.
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(client->stream_tx()->StagedSends(), 0u);
  EXPECT_EQ(
      CountFlushes(client->tx_trace(), CoalesceFlushReason::kPhaseChange),
      1u);
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kTimeout),
            0u);
  EXPECT_GE(client->stats().indirect_transfers, 2u);

  server->Recv(in.data() + 3072, 1024 + 256, RecvFlags{.waitall = true});
  sim_.Run();
  EXPECT_EQ(server->stats().bytes_received, out.size());
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 9), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// An arriving ADVERT flushes staged bytes so they can ride it directly
// instead of waiting out the delay budget.
TEST_F(StreamCoalescingTest, FlushOnAdvertGoesDirect) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_delay = Milliseconds(10);  // timer must not preempt
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(256), in(256);
  FillPattern(out.data(), out.size(), 0, 10);
  client->Send(out.data(), out.size());
  EXPECT_EQ(client->stream_tx()->StagedSends(), 1u);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kAdvert),
            1u);
  EXPECT_EQ(client->stats().direct_transfers, 1u);
  EXPECT_EQ(client->stats().indirect_transfers, 0u);
  EXPECT_EQ(client->stats().sends_completed, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 10), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A large (non-eligible) send submitted behind staged bytes forces an
// ordering flush: the staged bytes reach the wire first.
TEST_F(StreamCoalescingTest, OrderingFlushKeepsStagedBytesFirst) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_delay = Milliseconds(10);  // timer must not preempt
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kBig = 16 * 1024;
  std::vector<std::uint8_t> out(256 + kBig), in(256 + kBig);
  FillPattern(out.data(), out.size(), 0, 11);
  client->Send(out.data(), 256);
  EXPECT_EQ(client->stream_tx()->StagedSends(), 1u);
  client->Send(out.data() + 256, kBig);
  EXPECT_EQ(client->stream_tx()->StagedSends(), 0u);
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kOrdering),
            1u);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();
  EXPECT_EQ(server->stats().bytes_received, out.size());
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 11), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A vectored send behind staged sends takes the same ordering flush as a
// large Send: the three staged 100 B sends reach the wire first, as one
// aggregate, and all four completions arrive in submission order.
TEST_F(StreamCoalescingTest, SendvBehindStagedSendsFlushesThemFirst) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_delay = Milliseconds(10);  // timer must not preempt
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<Event> completions;
  client->events().SetHandler(
      [&](const Event& ev) { completions.push_back(ev); });

  // Stream bytes [0, 300) go through Send, [300, 700) through two
  // separately allocated Sendv slices.
  std::vector<std::uint8_t> staged(300), v0(200), v1(200), in(700, 0);
  FillPattern(staged.data(), staged.size(), 0, 24);
  FillPattern(v0.data(), v0.size(), 300, 24);
  FillPattern(v1.data(), v1.size(), 500, 24);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ids.push_back(client->Send(staged.data() + i * 100, 100));
  }
  ASSERT_EQ(client->stream_tx()->StagedSends(), 3u);
  Socket::IoSlice iov[2] = {{v0.data(), v0.size()}, {v1.data(), v1.size()}};
  ids.push_back(client->Sendv(iov, 2));
  EXPECT_EQ(client->stream_tx()->StagedSends(), 0u);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 24), in.size());
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kOrdering),
            1u);
  EXPECT_EQ(client->stats().coalesce_flushes, 1u);
  ASSERT_EQ(completions.size(), 4u);
  const std::uint64_t bytes[4] = {100, 100, 100, 400};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(completions[i].type, EventType::kSendComplete);
    EXPECT_EQ(completions[i].id, ids[i]);
    EXPECT_EQ(completions[i].bytes, bytes[i]);
  }
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// The receiver folds a pending ACK free-count into the ADVERT of a
// partially buffered receive, and the sender releases the space on ADVERT
// arrival: one control message where two used to go.
TEST_F(StreamCoalescingTest, AckPiggybacksOntoAdvert) {
  StreamOptions opts = CoalesceOn();
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kBuffered = 4096;
  constexpr std::uint64_t kTotal = 8192;
  std::vector<std::uint8_t> out(kTotal), in(kTotal);
  FillPattern(out.data(), out.size(), 0, 12);

  // 4 KiB arrive with no receive posted: buffered (indirect).
  client->Send(out.data(), kBuffered);
  sim_.RunFor(Milliseconds(1));
  ASSERT_EQ(client->stats().indirect_transfers, 1u);

  // The WAITALL receive drains the ring, then advertises its remainder —
  // with the 4 KiB free-count riding along instead of a standalone ACK.
  server->Recv(in.data(), kTotal, RecvFlags{.waitall = true});
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(server->stats().acks_piggybacked, 1u);
  EXPECT_EQ(server->stats().acks_sent, 0u);
  EXPECT_EQ(server->stats().adverts_sent, 1u);

  // The sender learned of the freed space through the ADVERT.
  std::uint64_t acked = 0;
  for (const auto& ev : client->tx_trace().events()) {
    if (ev.type == TraceEventType::kAckReceived) acked += ev.len;
  }
  EXPECT_EQ(acked, kBuffered);

  client->Send(out.data() + kBuffered, kTotal - kBuffered);
  sim_.Run();
  EXPECT_EQ(server->stats().recvs_completed, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 12), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A coalesced aggregate larger than max_wwi_chunk must re-chunk through
// the normal Pump() split on the indirect path: the 4096-byte merged WWI
// leaves as ceil(4096/1000) = 5 chunks, byte-continuous, and still fans
// out one completion per member send in submission order.
TEST_F(StreamCoalescingTest, AggregateAboveMaxChunkRechunksIndirect) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_bytes = 4096;
  opts.max_wwi_chunk = 1000;  // deliberately not a divisor of max_bytes
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<Event> completions;
  client->events().SetHandler(
      [&](const Event& ev) { completions.push_back(ev); });

  constexpr std::uint64_t kSends = 16, kEach = 256;  // exactly max_bytes
  std::vector<std::uint8_t> out(kSends * kEach), in(kSends * kEach);
  FillPattern(out.data(), out.size(), 0, 21);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    ids.push_back(client->Send(out.data() + i * kEach, kEach));
  }
  sim_.RunFor(Milliseconds(1));

  // One exact-fill flush, five WWIs on the wire for it.
  EXPECT_EQ(client->stats().coalesce_flushes, 1u);
  EXPECT_EQ(client->stats().indirect_transfers, 5u);
  ASSERT_EQ(completions.size(), kSends);
  for (std::uint64_t i = 0; i < kSends; ++i) {
    EXPECT_EQ(completions[i].id, ids[i]);
    EXPECT_EQ(completions[i].bytes, kEach);
  }

  // Chunk lengths on the wire: continuity is the checker's job; the split
  // sizes pin the MaxChunk clamp.
  std::vector<std::uint64_t> posted;
  for (const auto& ev : client->tx_trace().events()) {
    if (ev.type == TraceEventType::kIndirectPosted) posted.push_back(ev.len);
  }
  ASSERT_EQ(posted.size(), 5u);
  EXPECT_EQ(posted[0], 1000u);
  EXPECT_EQ(posted[3], 1000u);
  EXPECT_EQ(posted[4], 96u);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 21), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// The same oversized aggregate flushed *by an arriving ADVERT* re-chunks
// onto the direct path: staged bytes merge, the ADVERT flush queues the
// aggregate, and it lands in advertised memory as multiple WWIs.
TEST_F(StreamCoalescingTest, AggregateAboveMaxChunkRechunksDirect) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_bytes = 4096;
  opts.coalesce.max_delay = Microseconds(100);  // outlive the handshake
  opts.max_wwi_chunk = 1000;
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  constexpr std::uint64_t kSends = 6, kEach = 512;  // 3072 < max_bytes
  std::vector<std::uint8_t> out(kSends * kEach), in(kSends * kEach);
  FillPattern(out.data(), out.size(), 0, 22);
  for (std::uint64_t i = 0; i < kSends; ++i) {
    client->Send(out.data() + i * kEach, kEach);
  }
  EXPECT_EQ(client->stream_tx()->StagedBytes(), kSends * kEach);

  // The WAITALL receive's ADVERT reaches the sender well inside the delay
  // budget and flushes the staged aggregate straight into direct service.
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  StreamStats stats = client->stats();
  EXPECT_EQ(stats.coalesce_flushes, 1u);
  EXPECT_EQ(CountFlushes(client->tx_trace(), CoalesceFlushReason::kAdvert),
            1u);
  EXPECT_EQ(stats.indirect_transfers, 0u);
  EXPECT_EQ(stats.direct_transfers, 4u);  // 1000+1000+1000+72
  EXPECT_EQ(stats.sends_completed, kSends);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 22), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Coalescing composes with striping: the re-chunked aggregate's WWIs
// spread across rails and reassemble by stripe sequence.
TEST_F(StreamCoalescingTest, AggregateRechunksAcrossRails) {
  StreamOptions opts = CoalesceOn();
  opts.coalesce.max_bytes = 4096;
  opts.max_wwi_chunk = 1000;
  opts.rails = 2;
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();

  std::vector<std::uint8_t> out(4096), in(4096);
  FillPattern(out.data(), out.size(), 0, 23);
  for (std::uint64_t i = 0; i < 16; ++i) {
    client->Send(out.data() + i * 256, 256);
  }
  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();

  EXPECT_EQ(client->stats().coalesce_flushes, 1u);
  EXPECT_EQ(client->stats().sends_completed, 16u);
  std::size_t rails_used = 0;
  bool seen[2] = {false, false};
  for (const auto& ev : client->tx_trace().events()) {
    if (ev.type != TraceEventType::kIndirectPosted &&
        ev.type != TraceEventType::kDirectPosted) {
      continue;
    }
    ASSERT_LT(ev.msg_phase, 2u);
    if (!seen[ev.msg_phase]) {
      seen[ev.msg_phase] = true;
      ++rails_used;
    }
  }
  EXPECT_EQ(rails_used, 2u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 23), in.size());
  auto report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Each flush hands the staging buffer to its aggregate and registers a
// fresh one.  The aggregate deregisters its region when it completes, so
// the device's live registrations do not grow with the flush count.
TEST_F(StreamCoalescingTest, FlushedStagingBuffersAreDeregistered) {
  auto [client, server] =
      sim_.CreateConnectedPair(SocketType::kStream, CoalesceOn());
  std::vector<std::uint8_t> out(256), in(256);
  FillPattern(out.data(), out.size(), 0, 29);
  client->RegisterMemory(out.data(), out.size());
  server->RegisterMemory(in.data(), in.size());
  const std::size_t before = sim_.device(0).RegisteredRegionCount();
  auto flush_rounds = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      client->Send(out.data(), 128);
      client->Send(out.data() + 128, 128);
      sim_.RunFor(Microseconds(50));  // past the 5 µs delay budget
      server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
      sim_.Run();
      ASSERT_EQ(VerifyPattern(in.data(), in.size(), 0, 29), in.size());
    }
  };
  flush_rounds(8);
  const std::size_t after_few = sim_.device(0).RegisteredRegionCount();
  flush_rounds(56);
  EXPECT_GE(client->stats().coalesce_flushes, 64u);
  EXPECT_EQ(sim_.device(0).RegisteredRegionCount(), after_few);
  EXPECT_LE(after_few, before + 1);
}

}  // namespace
}  // namespace exs
