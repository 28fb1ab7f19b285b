// RPC tier directed tests: framing, the pipelined client, the sharded KV
// server with its fixed-slot slab, deadline/timeout/cancellation, and the
// request/response conservation invariant — including the conviction test
// proving CheckRpcConservation catches a forged double outcome.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/loadgen/workload.hpp"
#include "exs/mux.hpp"
#include "exs/rpc/framing.hpp"
#include "exs/rpc/kv_server.hpp"
#include "exs/rpc/rpc_client.hpp"

namespace exs::rpc {
namespace {

// ---- framing ------------------------------------------------------------

TEST(Framing, HeaderRoundTrip) {
  MessageHeader h;
  h.type = MessageType::kResponse;
  h.op_or_status = static_cast<std::uint8_t>(Status::kNotFound);
  h.key_len = 0x1234;
  h.value_len = 0xdeadbeef % kMaxValueBytes;
  h.correlation_id = 0x0123456789abcdefULL;
  std::uint8_t wire[kHeaderBytes];
  EncodeHeader(h, wire);
  MessageHeader out;
  // key_len above exceeds kMaxKeyBytes, so decode must refuse it.
  EXPECT_FALSE(DecodeHeader(wire, &out));
  h.key_len = 17;
  h.value_len = 4096;
  EncodeHeader(h, wire);
  ASSERT_TRUE(DecodeHeader(wire, &out));
  EXPECT_EQ(out.type, h.type);
  EXPECT_EQ(out.op_or_status, h.op_or_status);
  EXPECT_EQ(out.key_len, h.key_len);
  EXPECT_EQ(out.value_len, h.value_len);
  EXPECT_EQ(out.correlation_id, h.correlation_id);
}

TEST(Framing, DecoderReassemblesAcrossArbitrarySplits) {
  std::vector<std::uint8_t> stream;
  std::vector<std::string> keys = {"alpha", "b", "curve-17"};
  std::vector<std::uint8_t> value(97);
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto frame = EncodeMessage(MessageType::kRequest,
                               static_cast<std::uint8_t>(Op::kPut), i + 1,
                               keys[i], value.data(),
                               static_cast<std::uint32_t>(value.size()));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  // Feed one byte at a time — the cruellest split.
  std::vector<MessageView> seen_headers;
  std::vector<std::string> seen_keys;
  std::vector<std::vector<std::uint8_t>> seen_values;
  FrameDecoder dec([&](const MessageView& v) {
    seen_headers.push_back(v);
    seen_keys.push_back(v.KeyString());
    seen_values.emplace_back(v.value, v.value + v.header.value_len);
  });
  for (std::uint8_t b : stream) dec.Feed(&b, 1);
  ASSERT_EQ(seen_keys.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(seen_keys[i], keys[i]);
    EXPECT_EQ(seen_headers[i].header.correlation_id, i + 1);
    EXPECT_EQ(seen_values[i], value);
  }
  EXPECT_TRUE(dec.Idle());
  EXPECT_FALSE(dec.Failed());
  EXPECT_EQ(dec.messages_decoded(), keys.size());
}

TEST(Framing, MalformedHeaderStopsDecoder) {
  std::uint8_t junk[kHeaderBytes] = {0x7f, 0, 0, 0, 0, 0, 0, 0,
                                     0,    0, 0, 0, 0, 0, 0, 0};
  std::string error;
  FrameDecoder dec([](const MessageView&) { FAIL() << "decoded junk"; },
                   [&](const std::string& e) { error = e; });
  dec.Feed(junk, sizeof junk);
  EXPECT_TRUE(dec.Failed());
  EXPECT_FALSE(error.empty());
}

// ---- end-to-end over a simulated pair -----------------------------------

struct Fixture {
  Simulation sim;
  Socket* client_sock = nullptr;
  Socket* server_sock = nullptr;
  KvServer server;
  std::optional<RpcClient> client;

  explicit Fixture(KvServerOptions sopts = {}, RpcClientOptions copts = {},
                   StreamOptions stream = {})
      : sim(simnet::HardwareProfile::FdrInfiniBand(), /*seed=*/7),
        server(sopts) {
    auto [a, b] = sim.CreateConnectedPair(SocketType::kStream, stream);
    client_sock = a;
    server_sock = b;
    a->EnableTracing(0);
    b->EnableTracing(0);
    server.Attach(*b);
    client.emplace(*a, sim.scheduler(), copts);
  }

  InvariantReport Check() {
    std::vector<const RpcLedger*> ledgers = {&client->ledger()};
    return CheckRpcConservation(ledgers, &server.counters());
  }
};

TEST(RpcKv, PutGetDelRoundTrip) {
  Fixture f;
  std::vector<std::uint8_t> value(300);
  loadgen::WorkloadGenerator::FillValue("door", value.data(),
                                        static_cast<std::uint32_t>(value.size()));
  std::vector<RpcClient::Result> results;
  auto cb = [&](const RpcClient::Result& r) { results.push_back(r); };
  f.client->Call(Op::kPut, "door", value.data(),
                 static_cast<std::uint32_t>(value.size()), cb);
  f.client->Call(Op::kGet, "door", nullptr, 0, cb);
  f.client->Call(Op::kDel, "door", nullptr, 0, cb);
  f.client->Call(Op::kGet, "door", nullptr, 0, cb);
  f.sim.Run();

  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].outcome, Outcome::kAnswered);
  EXPECT_EQ(results[0].status, Status::kOk);
  EXPECT_EQ(results[1].status, Status::kOk);
  EXPECT_EQ(results[1].value, value);  // byte-exact round trip
  EXPECT_EQ(results[2].status, Status::kOk);
  EXPECT_EQ(results[3].status, Status::kNotFound);
  EXPECT_EQ(results[3].outcome, Outcome::kAnswered);

  EXPECT_EQ(f.server.stats().hits, 2u);   // GET hit + DEL hit
  EXPECT_EQ(f.server.stats().misses, 1u);
  EXPECT_EQ(f.server.stats().sendv_responses, 1u);
  EXPECT_EQ(f.server.keys_stored(), 0u);
  EXPECT_EQ(f.server.slab().in_use(), 0u);

  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
  report = CheckConnection(*f.client_sock, *f.server_sock);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, PipelinedCallsResolveByCorrelation) {
  // Small receive chunks on both sides force frames to split and
  // reassemble across many completions.
  KvServerOptions sopts;
  sopts.recv_chunk_bytes = 48;
  RpcClientOptions copts;
  copts.recv_chunk_bytes = 32;
  StreamOptions stream;
  stream.max_wwi_chunk = 64;  // bulk sends split into many WWIs
  Fixture f(sopts, copts, stream);

  constexpr int kCalls = 32;
  std::vector<std::uint8_t> value(200, 0xab);
  int answered = 0;
  for (int i = 0; i < kCalls; ++i) {
    const std::string key = {'k', static_cast<char>('0' + i % 8)};
    const bool put = i % 2 == 0;
    const std::uint64_t expect_id = static_cast<std::uint64_t>(i) + 1;
    f.client->Call(
        put ? Op::kPut : Op::kGet, key, put ? value.data() : nullptr,
        put ? static_cast<std::uint32_t>(value.size()) : 0,
        [&, expect_id](const RpcClient::Result& r) {
          EXPECT_EQ(r.correlation_id, expect_id);
          EXPECT_EQ(r.outcome, Outcome::kAnswered);
          ++answered;
        });
  }
  f.sim.Run();
  EXPECT_EQ(answered, kCalls);
  EXPECT_EQ(f.client->pending_calls(), 0u);
  EXPECT_FALSE(f.client->framing_failed());
  EXPECT_EQ(f.client->answer_latencies().size(),
            static_cast<std::size_t>(kCalls));
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, DeadlineTimesOutAndLateResponseIsStale) {
  RpcClientOptions copts;
  copts.default_deadline = Microseconds(1);  // far below the FDR RTT
  Fixture f({}, copts);
  std::vector<RpcClient::Result> results;
  f.client->Call(Op::kGet, "nope", nullptr, 0,
                 [&](const RpcClient::Result& r) { results.push_back(r); });
  f.sim.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, Outcome::kTimedOut);
  // The server still answered; the answer arrived after the deadline.
  EXPECT_EQ(f.server.counters().responses_sent, 1u);
  EXPECT_EQ(f.client->ledger().stale_responses, 1u);
  EXPECT_EQ(f.client->ledger().Count(Outcome::kTimedOut), 1u);
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, ExplicitCancelResolvesOnce) {
  Fixture f;
  std::vector<RpcClient::Result> results;
  const std::uint64_t id =
      f.client->Call(Op::kGet, "x", nullptr, 0,
                     [&](const RpcClient::Result& r) { results.push_back(r); });
  f.client->Cancel(id);
  f.client->Cancel(id);  // idempotent
  f.sim.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, Outcome::kTimedOut);
  EXPECT_EQ(f.client->ledger().cancelled, 1u);
  EXPECT_EQ(f.client->ledger().stale_responses, 1u);
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, SlabExhaustionRefusesAndReleasesRecover) {
  KvServerOptions sopts;
  sopts.slab_slots = 2;
  sopts.slot_bytes = 64;
  Fixture f(sopts);
  std::uint8_t v[16] = {1};
  std::vector<RpcClient::Result> results;
  auto cb = [&](const RpcClient::Result& r) { results.push_back(r); };
  f.client->Call(Op::kPut, "a", v, sizeof v, cb);
  f.client->Call(Op::kPut, "b", v, sizeof v, cb);
  f.client->Call(Op::kPut, "c", v, sizeof v, cb);  // slab full -> refused
  f.client->Call(Op::kDel, "a", nullptr, 0, cb);
  f.client->Call(Op::kPut, "c", v, sizeof v, cb);  // slot freed -> ok
  std::uint8_t big[65] = {2};
  f.client->Call(Op::kPut, "d", big, sizeof big, cb);  // oversize -> refused
  f.sim.Run();

  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[2].outcome, Outcome::kRefused);
  EXPECT_TRUE(results[2].refused_remotely);
  EXPECT_EQ(results[4].outcome, Outcome::kAnswered);
  EXPECT_EQ(results[5].outcome, Outcome::kRefused);
  EXPECT_EQ(f.server.stats().slab_full_refusals, 1u);
  EXPECT_EQ(f.server.stats().oversize_refusals, 1u);
  EXPECT_EQ(f.server.counters().refused, 2u);
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, PinnedSlotSurvivesRacingDelete) {
  Fixture f;
  std::vector<std::uint8_t> value(128);
  loadgen::WorkloadGenerator::FillValue("hot", value.data(), 128);
  std::vector<RpcClient::Result> results;
  auto cb = [&](const RpcClient::Result& r) { results.push_back(r); };
  f.client->Call(Op::kPut, "hot", value.data(), 128, cb);
  // GET and DEL land in the same server pass: the DEL zombies the slot
  // while the GET's Sendv is still reading it.
  f.client->Call(Op::kGet, "hot", nullptr, 0, cb);
  f.client->Call(Op::kDel, "hot", nullptr, 0, cb);
  f.sim.Run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].status, Status::kOk);
  EXPECT_EQ(results[1].value, value);  // delivered intact despite the DEL
  EXPECT_EQ(results[2].status, Status::kOk);
  EXPECT_EQ(f.server.slab().in_use(), 0u);   // zombie freed at completion
  EXPECT_EQ(f.server.slab().zombies(), 0u);
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, LocalShedRefusesWithoutTouchingWire) {
  RpcClientOptions copts;
  copts.max_outstanding = 2;
  Fixture f({}, copts);
  std::vector<RpcClient::Result> results;
  auto cb = [&](const RpcClient::Result& r) { results.push_back(r); };
  f.client->Call(Op::kGet, "a", nullptr, 0, cb);
  f.client->Call(Op::kGet, "b", nullptr, 0, cb);
  f.client->Call(Op::kGet, "c", nullptr, 0, cb);  // over the window -> shed
  f.sim.Run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].outcome, Outcome::kRefused);  // shed resolves first
  EXPECT_FALSE(results[0].refused_remotely);
  EXPECT_EQ(f.client->ledger().shed_local, 1u);
  EXPECT_EQ(f.server.counters().requests_received, 2u);
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, ShardingSpreadsKeys) {
  KvServerOptions sopts;
  sopts.shards = 4;
  Fixture f(sopts);
  std::uint8_t v[8] = {3};
  for (int i = 0; i < 32; ++i) {
    f.client->Call(Op::kPut, "key-" + std::to_string(i), v, sizeof v);
  }
  f.sim.Run();
  int used = 0;
  for (std::uint64_t n : f.server.shard_requests()) {
    if (n > 0) ++used;
  }
  EXPECT_GE(used, 3);  // FNV spreads 32 keys over at least 3 of 4 shards
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, MuxedTransportCarriesRpc) {
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand(), /*seed=*/11);
  MuxOptions mopts;
  mopts.width = 2;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 2 * kKiB;
  opts.max_wwi_chunk = 2 * kKiB;

  KvServer server;
  std::vector<std::unique_ptr<RpcClient>> clients;
  std::vector<const RpcLedger*> ledgers;
  constexpr int kClients = 5;
  int answered = 0;
  std::uint8_t v[64] = {9};
  for (int c = 0; c < kClients; ++c) {
    auto [a, b] = sim.CreateMuxedPair(g0, g1, opts);
    server.Attach(*b);
    clients.push_back(std::make_unique<RpcClient>(*a, sim.scheduler()));
    RpcClient& cl = *clients.back();
    const std::string key = "m" + std::to_string(c);
    cl.Call(Op::kPut, key, v, sizeof v);
    cl.Call(Op::kGet, key, nullptr, 0,
            [&](const RpcClient::Result& r) {
              EXPECT_EQ(r.outcome, Outcome::kAnswered);
              EXPECT_EQ(r.status, Status::kOk);
              ++answered;
            });
  }
  sim.Run();
  EXPECT_EQ(answered, kClients);
  EXPECT_EQ(sim.device(1).QueuePairsCreated(), 2u);  // the mux budget
  for (const auto& cl : clients) ledgers.push_back(&cl->ledger());
  InvariantReport report = CheckRpcConservation(ledgers, &server.counters());
  EXPECT_TRUE(report.ok()) << report.Summary();
  report = CheckMuxGroupPair(g0, g1);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ---- conviction: the checker catches forged books -----------------------

TEST(RpcConservation, ConvictsDoubleOutcome) {
  RpcLedger forged;
  const std::uint64_t id = forged.RecordIssue();
  forged.RecordOutcome(id, Outcome::kAnswered);
  forged.RecordOutcome(id, Outcome::kTimedOut);  // the double resolution
  std::vector<const RpcLedger*> ledgers = {&forged};
  InvariantReport report = CheckRpcConservation(ledgers);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("resolved 2 times"), std::string::npos)
      << report.Summary();
}

TEST(RpcConservation, ConvictsLostRequest) {
  RpcLedger forged;
  forged.RecordIssue();  // issued, never resolved
  std::vector<const RpcLedger*> ledgers = {&forged};
  InvariantReport report = CheckRpcConservation(ledgers);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("lost"), std::string::npos);
}

TEST(RpcConservation, ConvictsServerMismatch) {
  RpcLedger ledger;
  const std::uint64_t id = ledger.RecordIssue();
  ledger.RecordOutcome(id, Outcome::kAnswered);
  RpcServerCounters server;
  server.requests_received = 1;
  server.responses_sent = 2;  // one response vanished into thin air
  server.answered = 2;
  std::vector<const RpcLedger*> ledgers = {&ledger};
  InvariantReport report = CheckRpcConservation(ledgers, &server);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace exs::rpc
