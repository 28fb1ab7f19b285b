// RPC tier directed tests: framing, the pipelined client, the sharded KV
// server with its fixed-slot slab, deadline/timeout/cancellation, and the
// request/response conservation invariant — including the conviction test
// proving CheckRpcConservation catches a forged double outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
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
    const std::size_t at = stream.size();
    stream.resize(at + FrameBytes(keys[i].size(),
                                  static_cast<std::uint32_t>(value.size())));
    EXPECT_EQ(EncodeMessage(MessageType::kRequest,
                            static_cast<std::uint8_t>(Op::kPut), i + 1, keys[i],
                            value.data(),
                            static_cast<std::uint32_t>(value.size()),
                            stream.data() + at),
              stream.size() - at);
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

// ---- seeded mutation fuzzing of the framing --------------------------------

/// A frame as the reference reader below sees it.
struct RefFrame {
  std::uint8_t type = 0;
  std::uint8_t op = 0;
  std::uint16_t key_len = 0;
  std::uint32_t value_len = 0;
  std::uint64_t correlation_id = 0;
  std::vector<std::uint8_t> key;
  std::vector<std::uint8_t> value;
  bool operator==(const RefFrame&) const = default;
};

/// Reads a 16-byte header independently of DecodeHeader: little-endian
/// fields, valid when the type names a request or a response and both
/// lengths are within the decoder's bounds.
bool RefHeader(const std::uint8_t* in, RefFrame* f) {
  f->type = in[0];
  f->op = in[1];
  f->key_len = static_cast<std::uint16_t>(in[2] | in[3] << 8);
  f->value_len = 0;
  for (int i = 7; i >= 4; --i) f->value_len = f->value_len << 8 | in[i];
  f->correlation_id = 0;
  for (int i = 15; i >= 8; --i) {
    f->correlation_id = f->correlation_id << 8 | in[i];
  }
  return (f->type == 1 || f->type == 2) && f->key_len <= kMaxKeyBytes &&
         f->value_len <= kMaxValueBytes;
}

/// What a correct incremental decoder reports for `stream`: the complete
/// frames before the first malformed header, whether one was reached, and
/// whether the stream ends on a frame boundary.
struct RefDecode {
  std::vector<RefFrame> frames;
  bool malformed = false;
  bool idle = true;
};

RefDecode RefWalk(const std::vector<std::uint8_t>& stream) {
  RefDecode out;
  std::size_t off = 0;
  while (stream.size() - off >= kHeaderBytes) {
    RefFrame f;
    if (!RefHeader(stream.data() + off, &f)) {
      out.malformed = true;
      return out;  // the decoder drops everything it holds
    }
    const std::size_t body = std::size_t{f.key_len} + f.value_len;
    if (stream.size() - off - kHeaderBytes < body) break;
    const std::uint8_t* key = stream.data() + off + kHeaderBytes;
    f.key.assign(key, key + f.key_len);
    f.value.assign(key + f.key_len, key + f.key_len + f.value_len);
    out.frames.push_back(std::move(f));
    off += kHeaderBytes + body;
  }
  out.idle = off == stream.size();
  return out;
}

/// Feeds `stream` to a fresh decoder in random splits, each from its own
/// exact-size allocation so an overread lands in an ASan redzone.
struct FedDecode {
  std::vector<RefFrame> frames;
  int errors = 0;
  bool failed = false;
  bool idle = false;
};

FedDecode FeedInSplits(const std::vector<std::uint8_t>& stream, Rng& rng) {
  FedDecode out;
  FrameDecoder dec(
      [&](const MessageView& v) {
        RefFrame f;
        f.type = static_cast<std::uint8_t>(v.header.type);
        f.op = v.header.op_or_status;
        f.key_len = v.header.key_len;
        f.value_len = v.header.value_len;
        f.correlation_id = v.header.correlation_id;
        f.key.assign(v.key, v.key + v.header.key_len);
        f.value.assign(v.value, v.value + v.header.value_len);
        out.frames.push_back(std::move(f));
      },
      [&](const std::string&) { ++out.errors; });
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t want =
        rng.NextBool(0.3) ? rng.NextInRange(1, 8) : rng.NextInRange(1, 4096);
    const std::size_t n = std::min(want, stream.size() - off);
    const std::vector<std::uint8_t> piece(stream.begin() + off,
                                          stream.begin() + off + n);
    dec.Feed(piece.data(), piece.size());
    off += n;
  }
  // Whatever follows a malformed header is never decoded.
  if (dec.Failed()) {
    std::vector<std::uint8_t> more(FrameBytes(3, 5));
    const std::uint8_t value[5] = {1, 2, 3, 4, 5};
    EncodeMessage(MessageType::kResponse, 1, 99, "abc", value, 5, more.data());
    dec.Feed(more.data(), more.size());
  }
  out.failed = dec.Failed();
  out.idle = dec.Idle();
  return out;
}

/// Random valid frames; records where each one starts.
std::vector<std::uint8_t> RandomFrames(Rng& rng,
                                       std::vector<std::size_t>* starts) {
  std::vector<std::uint8_t> stream;
  const std::uint64_t frames = rng.NextInRange(1, 12);
  for (std::uint64_t i = 0; i < frames; ++i) {
    const std::size_t key_len =
        rng.NextBool(0.1) ? rng.NextInRange(0, kMaxKeyBytes)
                          : rng.NextInRange(0, 32);
    const auto value_len = static_cast<std::uint32_t>(
        rng.NextBool(0.05) ? rng.NextInRange(0, 70000)
                           : rng.NextInRange(0, 600));
    std::string key(key_len, '\0');
    for (char& c : key) c = static_cast<char>(rng.NextBelow(256));
    std::vector<std::uint8_t> value(value_len);
    for (std::uint8_t& b : value) {
      b = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    const auto type = rng.NextBool() ? MessageType::kRequest
                                     : MessageType::kResponse;
    starts->push_back(stream.size());
    stream.resize(stream.size() + FrameBytes(key_len, value_len));
    EncodeMessage(type, static_cast<std::uint8_t>(rng.NextBelow(256)),
                  rng.NextU64(), key, value.data(), value_len,
                  stream.data() + starts->back());
  }
  return stream;
}

/// One mutation of `stream`: a byte flip, a truncation, an oversize
/// length field or a bad type byte in some frame's header.
void Mutate(Rng& rng, const std::vector<std::size_t>& starts,
            std::vector<std::uint8_t>* stream) {
  if (stream->empty()) return;
  const std::size_t at = starts[rng.NextBelow(starts.size())];
  switch (rng.NextBelow(5)) {
    case 0: {
      const std::size_t pos = rng.NextBelow(stream->size());
      (*stream)[pos] ^= static_cast<std::uint8_t>(rng.NextInRange(1, 255));
      break;
    }
    case 1:
      stream->resize(rng.NextBelow(stream->size()));
      break;
    case 2:
      if (at + kHeaderBytes <= stream->size()) {
        const auto key_len = static_cast<std::uint16_t>(
            rng.NextInRange(kMaxKeyBytes + 1, 0xffff));
        (*stream)[at + 2] = static_cast<std::uint8_t>(key_len);
        (*stream)[at + 3] = static_cast<std::uint8_t>(key_len >> 8);
      }
      break;
    case 3:
      if (at + kHeaderBytes <= stream->size()) {
        const auto value_len = static_cast<std::uint32_t>(
            rng.NextInRange(kMaxValueBytes + 1, 0xffffffffu));
        for (int i = 0; i < 4; ++i) {
          (*stream)[at + 4 + i] =
              static_cast<std::uint8_t>(value_len >> (8 * i));
        }
      }
      break;
    default:
      if (at < stream->size()) {
        (*stream)[at] = static_cast<std::uint8_t>(
            rng.NextBool() ? 0 : rng.NextInRange(3, 255));
      }
      break;
  }
}

TEST(FramingFuzz, DecodeHeaderMatchesReferenceReader) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    std::uint8_t in[kHeaderBytes];
    for (std::uint8_t& b : in) {
      b = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    // Bias toward the interesting edges: valid types, lengths at the bounds.
    if (rng.NextBool()) {
      in[0] = static_cast<std::uint8_t>(rng.NextInRange(0, 3));
    }
    if (rng.NextBool()) {
      const auto key_len = static_cast<std::uint16_t>(
          kMaxKeyBytes - 1 + rng.NextBelow(3));
      in[2] = static_cast<std::uint8_t>(key_len);
      in[3] = static_cast<std::uint8_t>(key_len >> 8);
    }
    if (rng.NextBool()) {
      const auto value_len = static_cast<std::uint32_t>(
          kMaxValueBytes - 1 + rng.NextBelow(3));
      for (int i = 0; i < 4; ++i) {
        in[4 + i] = static_cast<std::uint8_t>(value_len >> (8 * i));
      }
    }
    RefFrame ref;
    const bool valid = RefHeader(in, &ref);
    MessageHeader h;
    ASSERT_EQ(DecodeHeader(in, &h), valid) << "seed " << seed;
    if (!valid) continue;
    EXPECT_EQ(static_cast<std::uint8_t>(h.type), ref.type) << "seed " << seed;
    EXPECT_EQ(h.op_or_status, ref.op) << "seed " << seed;
    EXPECT_EQ(h.key_len, ref.key_len) << "seed " << seed;
    EXPECT_EQ(h.value_len, ref.value_len) << "seed " << seed;
    EXPECT_EQ(h.correlation_id, ref.correlation_id) << "seed " << seed;
  }
}

TEST(FramingFuzz, MutatedStreamsPoisonOrDecodeExactly) {
  int poisoned = 0;
  int partial = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    std::vector<std::size_t> starts;
    const std::vector<std::uint8_t> clean = RandomFrames(rng, &starts);

    // Unmutated: every frame decodes byte-exact, whatever the splits.
    const RefDecode want = RefWalk(clean);
    ASSERT_FALSE(want.malformed) << "seed " << seed;
    ASSERT_EQ(want.frames.size(), starts.size()) << "seed " << seed;
    FedDecode got = FeedInSplits(clean, rng);
    ASSERT_EQ(got.errors, 0) << "seed " << seed;
    ASSERT_TRUE(got.frames == want.frames) << "seed " << seed;
    ASSERT_TRUE(got.idle) << "seed " << seed;

    // Mutated: the decoder delivers exactly the frames before the first
    // malformed header, reports it once, and decodes nothing after it.
    std::vector<std::uint8_t> mutated = clean;
    const std::uint64_t mutations = rng.NextInRange(1, 3);
    for (std::uint64_t m = 0; m < mutations; ++m) Mutate(rng, starts, &mutated);
    const RefDecode expect = RefWalk(mutated);
    got = FeedInSplits(mutated, rng);
    ASSERT_EQ(got.errors, expect.malformed ? 1 : 0) << "seed " << seed;
    ASSERT_EQ(got.failed, expect.malformed) << "seed " << seed;
    ASSERT_EQ(got.frames.size(), expect.frames.size()) << "seed " << seed;
    ASSERT_TRUE(got.frames == expect.frames) << "seed " << seed;
    ASSERT_EQ(got.idle, expect.idle) << "seed " << seed;
    poisoned += expect.malformed ? 1 : 0;
    partial += !expect.malformed && !expect.idle ? 1 : 0;
  }
  // The mutations reach both verdicts: a poisoned decoder and a stream cut
  // inside a frame.
  EXPECT_GT(poisoned, 100);
  EXPECT_GT(partial, 20);
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
    std::string key = "m";
    key += std::to_string(c);
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

// ---- registered send buffers ----------------------------------------------

// Frames and response headers come from registered pools, so registrations
// track the in-flight window, not the call count.
TEST(RpcKv, RegistrationsStayFlatAcrossManyCalls) {
  Fixture f;
  const std::size_t client_regions = f.sim.device(0).RegisteredRegionCount();
  const std::size_t server_regions = f.sim.device(1).RegisteredRegionCount();
  const std::uint64_t client_registrations =
      f.sim.device(0).RegionsRegistered();
  const std::uint64_t server_registrations =
      f.sim.device(1).RegionsRegistered();
  constexpr std::uint32_t kSizes[] = {24, 130, 300, 480};
  std::vector<std::uint8_t> value(480, 0x5a);
  int answered = 0;
  auto cb = [&](const RpcClient::Result& r) {
    if (r.outcome == Outcome::kAnswered) ++answered;
  };
  constexpr int kCalls = 2000;
  constexpr int kWindow = 8;
  for (int i = 0; i < kCalls; ++i) {
    const std::string key = "key-" + std::to_string(i % 50);
    if (i % 2 == 0) {
      f.client->Call(Op::kPut, key, value.data(), kSizes[(i / 2) % 4], cb);
    } else {
      f.client->Call(Op::kGet, key, nullptr, 0, cb);
    }
    if (i % kWindow == kWindow - 1) f.sim.Run();
  }
  f.sim.Run();
  EXPECT_EQ(answered, kCalls);
  // At most one frame per call in the window, and one header chunk, each
  // registered once and reused.
  EXPECT_LE(f.sim.device(0).RegisteredRegionCount(),
            client_regions + kWindow);
  EXPECT_LE(f.sim.device(1).RegisteredRegionCount(), server_regions + 1);
  EXPECT_LE(f.sim.device(0).RegionsRegistered(),
            client_registrations + kWindow);
  EXPECT_LE(f.sim.device(1).RegionsRegistered(), server_registrations + 1);
  EXPECT_EQ(f.client->frames_sending(), 0u);
  EXPECT_EQ(f.server.headers_free(), f.server.headers_registered());
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// On a two-rail socket a later send can complete before an earlier one;
// each frame and header returns on its own completion regardless.
TEST(RpcKv, StripedSocketReturnsEveryFrameToThePool) {
  KvServerOptions sopts;
  sopts.slot_bytes = 4 * kKiB;
  StreamOptions stream;
  stream.rails = 2;
  stream.max_wwi_chunk = 256;
  Fixture f(sopts, {}, stream);
  ASSERT_EQ(f.client_sock->effective_rails(), 2u);
  std::vector<std::uint8_t> value(4000);
  loadgen::WorkloadGenerator::FillValue("stripe", value.data(), 4000);
  constexpr std::uint32_t kSizes[] = {4000, 20, 1500, 90, 3100, 300};
  int answered = 0;
  std::vector<RpcClient::Result> gets;
  const char* const kKeys[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 12; ++i) {
      const std::string key = kKeys[i % 6];
      auto cb = [&](const RpcClient::Result& r) {
        if (r.outcome == Outcome::kAnswered) ++answered;
      };
      if (i < 6) {
        f.client->Call(Op::kPut, key, value.data(), kSizes[i], cb);
      } else {
        f.client->Call(Op::kGet, key, nullptr, 0,
                       [&, cb](const RpcClient::Result& r) {
                         cb(r);
                         gets.push_back(r);
                       });
      }
    }
    f.sim.Run();
  }
  EXPECT_EQ(answered, 8 * 12);
  ASSERT_EQ(gets.size(), 8u * 6);
  for (std::size_t i = 0; i < gets.size(); ++i) {
    const std::uint32_t len = kSizes[i % 6];
    EXPECT_EQ(gets[i].value,
              std::vector<std::uint8_t>(value.begin(), value.begin() + len));
  }
  EXPECT_EQ(f.client->frames_sending(), 0u);
  EXPECT_GE(f.client->frames_free(), 1u);
  EXPECT_EQ(f.server.headers_free(), f.server.headers_registered());
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
  report = CheckConnection(*f.client_sock, *f.server_sock);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, FrameLargerThanEveryPooledBufferGetsItsOwn) {
  KvServerOptions sopts;
  sopts.slot_bytes = 8 * kKiB;  // the server stores the large value
  Fixture f(sopts);
  std::vector<RpcClient::Result> results;
  auto cb = [&](const RpcClient::Result& r) { results.push_back(r); };
  f.client->Call(Op::kGet, "big", nullptr, 0, cb);
  f.sim.Run();
  ASSERT_EQ(f.client->frames_free(), 1u);  // one smallest-size frame
  const std::size_t regions = f.sim.device(0).RegisteredRegionCount();

  constexpr std::uint32_t kLen = 6000;
  static_assert(kLen > RpcClient::kMinFrameBytes);
  std::vector<std::uint8_t> value(kLen);
  loadgen::WorkloadGenerator::FillValue("big", value.data(), kLen);
  f.client->Call(Op::kPut, "big", value.data(), kLen, cb);
  f.client->Call(Op::kGet, "big", nullptr, 0, cb);
  f.sim.Run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, Status::kNotFound);
  EXPECT_EQ(results[1].outcome, Outcome::kAnswered);
  EXPECT_EQ(results[1].status, Status::kOk);
  EXPECT_EQ(results[2].status, Status::kOk);
  EXPECT_EQ(results[2].value, value);  // byte-exact
  // The PUT got a new buffer, registered once; the GET reused the small one.
  EXPECT_EQ(f.client->frames_free(), 2u);
  EXPECT_EQ(f.sim.device(0).RegisteredRegionCount(), regions + 1);
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// The client and server deregister their pools against devices that are
// still alive: the fixture destroys them before its Simulation.  The
// simulation never runs after the client is gone (its event handler
// captures the client).
TEST(RpcKv, TeardownWithCallsInFlightIsClean) {
  auto f = std::make_unique<Fixture>();
  std::vector<std::uint8_t> value(300, 7);
  const char* const kKeys[] = {"t0", "t1", "t2", "t3", "t4"};
  for (int i = 0; i < 24; ++i) {
    const bool put = i % 2 == 0;
    f->client->Call(put ? Op::kPut : Op::kGet, kKeys[i % 5],
                    put ? value.data() : nullptr,
                    put ? static_cast<std::uint32_t>(value.size()) : 0);
  }
  f->sim.RunFor(Microseconds(3));
  EXPECT_GT(f->client->frames_sending(), 0u);
  EXPECT_GT(f->client->pending_calls(), 0u);
  f.reset();
}

// ---- handle-addressed I/O --------------------------------------------------

// The RPC tier sends and receives only through the regions of its own
// frames, headers, receive buffers and slab, none of which the address
// index holds.  With auto-registration off on both sides, any address-form
// Send, Sendv or Recv left in the client or the server would throw.
constexpr int kHandleOnlyCalls = 2000;

/// Issue `calls` mixed PUT/GET/DEL calls round-robin over `clients`, each
/// client on its own keys, running the simulation every 8 calls.  Every
/// GET answer is checked byte-exact against the client's last PUT of that
/// key.  Returns the number of answered calls.
int DriveMixedCalls(Simulation& sim, const std::vector<RpcClient*>& clients,
                    int calls) {
  constexpr std::uint32_t kSizes[] = {16, 130, 300, 480};
  std::vector<std::map<std::string, std::vector<std::uint8_t>>> stored(
      clients.size());
  int answered = 0;
  auto count = [&answered](const RpcClient::Result& r) {
    if (r.outcome == Outcome::kAnswered) ++answered;
  };
  for (int i = 0; i < calls; ++i) {
    const std::size_t c = static_cast<std::size_t>(i) % clients.size();
    const int round = i / static_cast<int>(clients.size());
    std::string key = "c";
    key += std::to_string(c);
    key += '-';
    key += std::to_string(round / 3 % 24);  // hits and misses both
    switch (round % 4) {
      case 0:
      case 2: {
        const std::uint32_t len = kSizes[(round / 4) % 4];
        std::vector<std::uint8_t> value(len);
        loadgen::WorkloadGenerator::FillValue(key, value.data(), len);
        clients[c]->Call(Op::kPut, key, value.data(), len, count);
        stored[c][key] = std::move(value);
        break;
      }
      case 1: {
        auto it = stored[c].find(key);
        const bool hit = it != stored[c].end();
        std::vector<std::uint8_t> expect = hit ? it->second
                                               : std::vector<std::uint8_t>{};
        clients[c]->Call(Op::kGet, key, nullptr, 0,
                         [count, hit, expect](const RpcClient::Result& r) {
                           count(r);
                           EXPECT_EQ(r.status,
                                     hit ? Status::kOk : Status::kNotFound);
                           EXPECT_EQ(r.value, expect);
                         });
        break;
      }
      default:
        clients[c]->Call(Op::kDel, key, nullptr, 0, count);
        stored[c].erase(key);
        break;
    }
    if (i % 8 == 7) sim.Run();
  }
  sim.Run();
  return answered;
}

TEST(RpcKv, ClassicPairNeedsNoAddressLookups) {
  StreamOptions stream;
  stream.auto_register_memory = false;
  Fixture f({}, {}, stream);
  EXPECT_EQ(DriveMixedCalls(f.sim, {&*f.client}, kHandleOnlyCalls),
            kHandleOnlyCalls);
  EXPECT_EQ(f.client->frames_sending(), 0u);
  EXPECT_EQ(f.server.headers_free(), f.server.headers_registered());
  EXPECT_GT(f.server.stats().sendv_responses, 0u);
  EXPECT_GT(f.server.stats().misses, 0u);
  InvariantReport report = f.Check();
  EXPECT_TRUE(report.ok()) << report.Summary();
  report = CheckConnection(*f.client_sock, *f.server_sock);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RpcKv, MuxedPairNeedsNoAddressLookups) {
  Simulation sim(simnet::HardwareProfile::FdrInfiniBand(), /*seed=*/13);
  MuxOptions mopts;
  mopts.width = 2;
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 2 * kKiB;
  opts.max_wwi_chunk = 2 * kKiB;
  opts.auto_register_memory = false;

  KvServer server;
  std::vector<std::unique_ptr<RpcClient>> clients;
  std::vector<RpcClient*> raw;
  std::vector<const RpcLedger*> ledgers;
  for (int c = 0; c < 4; ++c) {
    auto [a, b] = sim.CreateMuxedPair(g0, g1, opts);
    server.Attach(*b);
    clients.push_back(std::make_unique<RpcClient>(*a, sim.scheduler()));
    raw.push_back(clients.back().get());
    ledgers.push_back(&clients.back()->ledger());
  }
  EXPECT_EQ(DriveMixedCalls(sim, raw, kHandleOnlyCalls), kHandleOnlyCalls);
  EXPECT_EQ(server.headers_free(), server.headers_registered());
  EXPECT_GT(server.stats().sendv_responses, 0u);
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
