// Golden-trace regression suite: a fixed corpus of trace fingerprints for
// deterministic workloads, one row per send path (Send with coalescing off
// and on, vectored Sendv, two rails, a muxed pair, SOCK_SEQPACKET).  The
// simulator is bit-reproducible (ps-resolution clock, tie-broken
// scheduler, seeded RNG), so the FNV-1a hash over every recorded trace
// field (TraceFingerprint) is a total summary of one run's protocol
// behaviour: any change to message ordering, chunking, phase transitions,
// or coalescing decisions moves the fingerprint.  Each config also pins
// the shape of every work request the pair posted (its "_wrs" entry):
// WR and doorbell counts, gather-list entries and wire bytes, which a
// trace fingerprint only sees through timing.  Its "_metrics" entry hashes
// the end-of-run Simulation::MetricsJson() snapshot, pinning every socket
// instrument's name, unit, order and value.
//
// Each config also runs twice in-process and must fingerprint identically
// — the determinism witness that makes the corpus meaningful.
//
// When a protocol change is *intentional*, regenerate the corpus with
//
//   EXS_UPDATE_GOLDEN=1 ./exs_test --gtest_filter='StreamGolden*'
//
// and review the rewritten tests/data/stream_golden.txt in the diff: one
// line per config, so the blast radius of a change is visible at a glance.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/mux.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

constexpr const char* kCorpusPath = EXS_TEST_DATA_DIR "/stream_golden.txt";

/// The route a config's data takes to the verbs layer.
enum class SendPath {
  kSend,       ///< Socket::Send on one dedicated queue pair
  kSendv,      ///< Socket::Sendv, arity 3 with a zero-length middle slice,
               ///< under doorbell batching, cq_drain 4 and the devices'
               ///< registration cost model
  kRails,      ///< Socket::Send striped over two rails
  kMux,        ///< Socket::Send on one stream of a shared-QP MuxGroup pair
  kSeqPacket,  ///< SOCK_SEQPACKET, fixed-size messages
};

struct GoldenConfig {
  const char* name;
  std::uint64_t seed;
  bool coalesce;
  SendPath path = SendPath::kSend;
};

constexpr GoldenConfig kConfigs[] = {
    {"fdr_dynamic_seed1_plain", 1, false},
    {"fdr_dynamic_seed2_plain", 2, false},
    {"fdr_dynamic_seed3_plain", 3, false},
    {"fdr_dynamic_seed1_coalesce", 1, true},
    {"fdr_dynamic_seed2_coalesce", 2, true},
    {"fdr_dynamic_seed3_coalesce", 3, true},
    {"fdr_dynamic_seed1_sendv", 1, false, SendPath::kSendv},
    {"fdr_dynamic_seed1_rails2", 1, false, SendPath::kRails},
    {"fdr_dynamic_seed1_mux", 1, false, SendPath::kMux},
    {"fdr_seqpacket_seed1", 1, false, SendPath::kSeqPacket},
};

struct Fingerprints {
  std::uint64_t trace = 0;
  std::uint64_t wrs = 0;      ///< work-request shape
  std::uint64_t metrics = 0;  ///< MetricsJson() snapshot bytes
  bool operator==(const Fingerprints&) const = default;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over the bytes of `text`.
std::uint64_t TextFingerprint(const std::string& text) {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : text) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a fold of the send-side work-request shape of `channels`, in order.
std::uint64_t WrShapeFingerprint(
    const std::vector<const ControlChannel*>& channels) {
  std::uint64_t h = kFnvOffset;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= kFnvPrime;
    }
  };
  for (const ControlChannel* ch : channels) {
    const verbs::QueuePairStats& qp = ch->qp_stats();
    fold(qp.sends_posted);
    fold(qp.payload_bytes_sent);
    fold(qp.wire_bytes_sent);
    fold(qp.doorbells);
    fold(qp.batched_wrs);
    fold(qp.gather_wrs);
    fold(qp.sge_entries_posted);
  }
  return h;
}

// A compact randomized small-message workload (the coalescing target
// regime), checked for integrity before its fingerprint is taken — a
// corpus entry for a corrupted run would be worse than none.
Fingerprints RunGoldenWorkload(const GoldenConfig& cfg) {
  StreamOptions opts;
  opts.intermediate_buffer_bytes = 64 * kKiB;
  opts.coalesce.enabled = cfg.coalesce;
  if (cfg.path == SendPath::kSendv) {
    opts.batching.doorbell = true;
    opts.batching.cq_drain = 4;
  }
  if (cfg.path == SendPath::kRails) opts.rails = 2;
  const bool seqpacket = cfg.path == SendPath::kSeqPacket;

  Simulation sim(HardwareProfile::FdrInfiniBand(), cfg.seed,
                 /*carry_payload=*/true);
  if (cfg.path == SendPath::kSendv) {
    sim.device(0).EnableMrCostModel();
    sim.device(1).EnableMrCostModel();
  }
  // Declared after `sim`, so the groups die first and the muxed sockets'
  // streams skip their detach (the groups' liveness guard).
  std::unique_ptr<MuxGroup> g0, g1;
  Socket* client = nullptr;
  Socket* server = nullptr;
  if (cfg.path == SendPath::kMux) {
    g0 = std::make_unique<MuxGroup>(sim.device(0), MuxOptions{});
    g1 = std::make_unique<MuxGroup>(sim.device(1), MuxOptions{});
    MuxGroup::Connect(*g0, *g1);
    std::tie(client, server) = sim.CreateMuxedPair(*g0, *g1, opts);
  } else {
    std::tie(client, server) = sim.CreateConnectedPair(
        seqpacket ? SocketType::kSeqPacket : SocketType::kStream, opts);
  }
  client->EnableTracing();
  server->EnableTracing();

  Rng rng(cfg.seed);
  constexpr std::uint64_t kMaxSize = 2 * 1024;
  constexpr std::uint64_t kTotal = 48 * 1024;
  // SOCK_SEQPACKET pairs each message with one receive: every message has
  // this size and every receive posts a whole kMaxSize buffer, so none
  // truncates.
  constexpr std::uint64_t kMessage = 1024;

  std::vector<std::uint8_t> out(kTotal);
  FillPattern(out.data(), out.size(), 0, cfg.seed);
  std::vector<std::uint8_t> in(kTotal, 0);

  constexpr std::size_t kScratch = 4;
  std::vector<std::vector<std::uint8_t>> scratch(
      kScratch, std::vector<std::uint8_t>(kMaxSize));
  std::vector<std::size_t> free_scratch;
  for (std::size_t i = 0; i < kScratch; ++i) free_scratch.push_back(i);

  struct Posted {
    std::size_t scratch_index;
    std::uint64_t len;
  };
  std::map<std::uint64_t, Posted> posted;

  std::uint64_t send_off = 0;
  std::uint64_t recv_done = 0;
  std::uint64_t pending_posted = 0;

  server->events().SetHandler([&](const Event& ev) {
    ASSERT_EQ(ev.type, EventType::kRecvComplete);
    EXPECT_FALSE(ev.truncated);
    auto it = posted.find(ev.id);
    ASSERT_NE(it, posted.end());
    Posted rec = it->second;
    posted.erase(it);
    std::memcpy(in.data() + recv_done, scratch[rec.scratch_index].data(),
                ev.bytes);
    recv_done += ev.bytes;
    pending_posted -= rec.len;
    free_scratch.push_back(rec.scratch_index);
  });

  std::uint64_t guard = 0;
  while (recv_done < kTotal) {
    if (++guard >= 100000u) {
      ADD_FAILURE() << cfg.name << ": protocol stuck at " << recv_done << "/"
                    << kTotal;
      return {};
    }
    bool can_send = send_off < kTotal;
    bool can_recv =
        !free_scratch.empty() && recv_done + pending_posted < kTotal;
    if (can_send && (rng.NextBool() || !can_recv)) {
      std::uint64_t s = seqpacket ? kMessage : rng.NextInRange(1, kMaxSize);
      s = std::min(s, kTotal - send_off);
      const std::uint8_t* base = out.data() + send_off;
      if (cfg.path == SendPath::kSendv) {
        Socket::IoSlice iov[3] = {
            {base, s / 2}, {base + s / 2, 0}, {base + s / 2, s - s / 2}};
        client->Sendv(iov, 3);
      } else {
        client->Send(base, s);
      }
      send_off += s;
    } else if (can_recv) {
      std::uint64_t r = seqpacket ? kMessage : rng.NextInRange(1, kMaxSize);
      r = std::min(r, kTotal - recv_done - pending_posted);
      bool waitall = !seqpacket && rng.NextBool(0.4);
      std::size_t idx = free_scratch.back();
      free_scratch.pop_back();
      std::uint64_t id = server->Recv(scratch[idx].data(),
                                      seqpacket ? kMaxSize : r,
                                      RecvFlags{.waitall = waitall});
      posted.emplace(id, Posted{idx, r});
      pending_posted += r;
    }
    sim.RunFor(static_cast<SimDuration>(
        rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(30)))));
    if (!can_send && !can_recv) sim.Run();
  }
  sim.Run();

  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, cfg.seed), in.size())
      << cfg.name;
  EXPECT_TRUE(client->Quiescent()) << cfg.name;
  if (cfg.coalesce) {
    EXPECT_GT(client->stats().coalesced_sends, 0u) << cfg.name;
  }
  InvariantReport report = CheckConnection(*client, *server);
  if (g0) report.Merge(CheckMuxGroupPair(*g0, *g1));
  EXPECT_TRUE(report.ok()) << cfg.name << ": " << report.Summary();

  std::vector<const ControlChannel*> channels;
  if (g0) {
    for (std::size_t i = 0; i < g0->width(); ++i) {
      channels.push_back(&g0->slot(i));
      channels.push_back(&g1->slot(i));
    }
  } else {
    for (const Socket* s : {client, server}) {
      for (std::size_t r = 0; r < s->effective_rails(); ++r) {
        channels.push_back(&s->rail(r));
      }
    }
  }
  return {ConnectionFingerprint(*client, *server),
          WrShapeFingerprint(channels), TextFingerprint(sim.MetricsJson())};
}

std::string Hex(std::uint64_t v) {
  std::ostringstream oss;
  oss << "0x" << std::hex << v;
  return oss.str();
}

std::map<std::string, std::string> LoadCorpus() {
  std::map<std::string, std::string> corpus;
  std::ifstream file(kCorpusPath);
  std::string name, fp;
  while (file >> name >> fp) {
    if (!name.empty() && name[0] == '#') {
      std::string rest;
      std::getline(file, rest);  // skip the remainder of a comment line
      continue;
    }
    corpus[name] = fp;
  }
  return corpus;
}

TEST(StreamGoldenTest, FingerprintsMatchCorpus) {
  const bool update = std::getenv("EXS_UPDATE_GOLDEN") != nullptr;

  std::map<std::string, std::string> actual;
  for (const GoldenConfig& cfg : kConfigs) {
    Fingerprints first = RunGoldenWorkload(cfg);
    Fingerprints second = RunGoldenWorkload(cfg);
    // Determinism witness: without run-to-run reproducibility the corpus
    // would pin noise, not behaviour.
    ASSERT_TRUE(first == second)
        << cfg.name << ": two identical runs fingerprinted differently — "
        << "the simulator has a nondeterminism bug; fix that before "
        << "trusting any golden value";
    actual[cfg.name] = Hex(first.trace);
    actual[std::string(cfg.name) + "_wrs"] = Hex(first.wrs);
    actual[std::string(cfg.name) + "_metrics"] = Hex(first.metrics);
  }

  if (update) {
    std::ofstream file(kCorpusPath, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << kCorpusPath;
    file << "# Golden trace fingerprints (stream_golden_test.cpp).\n"
         << "# Regenerate: EXS_UPDATE_GOLDEN=1 ./exs_test "
         << "--gtest_filter='StreamGolden*'\n";
    for (const auto& [name, fp] : actual) file << name << " " << fp << "\n";
    GTEST_SKIP() << "corpus regenerated at " << kCorpusPath
                 << " — review the diff and rerun without EXS_UPDATE_GOLDEN";
  }

  std::map<std::string, std::string> expected = LoadCorpus();
  ASSERT_FALSE(expected.empty())
      << "missing or empty corpus " << kCorpusPath
      << " — generate it with EXS_UPDATE_GOLDEN=1";
  // One assertion per config with a diff-friendly message; stale corpus
  // entries (configs that no longer exist) are flagged too.
  for (const auto& [name, fp] : actual) {
    auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "config " << name << " has no corpus entry (got " << fp
                    << ") — regenerate with EXS_UPDATE_GOLDEN=1";
      continue;
    }
    EXPECT_EQ(it->second, fp)
        << "golden fingerprint mismatch for " << name << "\n  expected: "
        << it->second << "\n  actual:   " << fp
        << "\nThe protocol's observable behaviour changed. If intentional, "
        << "regenerate with EXS_UPDATE_GOLDEN=1 and review the corpus diff.";
  }
  for (const auto& [name, fp] : expected) {
    EXPECT_TRUE(actual.count(name))
        << "stale corpus entry " << name << " (" << fp
        << ") — regenerate with EXS_UPDATE_GOLDEN=1";
  }
}

}  // namespace
}  // namespace exs
