#include "torture.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/loadgen/workload.hpp"
#include "exs/mux.hpp"
#include "exs/rpc/kv_server.hpp"
#include "exs/rpc/rpc_client.hpp"
#include "simnet/faults.hpp"
#include "verbs/types.hpp"

namespace exs::torture {

namespace {

/// Rough upper bound on when protocol activity happens, used to place
/// fault windows.  Overshoot is harmless (a window opening after the run
/// quiesces perturbs nothing); undershoot just concentrates faults early.
SimDuration EstimateHorizon(const simnet::HardwareProfile& p,
                            std::uint64_t total_bytes) {
  SimDuration wire = p.link_bandwidth.TransmissionTime(total_bytes);
  SimDuration rtt = 2 * (p.propagation + p.netem.extra_delay);
  return wire * 8 + rtt * 16 + Microseconds(500);
}

struct DriveOutcome {
  bool aborted = false;  ///< a runtime invariant check threw mid-run
};

}  // namespace

simnet::HardwareProfile ResolveProfile(const std::string& name) {
  if (name == "fdr") return simnet::HardwareProfile::FdrInfiniBand();
  if (name == "iwarp") return simnet::HardwareProfile::Iwarp10G();
  if (name == "wan") {
    // The paper's distance experiment: RoCE through 48 ms of emulated RTT.
    return simnet::HardwareProfile::RoCE10GWithDelay(Milliseconds(24));
  }
  EXS_CHECK_MSG(false, "unknown profile '" << name
                                           << "' (expected fdr|iwarp|wan)");
  return simnet::HardwareProfile::FdrInfiniBand();  // unreachable
}

bool ValidMode(const std::string& mode) {
  return mode == "dynamic" || mode == "direct" || mode == "indirect" ||
         mode == "coalesce" || mode == "stripe" || mode == "seqpacket" ||
         mode == "many" || mode == "kill" || mode == "mux" ||
         mode == "batch" || mode == "rpc";
}

std::string TortureResult::Describe() const {
  std::ostringstream oss;
  oss << (ok ? "PASS" : "FAIL") << " fp=0x" << std::hex << fingerprint
      << std::dec << " events=" << events_checked
      << " faults=" << faults_applied << "/" << faults_armed;
  if (kills_applied != 0 || resumes != 0) {
    oss << " kills=" << kills_applied << " resumes=" << resumes;
  }
  for (const auto& f : failures) oss << "\n    failure: " << f;
  for (const auto& v : checker_violations) oss << "\n    invariant: " << v;
  for (const auto& w : checker_warnings) oss << "\n    warning: " << w;
  return oss.str();
}

namespace {

/// "many" mode: N clients through the server engine (acceptor + shared
/// buffer pool + SRQ slot pool + progress engine) instead of one
/// ConnectPair.  The per-pair invariant checks run on every stream, and
/// CheckPoolConservation replays all receiver traces against the shared
/// slab — the O(pool) memory claim, validated under a seeded interleave.
TortureResult RunManyTorture(const TortureConfig& cfg) {
  TortureResult res;
  simnet::HardwareProfile profile = ResolveProfile(cfg.profile);

  // Seed-derived configuration (domain-separated like "stripe"): the
  // stream count and whether the inner mode forces every byte through the
  // leased rings (indirect) or lets ADVERTs bypass them (dynamic).
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x9a11e57e4e61e4ull).Next();
  const std::uint32_t streams =
      cfg.streams != 0 ? cfg.streams
                       : (bits % 3 == 0 ? 4u : bits % 3 == 1 ? 8u : 16u);
  EXS_CHECK_MSG(streams > 0, "many mode needs at least one stream");

  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = cfg.buffer_bytes;  // the lease size
  if ((bits & 8) != 0) opts.mode = ProtocolMode::kIndirectOnly;
  opts.sabotage.accept_stale_adverts = cfg.sabotage_stale_adverts;
  opts.sabotage.advertise_without_gate = cfg.sabotage_advert_gate;

  std::uint64_t per_stream = cfg.total_bytes / streams;
  if (per_stream < 4096) per_stream = 4096;
  const std::uint64_t max_message =
      cfg.max_message < per_stream ? cfg.max_message : per_stream;
  const SimDuration horizon =
      EstimateHorizon(profile, per_stream * streams);

  // Causal chunk tracing, sampling every chunk: the stage-attribution
  // conservation rule below replays it.  Declared before the simulation so
  // the sockets holding a pointer to it die first.
  spans::SpanCollector span_collector(cfg.seed, /*sample_period=*/1);
  Simulation sim(profile, cfg.seed, /*carry_payload=*/true);
  engine::ProgressEngine engine(sim.fabric().node(1).cpu(),
                                engine::ProgressEngineOptions{});
  engine::AcceptorOptions aopts;
  // Slab sized for exactly `streams` leases; watermarks at 1.0 so the
  // torture run admits every planned stream (the hysteresis band is
  // exercised by the unit tests and the manystream bench).
  aopts.pool = {.pool_bytes = streams * cfg.buffer_bytes,
                .lease_bytes = cfg.buffer_bytes,
                .high_watermark = 1.0,
                .low_watermark = 1.0};
  aopts.control_slots = streams * opts.credits;
  engine::Acceptor acceptor(sim.device(1), engine, aopts);

  struct Rx {
    Socket* socket = nullptr;
    std::vector<std::uint8_t> data;
    std::uint64_t received = 0;
    bool eof = false;
  };
  std::vector<std::unique_ptr<Rx>> rxs;
  std::unordered_map<Socket*, Rx*> rx_by_socket;
  std::uint64_t total_received = 0;

  // Destroyed before `sim` (reverse declaration order), same rule as the
  // single-pair driver.
  simnet::FaultInjector injector(sim.fabric());

  acceptor.Listen(
      sim.connections(), 4000, opts,
      [&](Socket& s, const Event& ev) {
        auto it = rx_by_socket.find(&s);
        if (it == rx_by_socket.end()) return;
        if (ev.type == EventType::kRecvComplete) {
          it->second->received += ev.bytes;
          total_received += ev.bytes;
        }
        if (ev.type == EventType::kPeerClosed) it->second->eof = true;
      },
      [&](Socket& s) {
        auto rx = std::make_unique<Rx>();
        rx->socket = &s;
        rx->data.resize(per_stream);
        s.EnableTracing(cfg.trace_capacity);
        s.EnableChunkSpans(&span_collector);
        s.Recv(rx->data.data(), per_stream, RecvFlags{.waitall = true});
        if (rxs.empty()) {
          // Control-delay faults hold one channel per node; aim them at
          // the first stream on each side.
          injector.AttachControlTarget(1, &s.rail(0));
        }
        rx_by_socket.emplace(&s, rx.get());
        rxs.push_back(std::move(rx));
      });

  if (cfg.enable_faults) {
    injector.Arm(simnet::FaultPlan::Generate(
        cfg.seed, simnet::FaultPlanConfig::ScaledTo(horizon)));
  }

  std::vector<Socket*> clients;
  int rejected = 0;
  for (std::uint32_t i = 0; i < streams; ++i) {
    Socket* pending = sim.Connect(0, 4000, SocketType::kStream, opts,
                                  [&](Socket* s) {
                                    if (s == nullptr) ++rejected;
                                  });
    pending->EnableTracing(cfg.trace_capacity);
    pending->EnableChunkSpans(&span_collector);
    clients.push_back(pending);
    if (i == 0) {
      injector.AttachControlTarget(0, &pending->rail(0));
    }
  }
  sim.Run();
  if (rejected != 0) {
    res.failures.push_back("engine refused " + std::to_string(rejected) +
                           " of " + std::to_string(streams) +
                           " planned streams");
  }
  if (rxs.size() != streams) {
    res.failures.push_back("accepted " + std::to_string(rxs.size()) +
                           " streams, expected " + std::to_string(streams));
  }

  // Seeded interleave: every iteration pushes one chunk on a random
  // still-sending stream, then lets a random slice of time pass.
  Rng rng(SplitMix64(cfg.seed ^ 0x70e7f1c70ffe12edull).Next());
  std::vector<std::vector<std::uint8_t>> payloads(clients.size());
  std::vector<std::uint64_t> sent(clients.size(), 0);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    payloads[i].resize(per_stream);
    FillPattern(payloads[i].data(), per_stream, 0, cfg.seed * 131 + i);
  }

  const std::uint64_t total = per_stream * rxs.size();
  try {
    std::uint64_t guard = 0;
    while (res.failures.empty() && total_received < total) {
      if (++guard > 2000000u) {
        res.failures.push_back(
            "no progress: stuck at " + std::to_string(total_received) + "/" +
            std::to_string(total) + " bytes");
        break;
      }
      std::vector<std::size_t> sendable;
      for (std::size_t i = 0; i < clients.size(); ++i) {
        if (sent[i] < per_stream) sendable.push_back(i);
      }
      if (!sendable.empty()) {
        std::size_t i = sendable[static_cast<std::size_t>(
            rng.NextInRange(0, sendable.size() - 1))];
        std::uint64_t s = rng.NextInRange(1, max_message);
        if (s > per_stream - sent[i]) s = per_stream - sent[i];
        clients[i]->Send(payloads[i].data() + sent[i], s);
        sent[i] += s;
        sim.RunFor(static_cast<SimDuration>(rng.NextInRange(
            0, static_cast<std::uint64_t>(Microseconds(30)))));
        if (rng.NextBool(0.08)) sim.Run();
      } else {
        sim.Run();  // everything posted: drain to completion
      }
    }
    if (res.failures.empty()) {
      sim.Run();
      for (Socket* c : clients) c->Close();
      sim.Run();
    }
  } catch (const InvariantViolation& violation) {
    res.failures.push_back(std::string("runtime invariant violation: ") +
                           violation.what());
  }

  if (res.failures.empty()) {
    for (std::size_t i = 0; i < rxs.size(); ++i) {
      const Rx& rx = *rxs[i];
      if (rx.received != per_stream) {
        res.failures.push_back("stream " + std::to_string(i) +
                               " short delivery: " +
                               std::to_string(rx.received) + "/" +
                               std::to_string(per_stream) + " bytes");
      } else if (std::size_t good = VerifyPattern(rx.data.data(), per_stream,
                                                  0, cfg.seed * 131 + i);
                 good != per_stream) {
        // Accepts complete in connect order over the in-order handshake
        // wire, so stream i's sink must hold client i's pattern.
        res.failures.push_back("stream " + std::to_string(i) +
                               " payload corrupt at offset " +
                               std::to_string(good));
      }
      if (!rx.eof) {
        res.failures.push_back("stream " + std::to_string(i) +
                               " never observed peer close");
      }
      if (!rx.socket->Quiescent() || !clients[i]->Quiescent()) {
        res.failures.push_back("stream " + std::to_string(i) +
                               " endpoints not quiescent after drain");
      }
    }
    // Reclaim-on-idle: every lease must be back in the pool after EOF.
    if (acceptor.pool().LeasesActive() != 0) {
      res.failures.push_back(
          std::to_string(acceptor.pool().LeasesActive()) +
          " ring leases still held after every stream closed");
    }
  }

  // Per-pair protocol invariants plus the cross-stream pool conservation
  // replay.  The fingerprint chains all pairs in acceptance order.
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (v >> (8 * i)) & 0xff;
      fp *= 0x100000001b3ull;
    }
  };
  InvariantReport report;
  std::vector<const TraceLog*> rx_logs;
  for (std::size_t i = 0; i < rxs.size() && i < clients.size(); ++i) {
    report.Merge(CheckConnection(*clients[i], *rxs[i]->socket));
    rx_logs.push_back(&rxs[i]->socket->rx_trace());
    mix(ConnectionFingerprint(*clients[i], *rxs[i]->socket));
  }
  PoolCheckOptions pool_opts;
  pool_opts.pool_capacity_bytes = aopts.pool.pool_bytes;
  pool_opts.lease_bytes = aopts.pool.lease_bytes;
  pool_opts.allow_truncated = cfg.trace_capacity != 0;
  report.Merge(CheckPoolConservation(rx_logs, pool_opts));
  report.Merge(CheckSpanConservation(span_collector));

  res.checker_violations = report.violations;
  res.checker_warnings = report.warnings;
  res.events_checked = report.events_checked;
  res.fingerprint = fp;
  res.faults_armed = injector.FaultsArmed();
  res.faults_applied = injector.FaultsApplied();
  res.ok = res.failures.empty() && res.checker_violations.empty();
  return res;
}

// ---------------------------------------------------------------------------
// "mux" mode: the shared-QP multiplexing tier (docs/PROTOCOL.md §13).
// ---------------------------------------------------------------------------

/// N streams over two MuxGroups whose slot pool is `width` queue pairs per
/// endpoint.  The seeded interleave from "many" mode drives every stream
/// through the shared slots while control-delay faults hold slot 0 on each
/// side (one held slot stalls every stream pinned to it — exactly the HoL
/// coupling the tier must survive).  Beyond the per-pair protocol checks,
/// the run replays the mux conservation laws (CheckMuxGroupPair): group
/// data accounting, per-stream sequence continuity, and per-slot credit
/// conservation at quiescence.
TortureResult RunMuxTorture(const TortureConfig& cfg) {
  TortureResult res;
  simnet::HardwareProfile profile = ResolveProfile(cfg.profile);

  // Seed-derived mux shape (domain-separated like "stripe"/"many"): the
  // stream count, the slot-pool width, the per-stream window, and whether
  // every byte is forced through the leased rings (indirect).
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x3f9c2e57b8a4d1ull).Next();
  const std::uint32_t streams =
      cfg.streams != 0 ? cfg.streams
                       : (bits % 3 == 0 ? 4u : bits % 3 == 1 ? 8u : 16u);
  const std::uint32_t width =
      cfg.width != 0
          ? cfg.width
          : ((bits >> 8) % 3 == 0 ? 1u : (bits >> 8) % 3 == 1 ? 2u : 4u);
  EXS_CHECK_MSG(streams > 0, "mux mode needs at least one stream");
  EXS_CHECK_MSG(width > 0, "mux mode needs at least one slot");

  StreamOptions opts;
  opts.intermediate_buffer_bytes = cfg.buffer_bytes;
  // Bound the chunk size so bulk sends become several WWIs and the
  // per-stream window actually parks streams (otherwise a whole direct
  // transfer is one WWI and the DRR layer never engages).
  opts.max_wwi_chunk = 8 * 1024;
  if ((bits & 8) != 0) opts.mode = ProtocolMode::kIndirectOnly;
  opts.sabotage.accept_stale_adverts = cfg.sabotage_stale_adverts;
  opts.sabotage.advertise_without_gate = cfg.sabotage_advert_gate;

  MuxOptions mopts;
  mopts.width = width;
  mopts.qp_credits = 64;
  mopts.per_stream_credits =
      (bits >> 4) % 3 == 0 ? 2u : (bits >> 4) % 3 == 1 ? 4u : 8u;

  std::uint64_t per_stream = cfg.total_bytes / streams;
  if (per_stream < 4096) per_stream = 4096;
  const std::uint64_t max_message =
      cfg.max_message < per_stream ? cfg.max_message : per_stream;
  const SimDuration horizon = EstimateHorizon(profile, per_stream * streams);

  Simulation sim(profile, cfg.seed, /*carry_payload=*/true);
  // Groups after `sim` (their devices), before the injector (its hold
  // targets are slot channels).  Sockets outliving the groups at sim
  // teardown is safe: a MuxStream whose group died is inert.
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  simnet::FaultInjector injector(sim.fabric());
  injector.AttachControlTarget(0, &g0.slot(0));
  injector.AttachControlTarget(1, &g1.slot(0));
  if (cfg.enable_faults) {
    injector.Arm(simnet::FaultPlan::Generate(
        cfg.seed, simnet::FaultPlanConfig::ScaledTo(horizon)));
  }

  struct Pair {
    Socket* client = nullptr;
    Socket* server = nullptr;
    std::vector<std::uint8_t> in;
    std::uint64_t received = 0;
  };
  std::vector<std::unique_ptr<Pair>> pairs;
  std::uint64_t total_received = 0;
  for (std::uint32_t i = 0; i < streams; ++i) {
    auto pair = std::make_unique<Pair>();
    auto [c, s] = sim.CreateMuxedPair(g0, g1, opts);
    pair->client = c;
    pair->server = s;
    pair->in.resize(per_stream);
    c->EnableTracing(cfg.trace_capacity);
    s->EnableTracing(cfg.trace_capacity);
    Pair* raw = pair.get();
    s->events().SetHandler([raw, &total_received](const Event& ev) {
      if (ev.type != EventType::kRecvComplete) return;
      raw->received += ev.bytes;
      total_received += ev.bytes;
    });
    s->Recv(pair->in.data(), per_stream, RecvFlags{.waitall = true});
    pairs.push_back(std::move(pair));
  }

  // Seeded interleave (the "many" discipline): every iteration pushes one
  // chunk on a random still-sending stream, then lets a random slice of
  // time pass — slot sharing makes the cross-stream orderings the point.
  Rng rng(SplitMix64(cfg.seed ^ 0x70e7f1c70ffe12edull).Next());
  std::vector<std::vector<std::uint8_t>> payloads(pairs.size());
  std::vector<std::uint64_t> sent(pairs.size(), 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    payloads[i].resize(per_stream);
    FillPattern(payloads[i].data(), per_stream, 0, cfg.seed * 131 + i);
  }

  const std::uint64_t total = per_stream * pairs.size();
  try {
    std::uint64_t guard = 0;
    while (res.failures.empty() && total_received < total) {
      if (++guard > 2000000u) {
        res.failures.push_back(
            "no progress: stuck at " + std::to_string(total_received) + "/" +
            std::to_string(total) + " bytes");
        break;
      }
      std::vector<std::size_t> sendable;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (sent[i] < per_stream) sendable.push_back(i);
      }
      if (!sendable.empty()) {
        std::size_t i = sendable[static_cast<std::size_t>(
            rng.NextInRange(0, sendable.size() - 1))];
        std::uint64_t s = rng.NextInRange(1, max_message);
        if (s > per_stream - sent[i]) s = per_stream - sent[i];
        pairs[i]->client->Send(payloads[i].data() + sent[i], s);
        sent[i] += s;
        sim.RunFor(static_cast<SimDuration>(rng.NextInRange(
            0, static_cast<std::uint64_t>(Microseconds(30)))));
        if (rng.NextBool(0.08)) sim.Run();
      } else {
        sim.Run();  // everything posted: drain to completion
      }
    }
    if (res.failures.empty()) sim.Run();
  } catch (const InvariantViolation& violation) {
    res.failures.push_back(std::string("runtime invariant violation: ") +
                           violation.what());
  }

  if (res.failures.empty()) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const Pair& pair = *pairs[i];
      if (pair.received != per_stream) {
        res.failures.push_back("stream " + std::to_string(i) +
                               " short delivery: " +
                               std::to_string(pair.received) + "/" +
                               std::to_string(per_stream) + " bytes");
      } else if (std::size_t good = VerifyPattern(pair.in.data(), per_stream,
                                                  0, cfg.seed * 131 + i);
                 good != per_stream) {
        // The group demuxed a chunk to the wrong stream iff this fires.
        res.failures.push_back("stream " + std::to_string(i) +
                               " payload corrupt at offset " +
                               std::to_string(good));
      }
      if (!pair.client->Quiescent() || !pair.server->Quiescent()) {
        res.failures.push_back("stream " + std::to_string(i) +
                               " endpoints not quiescent after drain");
      }
    }
    // The point of the tier: stream count never touched the QP budget.
    if (sim.device(0).QueuePairsCreated() != width ||
        sim.device(1).QueuePairsCreated() != width) {
      res.failures.push_back(
          "QP budget exceeded: created " +
          std::to_string(sim.device(0).QueuePairsCreated()) + "/" +
          std::to_string(sim.device(1).QueuePairsCreated()) +
          " queue pairs for a width-" + std::to_string(width) + " pool");
    }
  }

  // Per-pair protocol invariants plus the mux conservation laws; the
  // fingerprint chains all pairs in attach order.
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (v >> (8 * i)) & 0xff;
      fp *= 0x100000001b3ull;
    }
  };
  InvariantReport report;
  for (auto& pair : pairs) {
    report.Merge(CheckConnection(*pair->client, *pair->server));
    mix(ConnectionFingerprint(*pair->client, *pair->server));
  }
  report.Merge(CheckMuxGroupPair(g0, g1));

  res.checker_violations = report.violations;
  res.checker_warnings = report.warnings;
  res.events_checked = report.events_checked;
  res.fingerprint = fp;
  res.faults_armed = injector.FaultsArmed();
  res.faults_applied = injector.FaultsApplied();
  res.ok = res.failures.empty() && res.checker_violations.empty();
  return res;
}

// ---------------------------------------------------------------------------
// "rpc" mode: the RPC/KV tier (src/exs/rpc) under transient faults.
// ---------------------------------------------------------------------------

/// N RpcClients over a shared MuxGroup slot pool drive one sharded KV
/// server through seeded request trains (Zipf keys, GET/PUT/DEL mix,
/// mixed value sizes) while control-delay faults hold slot 0 on each
/// side.  A tight per-call deadline, a small client pipeline bound, and
/// a deliberately starved value slab keep every terminal outcome live in
/// one run — answered, timed out, refused (remote slab/oversize refusals
/// plus local sheds) — and the run passes only if the RPC conservation
/// law holds: every issued call reaches exactly one outcome, stale
/// post-timeout responses never double-resolve, the server's counters
/// agree with the union of the client ledgers, and the mux conservation
/// laws hold underneath.  The fingerprint chains every client's outcome
/// sequence with the server's counters, so a replay that resolves even
/// one call differently is caught by the corpus comparison.
TortureResult RunRpcTorture(const TortureConfig& cfg) {
  TortureResult res;
  simnet::HardwareProfile profile = ResolveProfile(cfg.profile);

  // Seed-derived shape (domain-separated like "many"/"mux"): the client
  // count, the slot-pool width, and the per-client call train length.
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x59c4a11e57e21ull).Next();
  const std::uint32_t streams =
      cfg.streams != 0 ? cfg.streams
                       : (bits % 3 == 0 ? 4u : bits % 3 == 1 ? 8u : 16u);
  const std::uint32_t width =
      cfg.width != 0
          ? cfg.width
          : ((bits >> 8) % 3 == 0 ? 1u : (bits >> 8) % 3 == 1 ? 2u : 4u);
  const std::uint32_t calls_per_client =
      (bits >> 16) % 3 == 0 ? 24u : (bits >> 16) % 3 == 1 ? 48u : 96u;
  EXS_CHECK_MSG(streams > 0, "rpc mode needs at least one client");
  EXS_CHECK_MSG(width > 0, "rpc mode needs at least one slot");

  // Token-sized per-stream state, the mux tier's operating point.
  StreamOptions opts;
  opts.credits = 8;
  opts.intermediate_buffer_bytes = 2 * 1024;
  opts.max_wwi_chunk = 2 * 1024;
  opts.sabotage.accept_stale_adverts = cfg.sabotage_stale_adverts;
  opts.sabotage.advertise_without_gate = cfg.sabotage_advert_gate;

  MuxOptions mopts;
  mopts.width = width;

  const SimDuration horizon = EstimateHorizon(
      profile, static_cast<std::uint64_t>(streams) * calls_per_client * 512);

  Simulation sim(profile, cfg.seed, /*carry_payload=*/true);
  MuxGroup g0(sim.device(0), mopts);
  MuxGroup g1(sim.device(1), mopts);
  MuxGroup::Connect(g0, g1);

  simnet::FaultInjector injector(sim.fabric());
  injector.AttachControlTarget(0, &g0.slot(0));
  injector.AttachControlTarget(1, &g1.slot(0));
  if (cfg.enable_faults) {
    injector.Arm(simnet::FaultPlan::Generate(
        cfg.seed, simnet::FaultPlanConfig::ScaledTo(horizon)));
  }

  // Starved slab: a slice of PUTs is REFUSED slab-full, and the 480-byte
  // size class overflows the 256-byte slots (oversize refusals) — the
  // conservation law must hold straight through the overload regime.
  rpc::KvServerOptions kv_opts;
  kv_opts.slab_slots = 12;
  kv_opts.slot_bytes = 256;
  kv_opts.recv_chunk_bytes = 512;
  rpc::KvServer server(kv_opts);

  rpc::RpcClientOptions copts;
  copts.default_deadline = Microseconds(400);  // fault holds overrun this
  copts.max_outstanding = 4;                   // tight => local sheds
  copts.recv_chunk_bytes = 512;
  copts.deliver_values = false;

  loadgen::WorkloadOptions wl;
  wl.key_space = 64;  // small, so DELs and overwriting PUTs land on keys

  std::vector<std::unique_ptr<rpc::RpcClient>> rpcs;
  std::vector<loadgen::WorkloadGenerator> gens;
  rpcs.reserve(streams);
  gens.reserve(streams);
  for (std::uint32_t i = 0; i < streams; ++i) {
    auto [c, s] = sim.CreateMuxedPair(g0, g1, opts);
    server.Attach(*s);
    rpcs.push_back(
        std::make_unique<rpc::RpcClient>(*c, sim.scheduler(), copts));
    gens.emplace_back(wl, SplitMix64(cfg.seed ^ (0x4b5ull + i)).Next());
  }

  // Seeded interleave (the "many" discipline, calls instead of chunks):
  // every iteration issues one call on a random client with train left,
  // then lets a random slice of time pass.
  Rng rng(SplitMix64(cfg.seed ^ 0x70e7f1c70ffe12edull).Next());
  std::vector<std::uint32_t> remaining(streams, calls_per_client);
  std::uint64_t total_remaining =
      static_cast<std::uint64_t>(streams) * calls_per_client;
  try {
    while (total_remaining > 0) {
      std::vector<std::size_t> issuable;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (remaining[i] > 0) issuable.push_back(i);
      }
      std::size_t i = issuable[static_cast<std::size_t>(
          rng.NextInRange(0, issuable.size() - 1))];
      --remaining[i];
      --total_remaining;
      const loadgen::WorkloadGenerator::Request req = gens[i].Next();
      std::uint8_t value[512];
      if (req.op == rpc::Op::kPut) {
        loadgen::WorkloadGenerator::FillValue(req.key, value, req.value_len);
      }
      rpcs[i]->Call(req.op, req.key,
                    req.op == rpc::Op::kPut ? value : nullptr, req.value_len);
      sim.RunFor(static_cast<SimDuration>(rng.NextInRange(
          0, static_cast<std::uint64_t>(Microseconds(30)))));
      if (rng.NextBool(0.08)) sim.Run();
    }
    // Drain: every pending call resolves (response or deadline timer).
    sim.Run();
    for (auto& rpc : rpcs) rpc->CloseSend();
    sim.Run();
  } catch (const InvariantViolation& violation) {
    res.failures.push_back(std::string("runtime invariant violation: ") +
                           violation.what());
  }

  if (res.failures.empty()) {
    for (std::size_t i = 0; i < rpcs.size(); ++i) {
      if (rpcs[i]->pending_calls() != 0) {
        res.failures.push_back(
            "client " + std::to_string(i) + " still has " +
            std::to_string(rpcs[i]->pending_calls()) +
            " pending calls after drain");
      }
      if (rpcs[i]->framing_failed()) {
        res.failures.push_back("client " + std::to_string(i) +
                               " frame decoder failed");
      }
    }
    if (server.stats().framing_errors != 0) {
      res.failures.push_back(
          std::to_string(server.stats().framing_errors) +
          " server-side framing errors");
    }
    // Zombie slots exist only while a send pins them; at quiescence the
    // slab must hold exactly the live keys.
    if (server.slab().zombies() != 0) {
      res.failures.push_back(std::to_string(server.slab().zombies()) +
                             " zombie slab slots after drain");
    }
    if (sim.device(0).QueuePairsCreated() != width ||
        sim.device(1).QueuePairsCreated() != width) {
      res.failures.push_back(
          "QP budget exceeded: created " +
          std::to_string(sim.device(0).QueuePairsCreated()) + "/" +
          std::to_string(sim.device(1).QueuePairsCreated()) +
          " queue pairs for a width-" + std::to_string(width) + " pool");
    }
  }

  // The conservation replay, plus the mux laws underneath.  The
  // fingerprint chains every outcome in issue order per client — a
  // replay resolving one call differently (answered vs timed out, say)
  // diverges here even though both runs pass the checker.
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (v >> (8 * i)) & 0xff;
      fp *= 0x100000001b3ull;
    }
  };
  std::vector<const rpc::RpcLedger*> ledgers;
  for (const auto& rpc : rpcs) {
    const rpc::RpcLedger& ledger = rpc->ledger();
    ledgers.push_back(&ledger);
    for (std::uint8_t o : ledger.outcome) mix(o);
    mix(ledger.stale_responses);
    mix(ledger.shed_local);
  }
  mix(server.counters().requests_received);
  mix(server.counters().answered);
  mix(server.counters().refused);
  mix(server.stats().hits);
  mix(server.stats().misses);
  mix(server.stats().slab_full_refusals);
  mix(server.stats().oversize_refusals);

  InvariantReport report = CheckRpcConservation(ledgers, &server.counters());
  report.Merge(CheckMuxGroupPair(g0, g1));

  res.checker_violations = report.violations;
  res.checker_warnings = report.warnings;
  res.events_checked = report.events_checked;
  res.fingerprint = fp;
  res.faults_armed = injector.FaultsArmed();
  res.faults_applied = injector.FaultsApplied();
  res.ok = res.failures.empty() && res.checker_violations.empty();
  return res;
}

// ---------------------------------------------------------------------------
// "kill" mode: the recovery equivalence harness (docs/PROTOCOL.md §12).
// ---------------------------------------------------------------------------

/// FNV-1a over the delivered byte stream — the fingerprint the kill/resume
/// equivalence claim is stated over.  Trace fingerprints legitimately
/// differ between the twin runs (the killed run carries kill/resume
/// markers and retransmission postings); the *payload* must not.
std::uint64_t PayloadFingerprint(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

struct KillLegOutcome {
  std::uint64_t payload_fp = 0;     ///< FNV over the delivered bytes
  std::uint64_t connection_fp = 0;  ///< trace fingerprint of this leg
};

/// One leg of the kill-mode twin: the single-pair stream workload with
/// recovery armed and — when `kill` — one fatal QP kill landing at the
/// seed-derived (or pinned) fraction of the fault horizon, recovered
/// in-line by Socket::ResumePair the moment both transport halves are
/// dead.  Failures are prefixed with `label` so the twin report reads.
void RunKillLeg(const TortureConfig& cfg, bool kill, const char* label,
                TortureResult* res, KillLegOutcome* outcome) {
  simnet::HardwareProfile profile = ResolveProfile(cfg.profile);
  const SimDuration horizon = EstimateHorizon(profile, cfg.total_bytes);
  auto fail = [&](const std::string& what) {
    res->failures.push_back(std::string(label) + ": " + what);
  };

  // Seed-derived workload variant (domain-separated from the fault plan
  // and the workload RNG): the recovery path must hold under every
  // chunking discipline, so the sweep rotates classic dynamic, coalesce,
  // and striped streams.  Pinning cfg.rails forces the striped variant.
  std::uint64_t bits = SplitMix64(cfg.seed ^ 0x4b111f7e57a7e5ull).Next();
  StreamOptions opts;
  opts.recovery.enabled = true;
  opts.intermediate_buffer_bytes = cfg.buffer_bytes;
  const std::uint64_t variant = cfg.rails != 0 ? 2 : bits % 3;
  if (variant == 1) opts.coalesce.enabled = true;
  if (variant == 2) {
    opts.rails =
        cfg.rails != 0 ? cfg.rails : (((bits >> 2) & 1) != 0 ? 2u : 4u);
    opts.max_wwi_chunk = 16 * 1024;
  }

  Simulation sim(profile, cfg.seed, /*carry_payload=*/true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing(cfg.trace_capacity);
  server->EnableTracing(cfg.trace_capacity);

  // Destroyed before `sim` (reverse declaration order), like every driver.
  simnet::FaultInjector injector(sim.fabric());
  injector.AttachControlTarget(0, &client->rail(0));
  injector.AttachControlTarget(1, &server->rail(0));
  injector.AttachKillTarget(0, client);
  injector.AttachKillTarget(1, server);
  simnet::FaultPlan plan;
  if (cfg.enable_faults) {
    // The transient base plan is identical in both legs; the kill below is
    // appended outside the plan RNG, so golden and killed runs share every
    // stall and jitter window byte-for-byte until the kill lands.
    plan = simnet::FaultPlan::Generate(
        cfg.seed, simnet::FaultPlanConfig::ScaledTo(horizon));
  }
  if (kill) {
    const std::uint32_t permille =
        cfg.kill_permille != 0
            ? cfg.kill_permille
            : static_cast<std::uint32_t>(50 + (bits >> 8) % 350);
    simnet::FaultEvent ev;
    ev.kind = simnet::FaultKind::kQpKill;
    ev.target = bits & 1;
    ev.at = static_cast<SimTime>(horizon / 1000 * permille);
    plan.events.push_back(ev);
  }
  if (!plan.events.empty()) injector.Arm(plan);

  // Workload RNG: the same domain separation as the classic driver, so a
  // kill-mode seed exercises a comparable posting interleave.
  Rng rng(SplitMix64(cfg.seed ^ 0x70e7f1c70ffe12edull).Next());
  const std::uint64_t total = cfg.total_bytes;
  const std::uint64_t max_message =
      cfg.max_message < total ? cfg.max_message : total;

  std::vector<std::uint8_t> out(total);
  FillPattern(out.data(), out.size(), 0, cfg.seed);
  std::vector<std::uint8_t> in(total, 0);

  constexpr std::size_t kScratch = 6;
  std::vector<std::vector<std::uint8_t>> scratch(
      kScratch, std::vector<std::uint8_t>(max_message));
  std::vector<std::size_t> free_scratch;
  for (std::size_t i = 0; i < kScratch; ++i) free_scratch.push_back(i);

  struct Posted {
    std::size_t scratch_index;
    std::uint64_t len;
  };
  std::unordered_map<std::uint64_t, Posted> posted;

  std::uint64_t send_off = 0;
  std::uint64_t recv_done = 0;
  std::uint64_t pending_posted = 0;

  server->events().SetHandler([&](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    auto it = posted.find(ev.id);
    if (it == posted.end()) {
      fail("completion for unknown receive id");
      return;
    }
    Posted rec = it->second;
    posted.erase(it);
    if (ev.bytes > rec.len || recv_done + ev.bytes > total) {
      fail("receive completion exceeds posted/total size");
      return;
    }
    std::memcpy(in.data() + recv_done, scratch[rec.scratch_index].data(),
                ev.bytes);
    recv_done += ev.bytes;
    pending_posted -= rec.len;
    free_scratch.push_back(rec.scratch_index);
  });

  std::uint64_t resumes_here = 0;
  auto maybe_resume = [&]() {
    if (!client->TransportDead() && !server->TransportDead()) return;
    // The kill flushes one side instantly; the peer's QPs die one ack
    // delay later.  Pump simulated time until both halves are down, then
    // reconnect and resume at the delivered frontier.
    std::uint64_t spins = 0;
    while (!(client->TransportDead() && server->TransportDead())) {
      sim.RunFor(Microseconds(100));
      if (++spins > 100000u) {
        fail("peer transport never observed the kill");
        return;
      }
    }
    Socket::ResumePair(*client, *server);
    ++resumes_here;
  };

  try {
    std::uint64_t guard = 0;
    while (res->failures.empty() && recv_done < total) {
      if (++guard > 2000000u) {
        fail("no progress: stuck at " + std::to_string(recv_done) + "/" +
             std::to_string(total) + " bytes");
        break;
      }
      bool can_send = send_off < total;
      bool can_recv = !free_scratch.empty() &&
                      recv_done + pending_posted < total;
      if (can_send && (rng.NextBool() || !can_recv)) {
        std::uint64_t s = rng.NextInRange(1, max_message);
        if (s > total - send_off) s = total - send_off;
        client->Send(out.data() + send_off, s);
        send_off += s;
      } else if (can_recv) {
        std::size_t idx = free_scratch.back();
        free_scratch.pop_back();
        std::uint64_t room = total - recv_done - pending_posted;
        std::uint64_t r = rng.NextInRange(1, max_message);
        if (r > room) r = room;
        std::uint64_t id = server->Recv(scratch[idx].data(), r,
                                        RecvFlags{.waitall = rng.NextBool(0.4)});
        posted.emplace(id, Posted{idx, r});
        pending_posted += r;
      }
      sim.RunFor(static_cast<SimDuration>(
          rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(30)))));
      if (!can_send && !can_recv) {
        sim.Run();
      } else if (rng.NextBool(0.08)) {
        sim.Run();
      }
      maybe_resume();
    }
    if (res->failures.empty()) {
      sim.Run();
      // A late kill can land after the last byte delivered; resume anyway
      // so quiescence below means "fully recovered", never "dead quiet".
      maybe_resume();
      sim.Run();
    }
  } catch (const InvariantViolation& violation) {
    fail(std::string("runtime invariant violation: ") + violation.what());
  }

  if (res->failures.empty()) {
    if (recv_done != total) {
      fail("short delivery: " + std::to_string(recv_done) + "/" +
           std::to_string(total) + " bytes");
    } else if (std::size_t good =
                   VerifyPattern(in.data(), in.size(), 0, cfg.seed);
               good != in.size()) {
      fail("payload corrupt at stream offset " + std::to_string(good));
    }
    if (!client->Quiescent() || !server->Quiescent()) {
      fail("endpoints not quiescent after drain");
    }
    std::uint64_t tx_seq = client->stream_tx()->sequence();
    std::uint64_t rx_seq = server->stream_rx()->sequence();
    std::uint64_t rx_est = server->stream_rx()->sequence_estimate();
    if (tx_seq != total || rx_seq != total || rx_est != total) {
      fail("sequence disagreement: S_s=" + std::to_string(tx_seq) +
           " S_r=" + std::to_string(rx_seq) +
           " S'_r=" + std::to_string(rx_est) + " expected " +
           std::to_string(total));
    }
    if (kill && injector.KillsApplied() == 0) {
      fail("the fatal kill never took effect");
    }
  }

  // The resume-aware checker: delivered-byte continuity (gap-free and
  // duplicate-free through the markers) still runs; only the cross-log
  // conservation rules are skipped on the killed leg.
  InvariantReport report = CheckConnection(*client, *server);
  for (const auto& v : report.violations) {
    res->checker_violations.push_back(std::string(label) + ": " + v);
  }
  for (const auto& w : report.warnings) {
    res->checker_warnings.push_back(std::string(label) + ": " + w);
  }
  res->events_checked += report.events_checked;
  res->faults_armed += injector.FaultsArmed();
  res->faults_applied += injector.FaultsApplied();
  res->kills_applied += injector.KillsApplied();
  res->resumes += resumes_here;
  outcome->payload_fp = PayloadFingerprint(in.data(), in.size());
  outcome->connection_fp = ConnectionFingerprint(*client, *server);
}

/// Twin-run equivalence: the same seed drives an unkilled golden leg and a
/// killed/resumed leg; the run passes only if both legs individually pass
/// AND deliver the byte-identical stream.
TortureResult RunKillTorture(const TortureConfig& cfg) {
  TortureResult res;
  KillLegOutcome golden;
  KillLegOutcome killed;
  RunKillLeg(cfg, /*kill=*/false, "golden", &res, &golden);
  RunKillLeg(cfg, /*kill=*/true, "killed", &res, &killed);
  if (golden.payload_fp != killed.payload_fp) {
    std::ostringstream oss;
    oss << "delivered stream diverged across kill/resume: golden payload "
        << "fp 0x" << std::hex << golden.payload_fp << ", killed 0x"
        << killed.payload_fp;
    res.failures.push_back(oss.str());
  }
  // The replay/determinism fingerprint chains both legs' payloads and the
  // killed leg's trace fingerprint (which covers the kill/resume markers
  // and the retransmission schedule).
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (v >> (8 * i)) & 0xff;
      fp *= 0x100000001b3ull;
    }
  };
  mix(golden.payload_fp);
  mix(killed.payload_fp);
  mix(killed.connection_fp);
  res.fingerprint = fp;
  res.ok = res.failures.empty() && res.checker_violations.empty();
  return res;
}

}  // namespace

TortureResult RunTorture(const TortureConfig& cfg) {
  EXS_CHECK_MSG(ValidMode(cfg.mode), "unknown mode '" << cfg.mode << "'");
  if (cfg.mode == "many") return RunManyTorture(cfg);
  if (cfg.mode == "kill") return RunKillTorture(cfg);
  if (cfg.mode == "mux") return RunMuxTorture(cfg);
  if (cfg.mode == "rpc") return RunRpcTorture(cfg);
  TortureResult res;

  simnet::HardwareProfile profile = ResolveProfile(cfg.profile);
  const SimDuration horizon = EstimateHorizon(profile, cfg.total_bytes);
  const bool seqpacket = cfg.mode == "seqpacket";

  StreamOptions opts;
  if (cfg.mode == "direct") opts.mode = ProtocolMode::kDirectOnly;
  if (cfg.mode == "indirect") opts.mode = ProtocolMode::kIndirectOnly;
  // "coalesce" is the dynamic algorithm with the small-transfer staging
  // buffer and ACK piggyback armed — the corpus round-trips it through the
  // existing mode key.
  if (cfg.mode == "coalesce") opts.coalesce.enabled = true;
  // "batch" arms the whole hot-path batching stack — doorbell batching and
  // batched CQ drain — with coalescing on and both devices' registration
  // cost model, and drives sends through vectored Sendv, which gathers
  // each chunk straight from the slices and never stages.  The seed picks
  // the batch depth and Sendv arity (domain-separated from the fault plan
  // and workload RNGs); explicit cfg.batch / cfg.arity pin their axes so a
  // corpus line replays the exact configuration.
  std::uint32_t sendv_arity = 1;
  if (cfg.mode == "batch") {
    std::uint64_t bits = SplitMix64(cfg.seed ^ 0xba7c4d00bbe11ull).Next();
    std::uint32_t depth =
        cfg.batch != 0 ? cfg.batch : (2u << (bits % 3));  // {2,4,8}
    sendv_arity =
        cfg.arity != 0 ? cfg.arity : (1u << ((bits >> 2) % 3));  // {1,2,4}
    EXS_CHECK_MSG(sendv_arity >= 1 && sendv_arity <= verbs::kMaxSge,
                  "sendv arity out of [1, kMaxSge]");
    opts.coalesce.enabled = true;
    opts.batching.doorbell = true;
    opts.batching.max_wrs = depth;
    // Batched CQ dispatch: {1, 4, 16} completions per CPU pass, so the
    // completion-clocked refills also exercise the clumped-post path.
    opts.batching.cq_drain = 1u << (2 * ((bits >> 5) % 3));
    // Small chunks so a single posting becomes several WRs per pump pass
    // — otherwise the doorbell batch never fills.
    opts.max_wwi_chunk = 16 * 1024;
  }
  if (cfg.mode == "stripe") {
    // Multi-rail striping.  The seed picks the point in the
    // {2,4 rails} × {dynamic,indirect} square (domain-separated from both
    // the fault plan and the workload RNG); an explicit cfg.rails pins its
    // axis so a corpus line replays the exact configuration.
    std::uint64_t bits = SplitMix64(cfg.seed ^ 0x57a1be5c0de4a115ull).Next();
    opts.rails = cfg.rails != 0 ? cfg.rails : ((bits & 1) != 0 ? 2u : 4u);
    if ((bits & 4) != 0) opts.mode = ProtocolMode::kIndirectOnly;
    // Striped chunks should actually spread: bound the chunk size so even
    // a single large send becomes several WWIs.
    opts.max_wwi_chunk = 16 * 1024;
  }
  opts.intermediate_buffer_bytes = cfg.buffer_bytes;
  opts.sabotage.accept_stale_adverts = cfg.sabotage_stale_adverts;
  opts.sabotage.advertise_without_gate = cfg.sabotage_advert_gate;

  Simulation sim(profile, cfg.seed, /*carry_payload=*/true);
  if (cfg.mode == "batch") {
    sim.device(0).EnableMrCostModel();
    sim.device(1).EnableMrCostModel();
  }
  auto [client, server] = sim.CreateConnectedPair(
      seqpacket ? SocketType::kSeqPacket : SocketType::kStream, opts);
  client->EnableTracing(cfg.trace_capacity);
  server->EnableTracing(cfg.trace_capacity);
  // Sample every chunk: the stage-attribution conservation rule runs on
  // each torture mode (a no-op for SEQPACKET, which traces no chunks).
  sim.EnableChunkSpans();

  // Destroyed before `sim` (reverse declaration order): no simulated time
  // advances after the injector dies, so its scheduled lambdas never run
  // dangling.
  simnet::FaultInjector injector(sim.fabric());
  if (cfg.enable_faults) {
    injector.AttachControlTarget(0, &client->rail(0));
    injector.AttachControlTarget(1, &server->rail(0));
    injector.Arm(simnet::FaultPlan::Generate(
        cfg.seed, simnet::FaultPlanConfig::ScaledTo(horizon)));
  }

  // Workload RNG, domain-separated from the fault plan and the fabric.
  Rng rng(SplitMix64(cfg.seed ^ 0x70e7f1c70ffe12edull).Next());
  const std::uint64_t total = cfg.total_bytes;
  const std::uint64_t max_message =
      cfg.max_message < total ? cfg.max_message : total;

  std::vector<std::uint8_t> out(total);
  FillPattern(out.data(), out.size(), 0, cfg.seed);
  std::vector<std::uint8_t> in(total, 0);

  // Message sizes for SEQPACKET are fixed up front (message boundaries are
  // preserved, so the receive side must know how many messages to await).
  std::vector<std::uint64_t> sizes;
  if (seqpacket) {
    std::uint64_t planned = 0;
    while (planned < total) {
      std::uint64_t s = rng.NextInRange(1, max_message);
      if (s > total - planned) s = total - planned;
      sizes.push_back(s);
      planned += s;
    }
  }

  constexpr std::size_t kScratch = 6;
  std::vector<std::vector<std::uint8_t>> scratch(
      kScratch, std::vector<std::uint8_t>(max_message));
  std::vector<std::size_t> free_scratch;
  for (std::size_t i = 0; i < kScratch; ++i) free_scratch.push_back(i);

  struct Posted {
    std::size_t scratch_index;
    std::uint64_t len;
  };
  std::unordered_map<std::uint64_t, Posted> posted;

  std::uint64_t send_off = 0;
  std::size_t msgs_sent = 0;
  std::uint64_t recv_done = 0;
  std::size_t msgs_received = 0;
  std::uint64_t pending_posted = 0;
  std::size_t recvs_posted = 0;

  server->events().SetHandler([&](const Event& ev) {
    if (ev.type != EventType::kRecvComplete) return;
    auto it = posted.find(ev.id);
    if (it == posted.end()) {
      res.failures.push_back("completion for unknown receive id");
      return;
    }
    Posted rec = it->second;
    posted.erase(it);
    if (ev.bytes > rec.len || recv_done + ev.bytes > total) {
      res.failures.push_back("receive completion exceeds posted/total size");
      return;
    }
    std::memcpy(in.data() + recv_done, scratch[rec.scratch_index].data(),
                ev.bytes);
    recv_done += ev.bytes;
    ++msgs_received;
    pending_posted -= rec.len;
    free_scratch.push_back(rec.scratch_index);
  });

  // Drive loop (the stream_property_test pattern): interleave postings
  // with short runs of simulated time so the relative order of sends,
  // receives, control traffic — and now faults — varies by seed.
  DriveOutcome drive;
  try {
    std::uint64_t guard = 0;
    auto done = [&]() {
      return seqpacket ? msgs_received >= sizes.size() : recv_done >= total;
    };
    while (!done()) {
      if (++guard > 2000000u) {
        res.failures.push_back(
            "no progress: stuck at " + std::to_string(recv_done) + "/" +
            std::to_string(total) + " bytes");
        break;
      }
      bool can_send =
          seqpacket ? msgs_sent < sizes.size() : send_off < total;
      bool can_recv =
          !free_scratch.empty() &&
          (seqpacket ? recvs_posted < sizes.size()
                     : recv_done + pending_posted < total);

      if (can_send && (rng.NextBool() || !can_recv)) {
        if (seqpacket) {
          client->Send(out.data() + send_off, sizes[msgs_sent]);
          send_off += sizes[msgs_sent];
          ++msgs_sent;
        } else {
          std::uint64_t s = rng.NextInRange(1, max_message);
          if (s > total - send_off) s = total - send_off;
          if (cfg.mode == "batch") {
            // Vectored posting: carve the message into `sendv_arity`
            // slices (zero-length middles are legal padding) — one
            // logical send, one completion, gathered by the HCA.
            Socket::IoSlice iov[verbs::kMaxSge];
            std::uint64_t off = send_off, left = s;
            std::uint32_t n = 0;
            for (std::uint32_t k = 0; k < sendv_arity; ++k) {
              std::uint64_t take =
                  (k + 1 == sendv_arity) ? left : rng.NextInRange(0, left);
              iov[n++] = {out.data() + off, take};
              off += take;
              left -= take;
            }
            client->Sendv(iov, n);
          } else {
            client->Send(out.data() + send_off, s);
          }
          send_off += s;
        }
      } else if (can_recv) {
        std::size_t idx = free_scratch.back();
        free_scratch.pop_back();
        std::uint64_t r = max_message;
        bool waitall = false;
        if (!seqpacket) {
          std::uint64_t room = total - recv_done - pending_posted;
          r = rng.NextInRange(1, max_message);
          if (r > room) r = room;
          waitall = rng.NextBool(0.4);
        }
        std::uint64_t id = server->Recv(scratch[idx].data(), r,
                                        RecvFlags{.waitall = waitall});
        posted.emplace(id, Posted{idx, r});
        pending_posted += r;
        ++recvs_posted;
      }
      sim.RunFor(static_cast<SimDuration>(
          rng.NextInRange(0, static_cast<std::uint64_t>(Microseconds(30)))));
      // Occasional full drains let the receiver catch up and empty the
      // ring, so dynamic runs actually flip between indirect and direct
      // phases instead of degenerating to pure-indirect.
      if (!can_send && !can_recv) {
        sim.Run();
      } else if (rng.NextBool(0.08)) {
        sim.Run();
      }
    }
    if (res.failures.empty()) sim.Run();
  } catch (const InvariantViolation& violation) {
    // A runtime EXS_CHECK fired mid-run (expected under sabotage).  The
    // traces recorded up to this point still go through the checker.
    drive.aborted = true;
    res.failures.push_back(std::string("runtime invariant violation: ") +
                           violation.what());
  }

  if (!drive.aborted && res.failures.empty()) {
    if (recv_done != total) {
      res.failures.push_back("short delivery: " + std::to_string(recv_done) +
                             "/" + std::to_string(total) + " bytes");
    } else if (std::size_t good = VerifyPattern(in.data(), in.size(), 0,
                                                cfg.seed);
               good != in.size()) {
      res.failures.push_back("payload corrupt at stream offset " +
                             std::to_string(good));
    }
    if (!client->Quiescent() || !server->Quiescent()) {
      res.failures.push_back("endpoints not quiescent after drain");
    }
    if (!seqpacket) {
      std::uint64_t tx_seq = client->stream_tx()->sequence();
      std::uint64_t rx_seq = server->stream_rx()->sequence();
      std::uint64_t rx_est = server->stream_rx()->sequence_estimate();
      if (tx_seq != total || rx_seq != total || rx_est != total) {
        res.failures.push_back(
            "sequence disagreement: S_s=" + std::to_string(tx_seq) +
            " S_r=" + std::to_string(rx_seq) +
            " S'_r=" + std::to_string(rx_est) + " expected " +
            std::to_string(total));
      }
    }
  }

  InvariantReport report = CheckConnection(*client, *server);
  report.Merge(CheckSpanConservation(*sim.chunk_spans()));
  res.checker_violations = report.violations;
  res.checker_warnings = report.warnings;
  res.events_checked = report.events_checked;
  res.fingerprint = ConnectionFingerprint(*client, *server);
  res.faults_armed = injector.FaultsArmed();
  res.faults_applied = injector.FaultsApplied();
  res.ok = res.failures.empty() && res.checker_violations.empty();
  return res;
}

// ---------------------------------------------------------------------------
// Replay corpus: one `key=value` line per failing configuration.
// ---------------------------------------------------------------------------

std::string EncodeCorpusEntry(const TortureConfig& cfg) {
  std::ostringstream oss;
  oss << "seed=" << cfg.seed << " profile=" << cfg.profile
      << " mode=" << cfg.mode << " total=" << cfg.total_bytes
      << " maxmsg=" << cfg.max_message << " buffer=" << cfg.buffer_bytes
      << " tracecap=" << cfg.trace_capacity
      << " faults=" << (cfg.enable_faults ? 1 : 0)
      << " sab_stale=" << (cfg.sabotage_stale_adverts ? 1 : 0)
      << " sab_gate=" << (cfg.sabotage_advert_gate ? 1 : 0);
  // Mode-specific keys appear only when pinned, so older corpus files
  // round-trip byte-identically.
  if (cfg.rails != 0) oss << " rails=" << cfg.rails;
  if (cfg.streams != 0) oss << " streams=" << cfg.streams;
  if (cfg.width != 0) oss << " width=" << cfg.width;
  if (cfg.kill_permille != 0) oss << " killpm=" << cfg.kill_permille;
  if (cfg.batch != 0) oss << " batch=" << cfg.batch;
  if (cfg.arity != 0) oss << " arity=" << cfg.arity;
  oss << " fp=0x" << std::hex << cfg.expect_fingerprint;
  return oss.str();
}

bool DecodeCorpusEntry(const std::string& line, TortureConfig* out) {
  TortureConfig cfg;
  bool have_seed = false;
  std::istringstream iss(line);
  std::string token;
  while (iss >> token) {
    std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (value.empty()) return false;
    try {
      if (key == "seed") {
        cfg.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "profile") {
        cfg.profile = value;
      } else if (key == "mode") {
        cfg.mode = value;
      } else if (key == "total") {
        cfg.total_bytes = std::stoull(value);
      } else if (key == "maxmsg") {
        cfg.max_message = std::stoull(value);
      } else if (key == "buffer") {
        cfg.buffer_bytes = std::stoull(value);
      } else if (key == "tracecap") {
        cfg.trace_capacity = std::stoull(value);
      } else if (key == "faults") {
        cfg.enable_faults = value != "0";
      } else if (key == "sab_stale") {
        cfg.sabotage_stale_adverts = value != "0";
      } else if (key == "sab_gate") {
        cfg.sabotage_advert_gate = value != "0";
      } else if (key == "rails") {
        cfg.rails = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "streams") {
        cfg.streams = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "width") {
        cfg.width = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "killpm") {
        cfg.kill_permille = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "batch") {
        cfg.batch = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "arity") {
        cfg.arity = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "fp") {
        cfg.expect_fingerprint = std::stoull(value, nullptr, 0);
      } else {
        return false;  // unknown key: refuse rather than silently drift
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (!have_seed || !ValidMode(cfg.mode)) return false;
  *out = cfg;
  return true;
}

std::vector<TortureConfig> LoadCorpus(const std::string& path) {
  std::ifstream file(path);
  EXS_CHECK_MSG(file.good(), "cannot read corpus file " << path);
  std::vector<TortureConfig> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    TortureConfig cfg;
    EXS_CHECK_MSG(DecodeCorpusEntry(line, &cfg),
                  "malformed corpus entry at " << path << ":" << lineno);
    entries.push_back(cfg);
  }
  return entries;
}

void AppendCorpusEntry(const std::string& path, const TortureConfig& cfg,
                       std::uint64_t fingerprint) {
  std::ofstream file(path, std::ios::app);
  EXS_CHECK_MSG(file.good(), "cannot append to corpus file " << path);
  TortureConfig stamped = cfg;
  stamped.expect_fingerprint = fingerprint;
  file << EncodeCorpusEntry(stamped) << "\n";
}

}  // namespace exs::torture
