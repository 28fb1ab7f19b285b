// rpc_mux and rpc_engine: open-loop KV clients against one sharded
// KvServer, in simulated time.
//
// Both workloads share one harness.  A Rig is one topology (simulation,
// transport, server, clients, per-client generators); Drive() offers a
// constant aggregate rate over a warm-up and a measured window, then stops
// arrivals and lets the run drain.  Arrivals are a Poisson process
// conditioned on its count: exactly round(rate x window) arrivals land in
// each window, at the normalised partial sums of exponential gaps (which
// are distributed as sorted uniform instants), each owned by a client
// drawn uniformly.  Every client therefore issues across the whole window
// at the same rate, and the offered rate is the nominal rate up to
// rounding — unlike a fixed per-client request train, whose aggregate rate
// decays as clients run out.
//
// The capacity probe drives the same rig up a fixed ladder of offered
// rates above the nominal one and reports the highest rung that keeps the
// p99 under a fixed limit with zero failures and no growing backlog.
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exs/engine/acceptor.hpp"
#include "exs/engine/progress_engine.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"
#include "exs/loadgen/arrivals.hpp"
#include "exs/loadgen/workload.hpp"
#include "exs/mux.hpp"
#include "exs/rpc/kv_server.hpp"
#include "exs/rpc/rpc_client.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using exs::SimDuration;
using exs::SimTime;

constexpr std::uint16_t kPort = 4100;
constexpr std::uint32_t kMuxWidth = 8;
constexpr SimDuration kDeadline = exs::Milliseconds(4);
/// Simulated time between host clock slices of a measured window (a few
/// hundred milliseconds of host time on rpc_mux, tens on rpc_engine), and
/// clients between slices of set-up.
constexpr SimDuration kClockSlice = exs::Milliseconds(20);
constexpr std::uint32_t kClientsPerSlice = 4096;
constexpr std::uint64_t kClientTag = 0x7065726662656e63ULL;   // "perfbenc"
constexpr std::uint64_t kArrivalTag = 0x6172726976616c73ULL;  // "arrivals"

struct Shape {
  const char* name = "";
  bool muxed = false;
  std::uint32_t clients = 0;
  double nominal_krps = 0.0;
  SimDuration warmup = 0;
  SimDuration window = 0;
  exs::loadgen::WorkloadOptions mix;
  /// Capacity probe: offered rates above the nominal one, ascending.
  std::vector<double> ladder_krps;
  SimDuration ladder_window = 0;
  SimDuration p99_limit = 0;
};

/// The capacity ladder: 90 to 130 kreq/s in 2.5 kreq/s rungs, which
/// straddles the knee of both rpc workloads (their busiest CPU saturates
/// near 110 kreq/s).
std::vector<double> Ladder(bool tiny) {
  if (tiny) return {90.0};
  std::vector<double> rungs;
  for (double krps = 90.0; krps <= 130.0; krps += 2.5) rungs.push_back(krps);
  return rungs;
}

Shape MuxShape(bool tiny) {
  Shape s;
  s.name = "rpc_mux";
  s.muxed = true;
  s.clients = tiny ? 512 : 16384;
  s.nominal_krps = 1e3 / 12.0;  // one call every 12 us: ext_openloop's rate
  s.warmup = exs::Milliseconds(tiny ? 2 : 10);
  s.window = exs::Milliseconds(tiny ? 10 : 250);
  s.mix.key_space = 1024;  // 70 % GET / 25 % PUT / 5 % DEL, 64-480 B values
  s.ladder_krps = Ladder(tiny);
  s.ladder_window = exs::Milliseconds(tiny ? 5 : 20);
  s.p99_limit = exs::Microseconds(500);
  return s;
}

Shape EngineShape(bool tiny) {
  Shape s;
  s.name = "rpc_engine";
  s.muxed = false;
  s.clients = tiny ? 32 : 256;
  s.nominal_krps = 1e3 / 12.0;
  s.warmup = exs::Milliseconds(tiny ? 2 : 10);
  s.window = exs::Milliseconds(tiny ? 10 : 300);
  s.mix.key_space = 1024;
  s.mix.get_fraction = 0.25;  // writes-heavy: 25 % GET / 70 % PUT / 5 % DEL
  s.mix.put_fraction = 0.70;
  s.ladder_krps = Ladder(tiny);
  s.ladder_window = exs::Milliseconds(tiny ? 5 : 50);
  s.p99_limit = exs::Microseconds(500);
  return s;
}

/// What one Drive() window measured.
struct Window {
  double offered_krps = 0.0;
  std::uint64_t attempted = 0;  ///< warm-up + window calls
  std::uint64_t failed = 0;     ///< of those: timed out, refused or shed
  std::uint64_t measured = 0;   ///< calls issued in the measured window
  std::uint64_t measured_failed = 0;
  /// Measured calls answered by window end + the p99 limit: a stable
  /// system answers all but the last instants' worth.
  std::uint64_t answered_in_time = 0;
  std::vector<SimDuration> latencies;  ///< measured, answered calls
  SimDuration elapsed = 0;
  SimDuration client_busy = 0;
  SimDuration server_busy = 0;
  std::uint64_t bytes = 0;  ///< request + response bytes in the window
  std::uint64_t events = 0;
};

class Rig {
 public:
  /// Builds the topology; `setup` is sliced every kClientsPerSlice
  /// clients.
  Rig(const Shape& shape, std::uint64_t seed, Tracer* tracer,
      bool chunk_spans, HostClock* setup)
      : shape_(shape),
        setup_(setup),
        seed_(seed),
        tracer_(tracer),
        sim_(exs::simnet::HardwareProfile::FdrInfiniBand().WithBusyPolling(),
             seed, /*carry_payload=*/true),
        server_(ServerOptions()) {
    if (chunk_spans) spans_ = &sim_.EnableChunkSpans(1);
    if (shape_.muxed) {
      BuildMux();
    } else {
      BuildEngine();
    }
    exs::rpc::RpcClientOptions copts;
    copts.default_deadline = kDeadline;
    copts.max_outstanding = 16;
    copts.recv_chunk_bytes = 512;
    copts.deliver_values = false;
    clients_.reserve(client_sockets_.size());
    generators_.reserve(client_sockets_.size());
    for (std::uint32_t c = 0; c < client_sockets_.size(); ++c) {
      if (c % kClientsPerSlice == kClientsPerSlice - 1) setup_->Slice();
      {
        Tracer::Scope s(tracer_, Layer::kRpc, "rpc.RpcClient", c);
        clients_.push_back(std::make_unique<exs::rpc::RpcClient>(
            *client_sockets_[c], sim_.scheduler(), copts));
      }
      Tracer::Scope s(tracer_, Layer::kLoadgen, "loadgen.WorkloadGenerator",
                      c);
      generators_.emplace_back(
          shape_.mix, exs::SplitMix64(seed_ ^ (kClientTag + c)).Next());
    }
    // Settle the set-up transient (handshakes, initial receive posts)
    // before anything is measured.
    Tracer::Scope s(tracer_, Layer::kSimnet, "simnet.Run");
    sim_.Run();
  }

  /// Offer `krps` over a warm-up and a measured window, then drain.  A
  /// non-null `clock` is sliced every kClockSlice of simulated time.
  Window Drive(double krps, SimDuration warmup, SimDuration window,
               std::uint64_t rung, HostClock* clock = nullptr) {
    Window w;
    const SimTime t0 = sim_.Now();
    window_start_ = t0 + warmup;
    window_end_ = window_start_ + window;
    arrivals_.clear();
    exs::Rng rng(exs::SplitMix64(seed_ ^ (kArrivalTag + rung)).Next());
    const double per_ps = krps * 1e3 / 1e12;
    AddArrivals(&rng, t0, warmup, per_ps, /*measured=*/false);
    AddArrivals(&rng, window_start_, window, per_ps, /*measured=*/true);
    for (const Arrival& a : arrivals_) w.measured += a.measured ? 1 : 0;
    w.offered_krps = static_cast<double>(w.measured) /
                     exs::ToSeconds(window) / 1e3;
    current_ = &w;
    next_arrival_ = 0;
    if (!arrivals_.empty()) ScheduleNextArrival();

    // Probe the CPUs and byte counters at the window's edges.
    struct Probe {
      SimDuration client = 0, server = 0;
      std::uint64_t bytes = 0;
    };
    Probe at_start, at_end;
    auto probe = [this](Probe* p) {
      p->client = sim_.fabric().node(0).cpu().BusyTime();
      p->server = sim_.fabric().node(1).cpu().BusyTime();
      p->bytes = server_.stats().request_bytes + ResponseBytes();
    };
    sim_.scheduler().ScheduleAt(window_start_,
                                [&, probe] { probe(&at_start); });
    sim_.scheduler().ScheduleAt(window_end_, [&, probe] { probe(&at_end); });

    const std::uint64_t events_before = sim_.scheduler().ExecutedCount();
    {
      Tracer::Scope s(tracer_, Layer::kSimnet, "simnet.Run");
      if (clock != nullptr) {
        // Slicing the run changes nothing simulated: no event is scheduled
        // from outside between slices.
        clock->Start();
        for (SimTime t = t0 + kClockSlice; t < window_end_; t += kClockSlice) {
          sim_.scheduler().RunUntil(t);
          clock->Slice();
        }
      }
      sim_.Run();
      if (clock != nullptr) clock->Slice();
    }
    current_ = nullptr;
    w.events = sim_.scheduler().ExecutedCount() - events_before;
    w.elapsed = window;
    w.client_busy = at_end.client - at_start.client;
    w.server_busy = at_end.server - at_start.server;
    w.bytes = at_end.bytes - at_start.bytes;
    return w;
  }

  /// Simulated metrics of the nominal window, plus the layer counters
  /// accumulated so far.
  void Report(const Window& w, std::map<std::string, double>* out) {
    auto& m = *out;
    const double seconds = exs::ToSeconds(w.elapsed);
    const LatencySummary lat = SummariseLatencies(w.latencies);
    m["op_p50_us"] = lat.p50_us;
    m["op_p99_us"] = lat.p99_us;
    m["op_p999_us"] = lat.p999_us;
    m["op_samples"] = static_cast<double>(lat.count);

    m["simnet.events"] = static_cast<double>(w.events);
    m["simnet.server_cpu_busy_pct"] =
        100.0 * exs::ToSeconds(w.server_busy) / seconds;
    m["simnet.client_cpu_busy_pct"] =
        100.0 * exs::ToSeconds(w.client_busy) / seconds;
    m["verbs.qps_created"] =
        static_cast<double>(sim_.device(0).QueuePairsCreated() +
                            sim_.device(1).QueuePairsCreated());
    LayerSums sums;
    for (exs::Socket* s : client_sockets_) sums.AddSocket(*s);
    for (exs::Socket* s : server_sockets_) sums.AddSocket(*s);
    if (shape_.muxed) {
      for (std::size_t i = 0; i < groups_[0]->width(); ++i) {
        sums.AddSharedChannel(groups_[0]->slot(i));
        sums.AddSharedChannel(groups_[1]->slot(i));
      }
    }
    sums.Emit(w.elapsed, &m);
    if (spans_ != nullptr) FoldChunkSpans(spans_, &m);

    if (engine_ != nullptr) {
      m["engine.events_per_tick"] =
          engine_->TicksRun() == 0
              ? 0.0
              : static_cast<double>(engine_->EventsDispatched()) /
                    static_cast<double>(engine_->TicksRun());
      const auto& hist = engine_registry_.histograms();
      auto delay = hist.find("engine.sched_delay");
      m["engine.sched_delay_p99_us"] =
          delay == hist.end() ? 0.0
                              : delay->second.instrument->Percentile(99) / 1e6;
      const auto& series = engine_registry_.series();
      auto depth = series.find("engine.ready_depth");
      m["engine.ready_depth_max"] =
          depth == series.end() ? 0.0 : depth->second.instrument->max();
      m["engine.admission_refusals"] =
          static_cast<double>(acceptor_->AdmissionRefusals());
    }

    std::uint64_t issued = 0, answered = 0, timed_out = 0, refused = 0,
                  shed = 0, stale = 0;
    for (const auto& c : clients_) {
      const exs::rpc::RpcLedger& l = c->ledger();
      issued += l.issued();
      answered += l.Count(exs::rpc::Outcome::kAnswered);
      timed_out += l.Count(exs::rpc::Outcome::kTimedOut);
      refused += l.Count(exs::rpc::Outcome::kRefused) - l.shed_local;
      shed += l.shed_local;
      stale += l.stale_responses;
    }
    m["rpc.issued"] = static_cast<double>(issued);
    m["rpc.answered"] = static_cast<double>(answered);
    m["rpc.timed_out"] = static_cast<double>(timed_out);
    m["rpc.refused"] = static_cast<double>(refused);
    m["rpc.shed_local"] = static_cast<double>(shed);
    m["rpc.stale"] = static_cast<double>(stale);
    m["rpc.fail_ratio"] =
        w.measured == 0 ? 0.0
                        : static_cast<double>(w.measured_failed) /
                              static_cast<double>(w.measured);
    m["kv.slab_refusals"] =
        static_cast<double>(server_.stats().slab_full_refusals);
    m["loadgen.offered_krps"] = w.offered_krps;
  }

  /// The conservation laws, checked at quiescence.  On the engine rig the
  /// clients first close, and every ring lease must come back.
  /// Lost calls and framing errors also count as failed operations.
  void Check(const Window& nominal, RepResult* res) {
    auto fail = [&](const std::string& what) {
      res->violations.push_back(std::string(shape_.name) + ": " + what);
    };
    const double drift = nominal.offered_krps / shape_.nominal_krps - 1.0;
    if (std::abs(drift) > 0.01) {
      fail("offered " + std::to_string(nominal.offered_krps) +
           " kreq/s, more than 1 % off the nominal " +
           std::to_string(shape_.nominal_krps));
    }
    std::vector<const exs::rpc::RpcLedger*> ledgers;
    for (const auto& c : clients_) {
      ledgers.push_back(&c->ledger());
      if (c->framing_failed()) {
        fail("a client frame decoder failed");
        ++res->failed;
      }
      if (c->pending_calls() != 0) fail("calls pending at quiescence");
    }
    {
      Tracer::Scope s(tracer_, Layer::kChecker, "checker.CheckRpcConservation");
      for (const std::string& v :
           exs::CheckRpcConservation(ledgers, &server_.counters()).violations) {
        fail("rpc conservation: " + v);
      }
    }
    std::uint64_t lost = 0;
    for (const auto* l : ledgers) lost += l->Count(exs::rpc::Outcome::kPending);
    if (lost != 0) {
      fail(std::to_string(lost) + " calls lost (no outcome at quiescence)");
      res->failed += lost;
    }
    if (server_.stats().framing_errors != 0) {
      fail("server framing errors");
      res->failed += server_.stats().framing_errors;
    }
    const std::uint64_t qps_per_node =
        shape_.muxed ? kMuxWidth : shape_.clients;
    for (std::size_t node = 0; node < 2; ++node) {
      if (sim_.device(node).QueuePairsCreated() != qps_per_node) {
        fail("node " + std::to_string(node) + " created " +
             std::to_string(sim_.device(node).QueuePairsCreated()) +
             " queue pairs, expected " + std::to_string(qps_per_node));
      }
    }
    if (shape_.muxed) {
      Tracer::Scope s(tracer_, Layer::kChecker, "checker.CheckMuxGroupPair");
      for (const std::string& v :
           exs::CheckMuxGroupPair(*groups_[0], *groups_[1]).violations) {
        fail("mux conservation: " + v);
      }
      return;
    }
    if (acceptor_->AdmissionRefusals() != 0) fail("connections refused");
    for (const auto& c : clients_) c->CloseSend();
    {
      Tracer::Scope s(tracer_, Layer::kSimnet, "simnet.Run");
      sim_.Run();
    }
    if (acceptor_->pool().LeasesActive() != 0) {
      fail(std::to_string(acceptor_->pool().LeasesActive()) +
           " ring leases still held after every client closed");
    }
    if (server_.live_connections() != 0) {
      fail(std::to_string(server_.live_connections()) +
           " server connections not reaped");
    }
  }

  const Shape& shape() const { return shape_; }
  /// Host wall time per client of the engine rig's connect phase.
  double connect_wall_us() const { return connect_wall_us_; }

 private:
  struct Arrival {
    SimTime at = 0;
    std::uint32_t client = 0;
    bool measured = false;
  };

  static exs::rpc::KvServerOptions ServerOptions() {
    exs::rpc::KvServerOptions o;
    o.recv_chunk_bytes = 512;
    return o;
  }

  static exs::StreamOptions TokenStreams() {
    // Token-sized rings and chunks: per-stream state stays tiny at scale.
    exs::StreamOptions o;
    o.credits = 8;
    o.intermediate_buffer_bytes = 2 * exs::kKiB;
    o.max_wwi_chunk = 2 * exs::kKiB;
    return o;
  }

  void BuildMux() {
    exs::MuxOptions mopts;
    mopts.width = kMuxWidth;
    {
      Tracer::Scope s(tracer_, Layer::kMux, "mux.Connect");
      groups_[0] = std::make_unique<exs::MuxGroup>(sim_.device(0), mopts);
      groups_[1] = std::make_unique<exs::MuxGroup>(sim_.device(1), mopts);
      exs::MuxGroup::Connect(*groups_[0], *groups_[1]);
    }
    for (std::uint32_t c = 0; c < shape_.clients; ++c) {
      if (c % kClientsPerSlice == kClientsPerSlice - 1) setup_->Slice();
      Tracer::Scope s(tracer_, Layer::kMux, "mux.CreateMuxedPair", c);
      auto [a, b] =
          sim_.CreateMuxedPair(*groups_[0], *groups_[1], TokenStreams());
      server_.Attach(*b);
      client_sockets_.push_back(a);
      server_sockets_.push_back(b);
    }
  }

  void BuildEngine() {
    const exs::StreamOptions opts = TokenStreams();
    {
      Tracer::Scope s(tracer_, Layer::kEngine, "engine.Listen");
      engine_ = std::make_unique<exs::engine::ProgressEngine>(
          sim_.fabric().node(1).cpu(), exs::engine::ProgressEngineOptions{},
          &engine_registry_);
      exs::engine::AcceptorOptions aopts;
      aopts.pool = {.pool_bytes = shape_.clients * opts.intermediate_buffer_bytes,
                    .lease_bytes = opts.intermediate_buffer_bytes,
                    .high_watermark = 1.0,
                    .low_watermark = 1.0};
      aopts.control_slots = shape_.clients * opts.credits;
      acceptor_ = std::make_unique<exs::engine::Acceptor>(
          sim_.device(1), *engine_, aopts, &engine_registry_);
      acceptor_->Listen(
          sim_.connections(), kPort, opts,
          [this](exs::Socket& s, const exs::Event& ev) {
            server_.HandleEvent(s, ev);
          },
          [this](exs::Socket& s) {
            if (spans_ != nullptr) s.EnableChunkSpans(spans_);
            server_.OnAccept(s);
            server_sockets_.push_back(&s);
          });
    }
    const std::int64_t start = WallNs();
    std::uint32_t connected = 0;
    for (std::uint32_t c = 0; c < shape_.clients; ++c) {
      Tracer::Scope s(tracer_, Layer::kEngine, "engine.Connect", c);
      exs::Socket* socket = sim_.Connect(
          0, kPort, exs::SocketType::kStream, opts,
          [&connected](exs::Socket* done) { connected += done ? 1 : 0; });
      if (spans_ != nullptr) socket->EnableChunkSpans(spans_);
      client_sockets_.push_back(socket);
    }
    {
      Tracer::Scope s(tracer_, Layer::kSimnet, "simnet.Run");
      sim_.Run();  // every handshake settles
    }
    connect_wall_us_ = static_cast<double>(WallNs() - start) / 1e3 /
                       static_cast<double>(shape_.clients);
    if (connected != shape_.clients) {
      throw std::runtime_error(std::to_string(shape_.clients - connected) +
                               " of " + std::to_string(shape_.clients) +
                               " connects were refused");
    }
  }

  std::uint64_t ResponseBytes() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->response_bytes();
    return n;
  }

  /// round(rate x length) arrivals conditioned to fall in
  /// [start, start + length), `per_ps` being the rate per picosecond.
  void AddArrivals(exs::Rng* rng, SimTime start, SimDuration length,
                   double per_ps, bool measured) {
    const auto count = static_cast<std::uint64_t>(
        std::llround(per_ps * static_cast<double>(length)));
    exs::loadgen::PoissonProcess gaps(
        static_cast<SimDuration>(1.0 / per_ps));
    std::vector<double> sums;
    sums.reserve(count + 1);
    double total = 0.0;
    for (std::uint64_t i = 0; i <= count; ++i) {
      total += static_cast<double>(gaps.Next(*rng));
      sums.push_back(total);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      Arrival a;
      a.at = start + static_cast<SimDuration>(sums[i] / total *
                                              static_cast<double>(length));
      a.client = static_cast<std::uint32_t>(
          rng->NextInRange(0, clients_.size() - 1));
      a.measured = measured;
      arrivals_.push_back(a);
    }
  }

  void ScheduleNextArrival() {
    sim_.scheduler().ScheduleAt(arrivals_[next_arrival_].at,
                                [this] { Arrive(); });
  }

  void Arrive() {
    const Arrival a = arrivals_[next_arrival_++];
    if (next_arrival_ < arrivals_.size()) ScheduleNextArrival();
    exs::loadgen::WorkloadGenerator::Request req;
    {
      Tracer::Scope s(tracer_, Layer::kLoadgen, "loadgen.Next", a.client);
      req = generators_[a.client].Next();
    }
    std::uint8_t value[512];  // >= the largest value size class
    if (req.op == exs::rpc::Op::kPut) {
      exs::loadgen::WorkloadGenerator::FillValue(req.key, value,
                                                 req.value_len);
    }
    Window* w = current_;
    ++w->attempted;
    const SimTime answer_by = window_end_ + shape_.p99_limit;
    Tracer::Scope s(tracer_, Layer::kRpc, "rpc.Call", a.client);
    const std::uint64_t id = clients_[a.client]->Call(
        req.op, req.key, req.op == exs::rpc::Op::kPut ? value : nullptr,
        req.value_len,
        [this, w, measured = a.measured,
         answer_by](const exs::rpc::RpcClient::Result& r) {
          const bool ok = r.outcome == exs::rpc::Outcome::kAnswered;
          if (!ok) ++w->failed;
          if (!measured) return;
          if (!ok) {
            ++w->measured_failed;
            return;
          }
          w->latencies.push_back(r.latency);
          if (sim_.Now() <= answer_by) ++w->answered_in_time;
        });
    s.set_correlation_id(id);
  }

  Shape shape_;
  HostClock* setup_;
  std::uint64_t seed_;
  Tracer* tracer_;
  exs::Simulation sim_;
  exs::spans::SpanCollector* spans_ = nullptr;
  exs::metrics::Registry engine_registry_;
  std::unique_ptr<exs::MuxGroup> groups_[2];
  std::unique_ptr<exs::engine::ProgressEngine> engine_;
  std::unique_ptr<exs::engine::Acceptor> acceptor_;
  exs::rpc::KvServer server_;
  std::vector<exs::Socket*> client_sockets_;
  std::vector<exs::Socket*> server_sockets_;
  std::vector<std::unique_ptr<exs::rpc::RpcClient>> clients_;
  std::vector<exs::loadgen::WorkloadGenerator> generators_;
  std::vector<Arrival> arrivals_;
  std::size_t next_arrival_ = 0;
  Window* current_ = nullptr;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  double connect_wall_us_ = 0.0;
};

/// How one offered rate fared against the service conditions.
struct Verdict {
  bool overloaded = false;  ///< calls failed, or a backlog grew
  bool meets = false;       ///< not overloaded and p99 within the limit
  double p99_us = 0.0;
};

Verdict Judge(const Window& w, SimDuration p99_limit) {
  Verdict v;
  v.p99_us = SummariseLatencies(w.latencies).p99_us;
  v.overloaded = w.failed != 0 || w.measured == 0 ||
                 static_cast<double>(w.answered_in_time) <
                     0.99 * static_cast<double>(w.measured);
  v.meets = !v.overloaded &&
            v.p99_us * 1e6 <= static_cast<double>(p99_limit);
  return v;
}

/// The highest rung meeting the service conditions.  The nominal window
/// is the first rung.  The climb stops at the first overloaded rung (every
/// rung above it is worse) or after two rungs in a row over the p99 limit;
/// a single rung over the limit below a passing one is tail noise.
double ProbeCapacity(Rig* rig, const Window& nominal) {
  const Shape& shape = rig->shape();
  Verdict v = Judge(nominal, shape.p99_limit);
  double capacity = v.meets ? shape.nominal_krps : 0.0;
  int over_limit = v.meets ? 0 : 1;
  for (std::size_t i = 0; !v.overloaded && over_limit < 2 &&
                          i < shape.ladder_krps.size();
       ++i) {
    const double krps = shape.ladder_krps[i];
    v = Judge(rig->Drive(krps, shape.warmup, shape.ladder_window, i + 1),
              shape.p99_limit);
    std::cerr << shape.name << " ladder " << krps << " kreq/s: p99 "
              << v.p99_us << " us" << (v.overloaded ? ", overloaded" : "")
              << (v.meets ? ", meets" : "") << "\n";
    over_limit = v.meets ? 0 : over_limit + 1;
    if (v.meets) capacity = krps;
  }
  return capacity;
}

RepResult RunRpc(const Shape& shape, const RepConfig& config) {
  RepResult res;
  Tracer* tracer = config.tracer;
  HostClock setup(config.calibrate);
  setup.Start();
  Rig rig(shape, config.seed, tracer, config.chunk_spans(), &setup);
  setup.Slice();
  res.setup_s = setup.seconds();

  HostClock run(config.calibrate);
  const Window nominal = rig.Drive(shape.nominal_krps, shape.warmup,
                                   shape.window, /*rung=*/0, &run);
  res.wall_s = run.seconds();
  res.calibration_s = run.calibration_s();
  res.attempted = nominal.attempted;
  res.failed = nominal.failed;
  rig.Report(nominal, &res.sim);
  EndToEnd& e = res.e2e;
  e.latencies = nominal.latencies;
  e.elapsed = nominal.elapsed;
  e.rx_busy = nominal.server_busy;
  e.tx_busy = nominal.client_busy;
  e.bytes = nominal.bytes;
  e.ops = nominal.latencies.size();
  if (config.probe_capacity) e.capacity_kops = ProbeCapacity(&rig, nominal);

  const std::int64_t check_start = WallNs();
  rig.Check(nominal, &res);
  if (tracer != nullptr) {
    res.host["checker.wall_s"] = SecondsSince(check_start);
    res.host["rpc.call_wall_ns"] = tracer->TotalOf("rpc.Call").MeanNs();
    res.host["loadgen.next_wall_ns"] = tracer->TotalOf("loadgen.Next").MeanNs();
    res.host["loadgen.ctor_wall_us"] =
        tracer->TotalOf("loadgen.WorkloadGenerator").MeanNs() / 1e3;
    if (!shape.muxed) res.host["engine.connect_wall_us"] = rig.connect_wall_us();
  }
  return res;
}

}  // namespace

RepResult RunRpcMux(const RepConfig& config) {
  return RunRpc(MuxShape(config.tiny), config);
}

RepResult RunRpcEngine(const RepConfig& config) {
  return RunRpc(EngineShape(config.tiny), config);
}

}  // namespace perfbench
