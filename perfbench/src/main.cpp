// The benchmark program: runs one named workload for a given seed, repeats
// it for the requested wall time, checks every repetition, and prints the
// metrics as one JSON object on the last line of standard output.
//
//   perfbench --workload stream_bulk|rpc_mux|rpc_engine --seed N
//             --seconds S --trace 0|1 [--spans-out FILE] [--tiny]
//             [--sim-json]
//
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves untraced
// and traced repetitions and prints the per-layer metrics, writing the
// bench-side spans of the first traced repetition to --spans-out.
// --tiny shrinks every workload for the determinism test, and --sim-json
// adds one line with every simulated metric of the run.
//
// Simulated metrics are exact for a seed: every repetition must reproduce
// those of its sub-seed bit for bit (traced or not), or the run is reported
// incorrect.  Host metrics depend on the machine; wall_s and setup_s are
// calibrated against a fixed kernel timed beside the measured code (see
// HostClock and perfbench/README.md).
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// End-to-end metrics, printed with --trace 0 on every workload.
const MetricDef kEndToEnd[] = {
    {"goodput_gbps", "Gb/s", "higher"},
    {"rx_cpu_pct", "%", "lower"},
    {"tx_cpu_pct", "%", "lower"},
    {"op_p50_us", "us", "lower"},
    {"op_p99_us", "us", "lower"},
    {"capacity_kops", "kop/s", "higher"},
    {"wall_s", "s", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

// Per-layer metrics, printed with --trace 1 on every workload (0 where a
// layer does no work on that workload).
const MetricDef kPerLayer[] = {
    {"op_p999_us", "us", "lower"},
    {"op_samples", "count", "higher"},
    {"simnet.events", "count", "lower"},
    {"simnet.ns_per_event", "ns", "lower"},
    {"simnet.server_cpu_busy_pct", "%", "lower"},
    {"simnet.client_cpu_busy_pct", "%", "lower"},
    {"verbs.wrs_posted", "count", "lower"},
    {"verbs.bytes_per_wr", "B", "higher"},
    {"verbs.completion_latency_p99_us", "us", "lower"},
    {"verbs.qps_created", "count", "lower"},
    {"exs.direct_ratio", "ratio", "higher"},
    {"exs.mode_switches", "count", "lower"},
    {"exs.advert_discard_ratio", "ratio", "lower"},
    {"exs.copy_busy_pct", "%", "lower"},
    {"exs.credit_messages", "count", "lower"},
    {"span.tx_staging_p50_us", "us", "lower"},
    {"span.tx_staging_p99_us", "us", "lower"},
    {"span.tx_queue_p50_us", "us", "lower"},
    {"span.tx_queue_p99_us", "us", "lower"},
    {"span.wire_p50_us", "us", "lower"},
    {"span.wire_p99_us", "us", "lower"},
    {"span.rx_reorder_p50_us", "us", "lower"},
    {"span.rx_reorder_p99_us", "us", "lower"},
    {"span.rx_ring_p50_us", "us", "lower"},
    {"span.rx_ring_p99_us", "us", "lower"},
    {"span.rx_copy_p50_us", "us", "lower"},
    {"span.rx_copy_p99_us", "us", "lower"},
    {"span.rx_deliver_p50_us", "us", "lower"},
    {"span.rx_deliver_p99_us", "us", "lower"},
    {"span.end_to_end_p50_us", "us", "lower"},
    {"span.end_to_end_p99_us", "us", "lower"},
    {"span.chunks", "count", "higher"},
    {"mux.parks", "count", "lower"},
    {"mux.hol_wait_p99_us", "us", "lower"},
    {"engine.events_per_tick", "events", "higher"},
    {"engine.sched_delay_p99_us", "us", "lower"},
    {"engine.ready_depth_max", "sockets", "lower"},
    {"engine.admission_refusals", "count", "lower"},
    {"engine.connect_wall_us", "us", "lower"},
    {"rpc.issued", "count", "higher"},
    {"rpc.answered", "count", "higher"},
    {"rpc.timed_out", "count", "lower"},
    {"rpc.refused", "count", "lower"},
    {"rpc.shed_local", "count", "lower"},
    {"rpc.stale", "count", "lower"},
    {"rpc.fail_ratio", "ratio", "lower"},
    {"kv.slab_refusals", "count", "lower"},
    {"rpc.call_wall_ns", "ns", "lower"},
    {"loadgen.ctor_wall_us", "us", "lower"},
    {"loadgen.next_wall_ns", "ns", "lower"},
    {"loadgen.offered_krps", "kreq/s", "higher"},
    {"checker.wall_s", "s", "lower"},
    {"trace.overhead_pct", "%", "lower"},
    {"bench.calibration_ms", "ms", "lower"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool sim_json = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload stream_bulk|rpc_mux|rpc_engine "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE] [--tiny] "
               "[--sim-json]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (flag == "--spans-out") {
        a.spans_out = value();
      } else if (flag == "--tiny") {
        a.tiny = true;
      } else if (flag == "--sim-json") {
        a.sim_json = true;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

/// A workload and how an untraced run repeats it.  Repetition i runs
/// sub-seed i while i < pooled, then cycles through sub-seeds 0 .. timed-1.
struct Workload {
  const char* name;
  RepResult (*run)(const RepConfig&);
  /// Sub-seeds pooled into the simulated end-to-end sample.  stream_bulk
  /// needs many: each blast locks into indirect mode at a random point,
  /// so its receiver CPU ranges from 10 % to 100 % between seeds.
  std::uint32_t pooled;
  /// Sub-seeds whose repeated repetitions time the host clock.
  std::uint32_t timed;
};

constexpr Workload kWorkloads[] = {
    {"stream_bulk", RunStreamBulk, 192, 64},
    {"rpc_mux", RunRpcMux, 4, 4},
    {"rpc_engine", RunRpcEngine, 4, 4},
};

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  Usage("unknown workload " + name);
}

/// Seed of sub-seed `sub` of a run: sub-seed 0 is the run's own seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint32_t sub) {
  return sub == 0 ? seed
                  : exs::SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * sub)).Next();
}

/// Repeats the workload and checks every repetition against the first one
/// that used the same sub-seed.
class Runner {
 public:
  Runner(const Workload& workload, const Args& args)
      : workload_(workload), args_(args) {}

  /// One repetition.  `pooled` keeps its end-to-end sample for
  /// PooledEndToEnd; the samples of other repetitions are dropped so
  /// memory does not grow with their number.  `timed` calibrates its host
  /// clocks; only timed repetitions count for the host times.
  void Run(bool traced, bool probe_capacity, std::uint32_t sub, bool pooled,
           bool timed) {
    Tracer tracer;
    RepConfig config;
    config.seed = SubSeed(args_.seed, sub);
    config.tiny = args_.tiny;
    config.probe_capacity = probe_capacity;
    config.calibrate = timed;
    config.tracer = traced ? &tracer : nullptr;
    reps_.push_back(workload_.run(config));
    traced_.push_back(traced);
    sub_.push_back(sub);
    RepResult& rep = reps_.back();
    if (!pooled) rep.e2e.latencies = {};
    // Hand freed memory back, so the peak RSS of later repetitions does
    // not depend on how fragmented the earlier ones left the heap.
    malloc_trim(0);
    std::cerr << "repetition " << reps_.size() - 1
              << (traced ? " (traced)" : "") << " sub-seed " << sub
              << ": setup " << rep.setup_s << " s, measured " << rep.wall_s
              << " s, calibration " << rep.calibration_s << " s\n";
    attempted_ += rep.attempted;
    failed_ += rep.failed;
    for (const std::string& v : rep.violations) Violation(v);
    if (traced && !spans_written_ && !args_.spans_out.empty()) {
      tracer.WriteChromeTrace(args_.spans_out);
      spans_written_ = true;
    }
    // Simulated numbers are exact per seed: a repetition must agree with
    // the first one of its sub-seed on every metric both computed.
    std::size_t first = 0;
    while (sub_[first] != sub) ++first;
    for (const auto& [name, value] : rep.sim) {
      auto it = reps_[first].sim.find(name);
      if (it == reps_[first].sim.end()) continue;
      if (std::memcmp(&it->second, &value, sizeof value) != 0) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "repetition " << reps_.size() - 1 << " changed simulated "
            << name << ": " << it->second << " -> " << value;
        Violation(msg.str());
      }
    }
  }

  /// Host wall time of the measured section: the median over the timed
  /// repetitions of each sub-seed 0 .. timed-1 (HostClock seconds,
  /// calibrated), averaged over those sub-seeds, which evens out how much
  /// work each seed happens to make.  The first repetition warms caches
  /// and the allocator (and runs the capacity probe), so it counts only
  /// when nothing else does.
  double WallSeconds(bool traced, std::uint32_t timed) const {
    double sum = 0.0;
    std::uint32_t n = 0;
    for (std::uint32_t sub = 0; sub < timed; ++sub) {
      std::vector<double> v;
      for (std::size_t i = 1; i < reps_.size(); ++i) {
        if (traced_[i] == traced && sub_[i] == sub &&
            reps_[i].calibration_s != 0) {
          v.push_back(reps_[i].wall_s);
        }
      }
      if (v.empty()) continue;
      sum += Median(v);
      ++n;
    }
    return n != 0 ? sum / n : reps_.front().wall_s;
  }
  /// Median calibrated set-up time of the timed repetitions but the first.
  double SetupSeconds() const {
    std::vector<double> v;
    for (std::size_t i = 1; i < reps_.size(); ++i) {
      if (reps_[i].calibration_s != 0) v.push_back(reps_[i].setup_s);
    }
    return v.empty() ? reps_.front().setup_s : Median(v);
  }
  double CalibrationMs() const {
    std::vector<double> v;
    for (const RepResult& r : reps_) {
      if (r.calibration_s != 0) v.push_back(r.calibration_s);
    }
    return Median(v) * 1e3;
  }
  double MedianHost(const std::string& name) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < reps_.size(); ++i) {
      auto it = reps_[i].host.find(name);
      if (traced_[i] && it != reps_[i].host.end()) v.push_back(it->second);
    }
    return Median(v);
  }
  /// Simulated metric of the first repetition that computed it.
  double Sim(const std::string& name) const {
    for (const RepResult& r : reps_) {
      auto it = r.sim.find(name);
      if (it != r.sim.end()) return it->second;
    }
    return 0.0;
  }
  std::map<std::string, double> AllSim() const {
    std::map<std::string, double> all;
    for (const RepResult& r : reps_) all.insert(r.sim.begin(), r.sim.end());
    return all;
  }

  /// The simulated end-to-end metrics, pooled over the first repetition
  /// of each of the sub-seeds 0 .. subs-1.
  /// Call once, after those repetitions: it releases their samples.
  std::map<std::string, double> PooledEndToEnd(std::uint32_t subs) {
    std::size_t total = 0;
    for (std::uint32_t sub = 0; sub < subs; ++sub) {
      total += reps_[sub].e2e.latencies.size();
    }
    std::vector<exs::SimDuration> latencies;
    latencies.reserve(total);
    exs::SimDuration elapsed = 0, rx_busy = 0, tx_busy = 0;
    std::uint64_t bytes = 0, ops = 0;
    std::vector<double> capacities;
    for (std::uint32_t sub = 0; sub < subs; ++sub) {
      const EndToEnd& e = reps_[sub].e2e;
      latencies.insert(latencies.end(), e.latencies.begin(),
                       e.latencies.end());
      reps_[sub].e2e.latencies = {};
      elapsed += e.elapsed;
      rx_busy += e.rx_busy;
      tx_busy += e.tx_busy;
      bytes += e.bytes;
      ops += e.ops;
      if (e.capacity_kops != 0.0) capacities.push_back(e.capacity_kops);
    }
    const LatencySummary lat = SummariseLatencies(std::move(latencies));
    latency_samples_ = lat.count;
    const double seconds = exs::ToSeconds(elapsed);
    std::map<std::string, double> m;
    m["goodput_gbps"] = static_cast<double>(bytes) * 8.0 / seconds / 1e9;
    m["rx_cpu_pct"] = 100.0 * exs::ToSeconds(rx_busy) / seconds;
    m["tx_cpu_pct"] = 100.0 * exs::ToSeconds(tx_busy) / seconds;
    m["op_p50_us"] = lat.p50_us;
    m["op_p99_us"] = lat.p99_us;
    m["capacity_kops"] = capacities.empty()
                             ? static_cast<double>(ops) / seconds / 1e3
                             : Median(capacities);
    return m;
  }

  void Violation(const std::string& v) {
    std::cerr << "CHECK FAILED: " << v << "\n";
    correct_ = false;
  }

  std::size_t reps() const { return reps_.size(); }
  std::uint64_t latency_samples() const { return latency_samples_; }
  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const Workload& workload_;
  Args args_;
  std::vector<RepResult> reps_;
  std::vector<bool> traced_;
  std::vector<std::uint32_t> sub_;
  bool correct_ = true;
  bool spans_written_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t latency_samples_ = 0;
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Emit(const MetricDef* defs, std::size_t n,
          const std::map<std::string, double>& values, Runner* runner) {
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (std::size_t i = 0; i < n; ++i) {
    const MetricDef& d = defs[i];
    auto it = values.find(d.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      runner->Violation(std::string(d.name) + " is not finite");
      v = 0.0;
    }
    std::cout << "  " << d.name << " = " << Number(v) << " " << d.unit
              << "  (" << d.better << " is better)";
    if (std::string(d.name).rfind("op_p", 0) == 0 &&
        runner->latency_samples() != 0) {
      std::cout << "  n=" << runner->latency_samples();
    }
    std::cout << "\n";
    if (i != 0) metrics += ", ";
    metrics += "\"" + std::string(d.name) + "\": {\"value\": " + Number(v) +
               ", \"unit\": \"" + d.unit + "\"}";
  }
  json += runner->correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(runner->attempted()) +
          ", \"failed\": " + std::to_string(runner->failed()) +
          ", \"metrics\": {" + metrics + "}}";
  std::cout << json << std::endl;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& workload = FindWorkload(args.workload);
  Runner runner(workload, args);
  const std::uint32_t pooled = args.tiny ? 2 : workload.pooled;
  const std::uint32_t timed = args.tiny ? 2 : workload.timed;
  const std::size_t min_reps = args.trace ? 3 : pooled;
  const std::int64_t start = WallNs();
  auto more = [&] {
    return runner.reps() < min_reps || SecondsSince(start) < args.seconds;
  };

  std::map<std::string, double> out;
  if (!args.trace) {
    for (std::uint32_t i = 0; i == 0 || more(); ++i) {
      const std::uint32_t sub = i < pooled ? i : (i - pooled) % timed;
      runner.Run(/*traced=*/false, /*probe_capacity=*/i == 0, sub,
                 /*pooled=*/i < pooled, /*timed=*/sub < timed);
      if (i + 1 == pooled) out = runner.PooledEndToEnd(pooled);
      // The capacity probe of the first repetition drives more calls than
      // the workload itself; leave its memory out of the peak.
      if (i == 0) ResetPeakRss();
    }
    out["wall_s"] = runner.WallSeconds(false, timed);
    out["setup_s"] = runner.SetupSeconds();
    out["peak_rss_mb"] = PeakRssMb();
  } else {
    // Traced runs repeat sub-seed 0, alternating untraced and traced
    // repetitions so machine drift hits both sides of the overhead ratio
    // alike.
    bool traced = false;
    runner.Run(traced, false, 0, false, true);
    while (more()) {
      traced = !traced;
      runner.Run(traced, false, 0, false, true);
    }
    for (const MetricDef& d : kPerLayer) {
      out[d.name] = runner.Sim(d.name);
      const double host = runner.MedianHost(d.name);
      if (host != 0.0) out[d.name] = host;
    }
    const double untraced_wall = runner.WallSeconds(false, 1);
    const double traced_wall = runner.WallSeconds(true, 1);
    const double events = runner.Sim("simnet.events");
    out["simnet.ns_per_event"] = events == 0 ? 0 : untraced_wall * 1e9 / events;
    out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0);
    out["bench.calibration_ms"] = runner.CalibrationMs();
  }

  std::cout << args.workload << " seed=" << args.seed
            << " repetitions=" << runner.reps() << "\n";
  if (args.sim_json) {
    std::string line = "{";
    bool first = true;
    for (const auto& [name, value] : runner.AllSim()) {
      line += (first ? "\"" : ", \"") + name + "\": " + Number(value);
      first = false;
    }
    std::cout << line << "}\n";
  }
  if (args.trace) {
    Emit(kPerLayer, std::size(kPerLayer), out, &runner);
  } else {
    Emit(kEndToEnd, std::size(kEndToEnd), out, &runner);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
