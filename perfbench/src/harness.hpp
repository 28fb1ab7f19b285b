// Shared plumbing of the benchmark program: the host wall clock, the
// bench-side span recorder used by traced runs, the result record every
// workload returns, and a few summaries over the simulator's own counters.
//
// The benchmark measures the simulator from outside.  Simulated-time
// numbers come from counters the modules already expose; host wall time
// comes from steady_clock readings taken around calls into each module's
// public functions.  Nothing here changes what the simulator does.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"

namespace exs {
class ControlChannel;
class Socket;
namespace spans {
class SpanCollector;
}
}  // namespace exs

namespace perfbench {

/// The repository's modules, as the benchmark names its layers.
enum class Layer : std::uint8_t {
  kSimnet,
  kVerbs,
  kExs,
  kMux,
  kEngine,
  kRpc,
  kLoadgen,
  kChecker,
};
const char* LayerName(Layer layer);

/// Host wall time in nanoseconds since an arbitrary fixed origin.
std::int64_t WallNs();

/// Seconds of host wall time since `start_ns`.
inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(WallNs() - start_ns) / 1e9;
}

/// Bench-side spans around the calls the benchmark makes into each layer.
/// A null Tracer* means an untraced run: a Scope then records nothing and
/// costs one branch.
class Tracer {
 public:
  static constexpr std::uint32_t kNoClient = 0xffffffffu;

  struct Record {
    Layer layer = Layer::kSimnet;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top
    std::uint32_t client = kNoClient;
    std::uint64_t correlation_id = 0;
  };

  /// RAII scope: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, const char* name,
          std::uint32_t client = kNoClient);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attach the RPC correlation id once the call has returned it.
    void set_correlation_id(std::uint64_t id);

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  /// Summed duration and count of every span named `name`.
  struct Total {
    double ns = 0.0;
    std::uint64_t count = 0;
    double MeanNs() const {
      return count == 0 ? 0.0 : ns / static_cast<double>(count);
    }
  };
  Total TotalOf(const char* name) const;

  /// Chrome trace-event JSON (open in Perfetto): one complete slice per
  /// span on one track per layer, with parent and (client, correlation id)
  /// in the args.
  void WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
};

/// The simulated record of one repetition's measured section, from which
/// main.cpp computes the end-to-end metrics.  Records of several
/// repetitions (one per sub-seed) pool into one sample.
struct EndToEnd {
  std::vector<exs::SimDuration> latencies;  ///< one per completed operation
  exs::SimDuration elapsed = 0;  ///< simulated length of the section
  exs::SimDuration rx_busy = 0;  ///< receiver (server) CPU busy time
  exs::SimDuration tx_busy = 0;  ///< sender (client) CPU busy time
  std::uint64_t bytes = 0;       ///< user bytes delivered
  std::uint64_t ops = 0;         ///< operations completed
  /// Highest sustainable operation rate, when this repetition probed it
  /// (0 otherwise).  Without a probe, the pooled completion rate stands in
  /// for it: a closed loop runs at its capacity by construction.
  double capacity_kops = 0.0;
};

/// What one repetition of a workload returns.  `sim` holds every number
/// read off the simulated clock or the simulator's counters: for a fixed
/// seed these are exact, so every repetition of a run with the same seed
/// must reproduce them bit for bit.  `host` holds per-layer wall-clock
/// numbers (traced runs).
struct RepResult {
  double setup_s = 0.0;  ///< topology, connections, generators (HostClock)
  double wall_s = 0.0;   ///< the measured section (HostClock)
  double calibration_s = 0.0;  ///< mean calibration kernel time, 0 if none
  EndToEnd e2e;
  std::map<std::string, double> sim;
  std::map<std::string, double> host;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
};

/// What main.cpp asks of one repetition.
struct RepConfig {
  std::uint64_t seed = 1;
  bool tiny = false;           ///< determinism-test size
  bool probe_capacity = false;  ///< run the offered-rate ladder as well
  bool calibrate = false;       ///< calibrate the host clocks
  Tracer* tracer = nullptr;     ///< non-null in traced repetitions
  /// Traced repetitions also attach the simulator's chunk SpanCollector.
  bool chunk_spans() const { return tracer != nullptr; }
};

/// Percentile (0-100) over log2 buckets merged from several histograms,
/// interpolated the way metrics::Histogram::Percentile does.
class MergedHistogram {
 public:
  void Add(const exs::metrics::Histogram& h);
  /// Add the named histogram of `registry` when it exists.
  void AddFrom(const exs::metrics::Registry& registry, const std::string& name);
  double Percentile(double p) const;

 private:
  std::uint64_t buckets_[exs::metrics::Histogram::kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// The verbs, exs and mux counters of a run, summed over its sockets and
/// shared queue pairs, and emitted as the verbs.*, exs.* and mux.*
/// per-layer metrics.
class LayerSums {
 public:
  /// A socket's registry: its stream halves, and its dedicated queue pair
  /// when it has one.
  void AddSocket(const exs::Socket& socket);
  /// A queue pair shared by many streams (a mux slot channel).
  void AddSharedChannel(const exs::ControlChannel& channel);
  /// `elapsed` is the simulated length of the measured section.
  void Emit(exs::SimDuration elapsed, std::map<std::string, double>* out) const;

 private:
  std::uint64_t wrs_posted_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t direct_ = 0;
  std::uint64_t indirect_ = 0;
  std::uint64_t mode_switches_ = 0;
  std::uint64_t adverts_received_ = 0;
  std::uint64_t adverts_discarded_ = 0;
  std::uint64_t copy_busy_ps_ = 0;
  std::uint64_t credit_messages_ = 0;
  std::uint64_t parks_ = 0;
  MergedHistogram completion_latency_;
  MergedHistogram hol_wait_;
};

/// span.<stage>_p50_us / _p99_us for the seven chunk stages and the end
/// to end, from the simulator's chunk span collector (null: all zero).
void FoldChunkSpans(const exs::spans::SpanCollector* collector,
                    std::map<std::string, double>* out);

/// Nearest-rank percentiles of simulated latencies, in microseconds.
struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t count = 0;
};
LatencySummary SummariseLatencies(std::vector<exs::SimDuration> latencies);

/// Host time of a measured section, calibrated slice by slice.  The owner
/// calls Start() where the section begins and Slice() where it ends and,
/// for a long section, every so often within it.  After each slice a fixed
/// calibration kernel runs: a discrete-event loop shaped like the
/// simulator's hot path (a heap of shared records holding std::function
/// callbacks, and a hash map) with no code from the simulator itself.  The
/// slice's wall time is divided by the kernel's and multiplied by the
/// kernel's time on the reference host (a 4-vCPU Intel Xeon virtual
/// machine), which cancels the host's speed during that slice.  An
/// uncalibrated clock only sums the slices.
class HostClock {
 public:
  explicit HostClock(bool calibrate) : calibrate_(calibrate) {}
  void Start();
  void Slice();
  /// Seconds on the reference host (raw seconds when not calibrating).
  double seconds() const { return seconds_; }
  /// `raw` seconds measured just before this clock's last slice, put on
  /// the reference host with that slice's calibration: for sections too
  /// short to be worth a kernel run of their own.
  double Scale(double raw) const;
  /// Mean calibration kernel time of the slices (0 when not calibrating).
  double calibration_s() const {
    return slices_ == 0 ? 0.0 : calibration_sum_ / slices_;
  }

 private:
  bool calibrate_;
  std::int64_t start_ns_ = 0;
  double seconds_ = 0.0;
  double last_calibration_ = 0.0;
  double calibration_sum_ = 0.0;
  int slices_ = 0;
};

/// Peak resident set size of this process, in MiB, since the start or
/// the last ResetPeakRss().
double PeakRssMb();

/// Restart the peak resident set size from the current size (Linux
/// /proc/self/clear_refs); a no-op where that file cannot be written.
void ResetPeakRss();

double Median(std::vector<double> values);

}  // namespace perfbench
