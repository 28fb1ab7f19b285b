#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/spans.hpp"
#include "exs/channel.hpp"
#include "exs/socket.hpp"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSimnet: return "simnet";
    case Layer::kVerbs: return "verbs";
    case Layer::kExs: return "exs";
    case Layer::kMux: return "mux";
    case Layer::kEngine: return "engine";
    case Layer::kRpc: return "rpc";
    case Layer::kLoadgen: return "loadgen";
    case Layer::kChecker: return "checker";
  }
  return "?";
}

std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Scope::Scope(Tracer* tracer, Layer layer, const char* name,
                     std::uint32_t client)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record r;
  r.layer = layer;
  r.name = name;
  r.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  r.client = client;
  index_ = static_cast<std::int32_t>(tracer_->records_.size());
  tracer_->open_.push_back(index_);
  r.start_ns = WallNs();
  tracer_->records_.push_back(r);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->records_[static_cast<std::size_t>(index_)].end_ns = WallNs();
  tracer_->open_.pop_back();
}

void Tracer::Scope::set_correlation_id(std::uint64_t id) {
  if (tracer_ == nullptr) return;
  tracer_->records_[static_cast<std::size_t>(index_)].correlation_id = id;
}

Tracer::Total Tracer::TotalOf(const char* name) const {
  Total t;
  const std::string wanted(name);
  for (const Record& r : records_) {
    if (wanted != r.name) continue;
    t.ns += static_cast<double>(r.end_ns - r.start_ns);
    ++t.count;
  }
  return t;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i != 0) out << ",\n";
    out << "{\"name\":\"" << r.name << "\",\"cat\":\"" << LayerName(r.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << static_cast<int>(r.layer) + 1
        << ",\"ts\":" << static_cast<double>(r.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent;
    if (r.client != kNoClient) {
      out << ",\"client\":" << r.client
          << ",\"correlation_id\":" << r.correlation_id;
    }
    out << "}}";
  }
  out << "]}\n";
  if (!out.good()) throw std::runtime_error("write failed: " + path);
}

// ---------------------------------------------------------------------------
// MergedHistogram

void MergedHistogram::Add(const exs::metrics::Histogram& h) {
  for (std::size_t b = 0; b < exs::metrics::Histogram::kBuckets; ++b) {
    buckets_[b] += h.buckets()[b];
  }
  count_ += h.count();
  max_ = std::max(max_, h.max());
}

void MergedHistogram::AddFrom(const exs::metrics::Registry& registry,
                              const std::string& name) {
  auto it = registry.histograms().find(name);
  if (it != registry.histograms().end()) Add(*it->second.instrument);
}

double MergedHistogram::Percentile(double p) const {
  using exs::metrics::Histogram;
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets_[b];
    if (static_cast<double>(cumulative) < rank) continue;
    const double lower = static_cast<double>(Histogram::BucketLowerBound(b));
    const double upper =
        b + 1 < Histogram::kBuckets
            ? static_cast<double>(Histogram::BucketLowerBound(b + 1))
            : lower * 2.0;
    return lower + (upper - lower) * (rank - before) /
                       static_cast<double>(buckets_[b]);
  }
  return static_cast<double>(max_);
}

// ---------------------------------------------------------------------------
// LayerSums

namespace {

std::uint64_t CounterOf(const exs::metrics::Registry& registry,
                        const std::string& name) {
  auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second.instrument->value();
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void LayerSums::AddSocket(const exs::Socket& socket) {
  const exs::metrics::Registry& r = socket.metrics_registry();
  // A dedicated socket's rail0.* mirrors its queue pair; a muxed socket
  // has none (its WRs are counted on the shared slot channels).
  wrs_posted_ += CounterOf(r, "rail0.sends_posted");
  payload_bytes_ += CounterOf(r, "rail0.payload_bytes_sent");
  completion_latency_.AddFrom(r, "rail0.completion_latency");
  direct_ += CounterOf(r, "tx.direct_transfers");
  indirect_ += CounterOf(r, "tx.indirect_transfers");
  mode_switches_ += CounterOf(r, "tx.mode_switches");
  adverts_received_ += CounterOf(r, "tx.adverts_received");
  adverts_discarded_ += CounterOf(r, "tx.adverts_discarded");
  copy_busy_ps_ += CounterOf(r, "rx.copy_busy_time");
  credit_messages_ += CounterOf(r, "channel.credit_messages_sent");
  parks_ += CounterOf(r, "mux.parks");
  hol_wait_.AddFrom(r, "mux.hol_wait");
}

void LayerSums::AddSharedChannel(const exs::ControlChannel& channel) {
  if (!channel.HasQueuePair()) return;
  wrs_posted_ += channel.qp_stats().sends_posted;
  payload_bytes_ += channel.qp_stats().payload_bytes_sent;
  credit_messages_ += channel.credit_messages_sent();
}

void LayerSums::Emit(exs::SimDuration elapsed,
                     std::map<std::string, double>* out) const {
  auto& m = *out;
  m["verbs.wrs_posted"] = static_cast<double>(wrs_posted_);
  m["verbs.bytes_per_wr"] = Ratio(payload_bytes_, wrs_posted_);
  m["verbs.completion_latency_p99_us"] =
      completion_latency_.Percentile(99) / 1e6;
  m["exs.direct_ratio"] = Ratio(direct_, direct_ + indirect_);
  m["exs.mode_switches"] = static_cast<double>(mode_switches_);
  m["exs.advert_discard_ratio"] = Ratio(adverts_discarded_, adverts_received_);
  m["exs.copy_busy_pct"] =
      elapsed <= 0 ? 0.0
                   : 100.0 * static_cast<double>(copy_busy_ps_) /
                         static_cast<double>(elapsed);
  m["exs.credit_messages"] = static_cast<double>(credit_messages_);
  m["mux.parks"] = static_cast<double>(parks_);
  m["mux.hol_wait_p99_us"] = hol_wait_.Percentile(99) / 1e6;
}

// ---------------------------------------------------------------------------

void FoldChunkSpans(const exs::spans::SpanCollector* collector,
                    std::map<std::string, double>* out) {
  exs::spans::LatencyReport report;
  if (collector != nullptr) report = collector->BuildReport();
  auto emit = [out](const std::string& name,
                    const exs::spans::StageStats& st) {
    (*out)["span." + name + "_p50_us"] = static_cast<double>(st.p50_ps) / 1e6;
    (*out)["span." + name + "_p99_us"] = static_cast<double>(st.p99_ps) / 1e6;
  };
  for (std::size_t s = 0; s < exs::spans::kStageCount; ++s) {
    emit(exs::spans::StageName(static_cast<exs::spans::Stage>(s)),
         report.stages[s]);
  }
  emit("end_to_end", report.end_to_end);
  (*out)["span.chunks"] = static_cast<double>(report.chunks_delivered);
}

LatencySummary SummariseLatencies(std::vector<exs::SimDuration> latencies) {
  LatencySummary s;
  const exs::spans::StageStats st = exs::spans::Summarise(&latencies);
  s.p50_us = static_cast<double>(st.p50_ps) / 1e6;
  s.p99_us = static_cast<double>(st.p99_ps) / 1e6;
  s.p999_us = static_cast<double>(st.p999_ps) / 1e6;
  s.count = st.count;
  return s;
}

namespace {

/// The calibration kernel's time on the reference host.
constexpr double kReferenceCalibrationS = 0.015;

/// Keeps the calibration kernel's result alive past the optimiser.
volatile std::uint64_t calibration_sink = 0;

/// Wall time of one run of the calibration kernel (see HostClock).
double CalibrationSeconds() {
  struct Record {
    std::int64_t when = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  using Ptr = std::shared_ptr<Record>;
  auto later = [](const Ptr& a, const Ptr& b) {
    return a->when != b->when ? a->when > b->when : a->seq > b->seq;
  };
  const std::int64_t start = WallNs();
  std::priority_queue<Ptr, std::vector<Ptr>, decltype(later)> queue(later);
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  exs::SplitMix64 rng(0x63616c6962726174ULL);
  std::uint64_t acc = 0;
  std::uint64_t seq = 0;
  auto push = [&](std::int64_t when, std::uint64_t key) {
    auto r = std::make_shared<Record>();
    r->when = when;
    r->seq = seq++;
    r->fn = [&acc, key] { acc += key; };
    queue.push(std::move(r));
  };
  for (std::uint64_t i = 0; i < 4096; ++i) {
    push(static_cast<std::int64_t>(rng.Next() % 100000), i);
  }
  for (int step = 0; step < 50000; ++step) {
    Ptr r = queue.top();
    queue.pop();
    r->fn();
    const std::uint64_t key = rng.Next() % 65536;
    table[key] += acc;
    acc ^= table.size();
    push(r->when + static_cast<std::int64_t>(rng.Next() % 1000), key);
  }
  calibration_sink = acc;
  return SecondsSince(start);
}

}  // namespace

void HostClock::Start() { start_ns_ = WallNs(); }

void HostClock::Slice() {
  const double wall = SecondsSince(start_ns_);
  if (calibrate_) {
    const double calibration = CalibrationSeconds();
    seconds_ += wall / calibration * kReferenceCalibrationS;
    last_calibration_ = calibration;
    calibration_sum_ += calibration;
    ++slices_;
  } else {
    seconds_ += wall;
  }
  start_ns_ = WallNs();
}

double HostClock::Scale(double raw) const {
  return last_calibration_ == 0.0
             ? raw
             : raw / last_calibration_ * kReferenceCalibrationS;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
