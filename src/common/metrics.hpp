// Metrics instruments for a discrete-event simulation.
//
// Instruments live in the object they measure: the protocol's hot paths
// record into them directly, with no name lookup per event.  A Registry is
// the name index over them — owners bind their instruments under static
// names, and it creates (and owns) only those first asked for by name —
// and renders deterministic JSON/CSV snapshots from that index.
// Everything is keyed on simulated time: the histograms bucket picosecond
// latencies, and the time-series sampler weights values by the sim-time
// they were held, which is the only averaging that makes sense under a
// discrete-event clock (a value held for 1 ms must count 10^6 times more
// than one held 1 ns).
//
// Determinism matters more than fidelity here: identical seeded runs must
// produce bit-identical snapshots, so sample retention uses a fixed
// capacity with deterministic stride doubling, never wall-clock or
// reservoir randomness.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_clock.hpp"
#include "common/units.hpp"

namespace exs::metrics {

/// Monotonically increasing event count (messages, bytes, switches).
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(std::uint64_t n) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (phase number, queue depth).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed histogram for latencies and sizes.  Bucket 0 holds the
/// value 0; bucket b >= 1 holds values in [2^(b-1), 2^b).  64 buckets
/// cover the full uint64 range, so Record never clips.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void Record(std::uint64_t v);
  /// Fold `other`'s recordings into this histogram: buckets, count, sum,
  /// min and max end as if this one had recorded both inputs.
  void Merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value below which `p` percent of recordings fall, interpolated
  /// linearly inside the containing bucket.  p in [0, 100].
  double Percentile(double p) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  static std::size_t BucketIndex(std::uint64_t v);
  /// Smallest value the bucket counts.
  static std::uint64_t BucketLowerBound(std::size_t bucket);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Piecewise-constant value tracked against the simulated clock: Record()
/// states "the value is v from sim-time t onward".  The integral of the
/// step function gives exact time-weighted averages regardless of how many
/// samples are retained for plotting.
class TimeWeightedSeries {
 public:
  struct Sample {
    SimTime time = 0;
    double value = 0.0;
  };

  /// Retained-sample capacity; when reached, every other sample is dropped
  /// and the minimum retention stride doubles (deterministic decimation).
  static constexpr std::size_t kMaxSamples = 2048;

  void Record(SimTime now, double value);

  /// Time-weighted mean over [first Record, now].  Zero before any Record.
  double Average(SimTime now) const;
  double last() const { return last_value_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  std::uint64_t count() const { return count_; }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  bool started_ = false;
  SimTime start_ = 0;
  SimTime last_time_ = 0;
  double last_value_ = 0.0;
  double integral_ = 0.0;  ///< of value dt since start_
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
  std::vector<Sample> samples_;
  SimDuration sample_stride_ = 0;
};

/// Name index over instruments.  An owner that holds its instruments (a
/// socket) names them with Bind(); Get* creates an instrument the registry
/// itself owns on first use and returns the same one afterwards — the
/// bound one when the name is bound.  Each kind is a name-sorted table,
/// so snapshots iterate in name order and output is stable across runs.
///
/// Lifetime rule: a bound instrument must stay at its address for as long
/// as the registry is read, so owners that bind do not move.  Owned
/// instruments live in heap storage of their own and never move either.
class Registry {
 public:
  template <typename T>
  struct Named {
    std::string_view unit;
    T* instrument = nullptr;
  };

  /// One kind's read-only index, iterated as [name, named] pairs in name
  /// order.  Lookups behave like std::map's: at() throws std::out_of_range
  /// for an unknown name.
  template <typename T>
  class Table {
   public:
    using value_type = std::pair<std::string_view, Named<T>>;
    using const_iterator = typename std::vector<value_type>::const_iterator;

    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }
    std::size_t size() const { return entries_.size(); }
    const_iterator find(std::string_view name) const;
    std::size_t count(std::string_view name) const {
      return find(name) == end() ? 0 : 1;
    }
    const Named<T>& at(std::string_view name) const;

   private:
    friend class Registry;
    /// An instrument created by Get*, with the name and unit it answers to.
    struct Owned {
      std::string name;
      std::string unit;
      T instrument;
    };

    T& Get(std::string_view name, std::string_view unit);
    void Bind(std::string_view name, std::string_view unit, T& instrument);

    std::vector<value_type> entries_;  ///< sorted by name
    std::vector<std::unique_ptr<Owned>> owned_;
  };

  Counter& GetCounter(std::string_view name, std::string_view unit = "");
  Gauge& GetGauge(std::string_view name, std::string_view unit = "");
  Histogram& GetHistogram(std::string_view name, std::string_view unit = "");
  TimeWeightedSeries& GetSeries(std::string_view name,
                                std::string_view unit = "");

  /// Name an instrument owned elsewhere.  `name` and `unit` must have
  /// static storage; binding a name already present is a programming
  /// error.
  void Bind(std::string_view name, std::string_view unit, Counter& counter) {
    counters_.Bind(name, unit, counter);
  }
  void Bind(std::string_view name, std::string_view unit, Gauge& gauge) {
    gauges_.Bind(name, unit, gauge);
  }
  void Bind(std::string_view name, std::string_view unit,
            Histogram& histogram) {
    histograms_.Bind(name, unit, histogram);
  }
  void Bind(std::string_view name, std::string_view unit,
            TimeWeightedSeries& series) {
    series_.Bind(name, unit, series);
  }

  /// Room for this many more entries of each kind, so an owner that binds
  /// a known set grows each table once.
  void Reserve(std::size_t counters, std::size_t gauges,
               std::size_t histograms, std::size_t series);

  const Table<Counter>& counters() const { return counters_; }
  const Table<Gauge>& gauges() const { return gauges_; }
  const Table<Histogram>& histograms() const { return histograms_; }
  const Table<TimeWeightedSeries>& series() const { return series_; }

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...},
  /// "series":{...}}.  `now` closes the open interval of every series.
  std::string ToJson(SimTime now) const;

  /// Flat rows "name,kind,unit,field,value" (one row per scalar).
  std::string ToCsv(SimTime now) const;

 private:
  Table<Counter> counters_;
  Table<Gauge> gauges_;
  Table<Histogram> histograms_;
  Table<TimeWeightedSeries> series_;
};

/// Deterministic JSON number rendering shared by the exporters: integral
/// values print without a fraction, everything else with enough digits to
/// round-trip.
std::string FormatJsonNumber(double v);
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace exs::metrics
