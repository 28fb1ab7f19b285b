#include "common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/check.hpp"

namespace exs::metrics {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::size_t Histogram::BucketIndex(std::uint64_t v) {
  if (v == 0) return 0;
  return static_cast<std::size_t>(std::bit_width(v));
}

std::uint64_t Histogram::BucketLowerBound(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

void Histogram::Record(std::uint64_t v) {
  ++buckets_[BucketIndex(v)];
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++count_;
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max_);
  double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    double before = static_cast<double>(cumulative);
    cumulative += buckets_[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate inside [lower, upper) by the fraction of the bucket's
    // population below the rank.
    double lower = static_cast<double>(BucketLowerBound(b));
    double upper = b + 1 < kBuckets
                       ? static_cast<double>(BucketLowerBound(b + 1))
                       : lower * 2.0;
    double fraction =
        (rank - before) / static_cast<double>(buckets_[b]);
    return lower + (upper - lower) * fraction;
  }
  return static_cast<double>(max_);
}

// ---------------------------------------------------------------------------
// TimeWeightedSeries
// ---------------------------------------------------------------------------

void TimeWeightedSeries::Record(SimTime now, double value) {
  if (!started_) {
    started_ = true;
    start_ = now;
    min_ = max_ = value;
  } else {
    integral_ += last_value_ * static_cast<double>(now - last_time_);
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  last_time_ = now;
  last_value_ = value;
  ++count_;

  if (!samples_.empty() && samples_.back().time == now) {
    samples_.back().value = value;  // keep the value the instant settled on
    return;
  }
  if (!samples_.empty() &&
      now - samples_.back().time < sample_stride_) {
    return;
  }
  samples_.push_back(Sample{now, value});
  if (samples_.size() >= kMaxSamples) {
    // Halve resolution: keep every other sample and require twice the
    // spacing from here on.  Deterministic, and the exact integral above
    // is unaffected.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2) {
      samples_[kept++] = samples_[i];
    }
    samples_.resize(kept);
    SimDuration span = samples_.back().time - samples_.front().time;
    SimDuration derived = span * 2 / static_cast<SimDuration>(kMaxSamples);
    sample_stride_ = std::max<SimDuration>(
        {SimDuration{1}, sample_stride_ * 2, derived});
  }
}

double TimeWeightedSeries::Average(SimTime now) const {
  if (!started_) return 0.0;
  SimDuration span = now - start_;
  if (span <= 0) return last_value_;
  double integral =
      integral_ + last_value_ * static_cast<double>(now - last_time_);
  return integral / static_cast<double>(span);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

/// First entry whose name is not less than `name`.
template <typename Entries>
auto LowerBound(Entries& entries, std::string_view name) {
  return std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
}

}  // namespace

template <typename T>
typename Registry::Table<T>::const_iterator Registry::Table<T>::find(
    std::string_view name) const {
  auto it = LowerBound(entries_, name);
  return it != entries_.end() && it->first == name ? it : entries_.end();
}

template <typename T>
const Registry::Named<T>& Registry::Table<T>::at(std::string_view name) const {
  auto it = find(name);
  if (it == end()) {
    throw std::out_of_range("no metric named " + std::string(name));
  }
  return it->second;
}

template <typename T>
T& Registry::Table<T>::Get(std::string_view name, std::string_view unit) {
  auto it = LowerBound(entries_, name);
  if (it != entries_.end() && it->first == name) return *it->second.instrument;
  Owned& o = *owned_.emplace_back(std::make_unique<Owned>());
  o.name = name;
  o.unit = unit;
  entries_.insert(it, value_type{o.name, Named<T>{o.unit, &o.instrument}});
  return o.instrument;
}

template <typename T>
void Registry::Table<T>::Bind(std::string_view name, std::string_view unit,
                              T& instrument) {
  auto it = LowerBound(entries_, name);
  EXS_CHECK_MSG(it == entries_.end() || it->first != name,
                "metric " << name << " is already registered");
  entries_.insert(it, value_type{name, Named<T>{unit, &instrument}});
}

template class Registry::Table<Counter>;
template class Registry::Table<Gauge>;
template class Registry::Table<Histogram>;
template class Registry::Table<TimeWeightedSeries>;

Counter& Registry::GetCounter(std::string_view name, std::string_view unit) {
  return counters_.Get(name, unit);
}

Gauge& Registry::GetGauge(std::string_view name, std::string_view unit) {
  return gauges_.Get(name, unit);
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::string_view unit) {
  return histograms_.Get(name, unit);
}

TimeWeightedSeries& Registry::GetSeries(std::string_view name,
                                        std::string_view unit) {
  return series_.Get(name, unit);
}

void Registry::Reserve(std::size_t counters, std::size_t gauges,
                       std::size_t histograms, std::size_t series) {
  counters_.entries_.reserve(counters_.entries_.size() + counters);
  gauges_.entries_.reserve(gauges_.entries_.size() + gauges);
  histograms_.entries_.reserve(histograms_.entries_.size() + histograms);
  series_.entries_.reserve(series_.entries_.size() + series);
}

std::string FormatJsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) *out += ",";
  *first = false;
  AppendJsonString(out, key);
  *out += ":";
  *out += value;
}

std::string U64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string Registry::ToJson(SimTime now) const {
  std::string out = "{";
  out += "\"counters\":{";
  bool first_entry = true;
  for (const auto& [name, entry] : counters_) {
    if (!first_entry) out += ",";
    first_entry = false;
    AppendJsonString(&out, name);
    out += ":{\"unit\":";
    AppendJsonString(&out, entry.unit);
    out += ",\"value\":" + U64(entry.instrument->value()) + "}";
  }
  out += "},\"gauges\":{";
  first_entry = true;
  for (const auto& [name, entry] : gauges_) {
    if (!first_entry) out += ",";
    first_entry = false;
    AppendJsonString(&out, name);
    out += ":{\"unit\":";
    AppendJsonString(&out, entry.unit);
    out += ",\"value\":" + FormatJsonNumber(entry.instrument->value()) + "}";
  }
  out += "},\"histograms\":{";
  first_entry = true;
  for (const auto& [name, entry] : histograms_) {
    const Histogram& h = *entry.instrument;
    if (!first_entry) out += ",";
    first_entry = false;
    AppendJsonString(&out, name);
    out += ":{";
    bool f = true;
    std::string unit_json;
    AppendJsonString(&unit_json, entry.unit);
    AppendField(&out, "unit", unit_json, &f);
    AppendField(&out, "count", U64(h.count()), &f);
    AppendField(&out, "sum", U64(h.sum()), &f);
    AppendField(&out, "min", U64(h.min()), &f);
    AppendField(&out, "max", U64(h.max()), &f);
    AppendField(&out, "mean", FormatJsonNumber(h.Mean()), &f);
    AppendField(&out, "p50", FormatJsonNumber(h.Percentile(50)), &f);
    AppendField(&out, "p90", FormatJsonNumber(h.Percentile(90)), &f);
    AppendField(&out, "p99", FormatJsonNumber(h.Percentile(99)), &f);
    AppendField(&out, "p999", FormatJsonNumber(h.Percentile(99.9)), &f);
    std::string buckets = "[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets()[b] == 0) continue;
      if (!first_bucket) buckets += ",";
      first_bucket = false;
      buckets += "[";
      buckets += U64(Histogram::BucketLowerBound(b));
      buckets += ",";
      buckets += U64(h.buckets()[b]);
      buckets += "]";
    }
    buckets += "]";
    AppendField(&out, "buckets", buckets, &f);
    out += "}";
  }
  out += "},\"series\":{";
  first_entry = true;
  for (const auto& [name, entry] : series_) {
    const TimeWeightedSeries& s = *entry.instrument;
    if (!first_entry) out += ",";
    first_entry = false;
    AppendJsonString(&out, name);
    out += ":{";
    bool f = true;
    std::string unit_json;
    AppendJsonString(&unit_json, entry.unit);
    AppendField(&out, "unit", unit_json, &f);
    AppendField(&out, "count", U64(s.count()), &f);
    AppendField(&out, "avg", FormatJsonNumber(s.Average(now)), &f);
    AppendField(&out, "min", FormatJsonNumber(s.min()), &f);
    AppendField(&out, "max", FormatJsonNumber(s.max()), &f);
    AppendField(&out, "last", FormatJsonNumber(s.last()), &f);
    std::string samples = "[";
    bool first_sample = true;
    for (const auto& sample : s.samples()) {
      if (!first_sample) samples += ",";
      first_sample = false;
      samples += "[";
      samples += U64(static_cast<std::uint64_t>(sample.time));
      samples += ",";
      samples += FormatJsonNumber(sample.value);
      samples += "]";
    }
    samples += "]";
    AppendField(&out, "samples", samples, &f);
    out += "}";
  }
  out += "}}";
  return out;
}

std::string Registry::ToCsv(SimTime now) const {
  std::string out = "name,kind,unit,field,value\n";
  auto row = [&out](std::string_view name, const char* kind,
                    std::string_view unit, const char* field,
                    const std::string& value) {
    out += name;
    out += ',';
    out += kind;
    out += ',';
    out += unit;
    out += ',';
    out += field;
    out += ',';
    out += value;
    out += '\n';
  };
  for (const auto& [name, entry] : counters_) {
    row(name, "counter", entry.unit, "value", U64(entry.instrument->value()));
  }
  for (const auto& [name, entry] : gauges_) {
    row(name, "gauge", entry.unit, "value",
        FormatJsonNumber(entry.instrument->value()));
  }
  for (const auto& [name, entry] : histograms_) {
    const Histogram& h = *entry.instrument;
    row(name, "histogram", entry.unit, "count", U64(h.count()));
    row(name, "histogram", entry.unit, "sum", U64(h.sum()));
    row(name, "histogram", entry.unit, "min", U64(h.min()));
    row(name, "histogram", entry.unit, "max", U64(h.max()));
    row(name, "histogram", entry.unit, "mean", FormatJsonNumber(h.Mean()));
    row(name, "histogram", entry.unit, "p50",
        FormatJsonNumber(h.Percentile(50)));
    row(name, "histogram", entry.unit, "p90",
        FormatJsonNumber(h.Percentile(90)));
    row(name, "histogram", entry.unit, "p99",
        FormatJsonNumber(h.Percentile(99)));
    row(name, "histogram", entry.unit, "p999",
        FormatJsonNumber(h.Percentile(99.9)));
  }
  for (const auto& [name, entry] : series_) {
    const TimeWeightedSeries& s = *entry.instrument;
    row(name, "series", entry.unit, "count", U64(s.count()));
    row(name, "series", entry.unit, "avg", FormatJsonNumber(s.Average(now)));
    row(name, "series", entry.unit, "min", FormatJsonNumber(s.min()));
    row(name, "series", entry.unit, "max", FormatJsonNumber(s.max()));
    row(name, "series", entry.unit, "last", FormatJsonNumber(s.last()));
  }
  return out;
}

}  // namespace exs::metrics
