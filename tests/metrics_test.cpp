// The metrics library itself: bucketing, time-weighted averaging,
// deterministic sample decimation, and the JSON/CSV exporters (the JSON is
// parsed back, not string-matched).  Also covers the sim-time stamping of
// EXS_LOG lines, which rides on the same SimClock interface.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/units.hpp"

namespace exs::metrics {
namespace {

TEST(Counter, AccumulatesIncrementsAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024u);

  Histogram h;
  h.Record(0);
  h.Record(3);
  h.Record(1024);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1027u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[11], 1u);
}

TEST(Histogram, PercentilesAreOrderedAndBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  double p50 = h.Percentile(50);
  double p90 = h.Percentile(90);
  double p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, static_cast<double>(h.min()));
  EXPECT_LE(p99, 2.0 * static_cast<double>(h.max()));
  EXPECT_EQ(h.Percentile(0), static_cast<double>(h.min()));
  EXPECT_EQ(h.Percentile(100), static_cast<double>(h.max()));
  // A log-bucketed p50 of uniform 1..1000 must land near the median's
  // bucket [512, 1024); anything outside signals broken bucket walking.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
}

void ExpectSameHistogram(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.buckets(), b.buckets());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// Merging two histograms equals one histogram that recorded both inputs,
// field by field, whichever side holds the extremes and also when either
// side is empty.
TEST(Histogram, MergeEqualsRecordingBothInputs) {
  Histogram low, high, both;
  for (std::uint64_t v : {7u, 300u, 300u, 4096u}) {
    low.Record(v);
    both.Record(v);
  }
  for (std::uint64_t v : {3u, 9000u, 65u}) {
    high.Record(v);
    both.Record(v);
  }
  Histogram merged = low;
  merged.Merge(high);
  ExpectSameHistogram(merged, both);
  EXPECT_EQ(merged.min(), 3u);
  EXPECT_EQ(merged.max(), 9000u);

  Histogram empty;
  Histogram into_empty;
  into_empty.Merge(low);
  ExpectSameHistogram(into_empty, low);
  Histogram from_empty = low;
  from_empty.Merge(empty);
  ExpectSameHistogram(from_empty, low);
  empty.Merge(Histogram{});
  ExpectSameHistogram(empty, Histogram{});
}

TEST(TimeWeightedSeries, AverageWeightsByHeldTime) {
  TimeWeightedSeries s;
  EXPECT_EQ(s.Average(100), 0.0);  // nothing recorded yet
  s.Record(0, 10.0);
  s.Record(100, 20.0);
  // 10 held for [0,100), 20 held for [100,200): average 15.
  EXPECT_DOUBLE_EQ(s.Average(200), 15.0);
  // A short spike barely moves it: 1000 held for the last instant only.
  s.Record(200, 1000.0);
  EXPECT_DOUBLE_EQ(s.Average(200), 15.0);
  EXPECT_EQ(s.last(), 1000.0);
  EXPECT_EQ(s.min(), 10.0);
  EXPECT_EQ(s.max(), 1000.0);
}

TEST(TimeWeightedSeries, SameInstantOverwritesLastSample) {
  TimeWeightedSeries s;
  s.Record(50, 1.0);
  s.Record(50, 2.0);
  ASSERT_EQ(s.samples().size(), 1u);
  EXPECT_EQ(s.samples()[0].value, 2.0);
  // The value that settled at t=50 is what the integral carries forward.
  EXPECT_DOUBLE_EQ(s.Average(150), 2.0);
}

TEST(TimeWeightedSeries, DecimationIsBoundedAndDeterministic) {
  auto fill = [](TimeWeightedSeries& s) {
    for (std::uint64_t i = 0; i < 10 * TimeWeightedSeries::kMaxSamples; ++i) {
      s.Record(static_cast<SimTime>(i * 7), static_cast<double>(i % 13));
    }
  };
  TimeWeightedSeries a, b;
  fill(a);
  fill(b);
  EXPECT_LE(a.samples().size(), TimeWeightedSeries::kMaxSamples);
  EXPECT_GE(a.samples().size(), TimeWeightedSeries::kMaxSamples / 4);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].time, b.samples()[i].time);
    EXPECT_EQ(a.samples()[i].value, b.samples()[i].value);
  }
  // Retention never distorts the exact integral.
  SimTime end = static_cast<SimTime>(10 * TimeWeightedSeries::kMaxSamples * 7);
  EXPECT_NEAR(a.Average(end), 6.0, 0.1);  // mean of i % 13 over a long run
}

TEST(TimeWeightedSeries, EmptySeriesExportsAsZeroes) {
  Registry reg;
  reg.GetSeries("idle", "bytes");  // registered, never recorded
  const TimeWeightedSeries& s = *reg.series().at("idle").instrument;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Average(1000), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_TRUE(s.samples().empty());

  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(reg.ToJson(/*now=*/1000), &root, &error)) << error;
  const json::Value* series = root.Find("series")->Find("idle");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Find("avg")->number_value, 0.0);
  EXPECT_TRUE(series->Find("samples")->array_items.empty());
}

TEST(TimeWeightedSeries, SingleSampleHoldsItsValueForever) {
  TimeWeightedSeries s;
  s.Record(50, 3.0);
  EXPECT_EQ(s.count(), 1u);
  ASSERT_EQ(s.samples().size(), 1u);
  EXPECT_EQ(s.samples()[0].time, 50);
  // The step function is constant after its only sample.
  EXPECT_DOUBLE_EQ(s.Average(50), 3.0);
  EXPECT_DOUBLE_EQ(s.Average(100000), 3.0);
  EXPECT_EQ(s.min(), 3.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(TimeWeightedSeries, ExportAfterSameTimestampDoubleWrite) {
  // The overwrite path (two Records at one instant) must leave the
  // exported snapshot well-formed: one retained sample carrying the
  // final value, and the integral built from it alone.
  Registry reg;
  TimeWeightedSeries& s = reg.GetSeries("ring", "bytes");
  s.Record(100, 1.0);
  s.Record(100, 5.0);

  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(reg.ToJson(/*now=*/300), &root, &error)) << error;
  const json::Value* series = root.Find("series")->Find("ring");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->Find("samples")->array_items.size(), 1u);
  EXPECT_EQ(series->Find("samples")->array_items[0].array_items.size(), 2u);
  EXPECT_EQ(series->Find("last")->number_value, 5.0);
  EXPECT_EQ(series->Find("avg")->number_value, 5.0);
  EXPECT_EQ(series->Find("max")->number_value, 5.0);
}

TEST(Registry, JsonSnapshotParsesBack) {
  Registry reg;
  reg.GetCounter("tx.bytes", "bytes").Add(12345);
  reg.GetGauge("tx.phase", "phase").Set(4);
  Histogram& h = reg.GetHistogram("rtt", "ps");
  h.Record(100);
  h.Record(900);
  TimeWeightedSeries& s = reg.GetSeries("ring", "bytes");
  s.Record(0, 0.0);
  s.Record(500, 64.0);

  std::string text = reg.ToJson(/*now=*/1000);
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &root, &error)) << error << "\n" << text;

  const json::Value* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* counter = counters->Find("tx.bytes");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Find("value")->number_value, 12345.0);
  EXPECT_EQ(counter->Find("unit")->string_value, "bytes");

  const json::Value* gauge = root.Find("gauges")->Find("tx.phase");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Find("value")->number_value, 4.0);

  const json::Value* hist = root.Find("histograms")->Find("rtt");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number_value, 2.0);
  EXPECT_EQ(hist->Find("sum")->number_value, 1000.0);
  ASSERT_NE(hist->Find("p999"), nullptr);
  EXPECT_GE(hist->Find("p999")->number_value,
            hist->Find("p50")->number_value);
  ASSERT_TRUE(hist->Find("buckets")->IsArray());
  EXPECT_EQ(hist->Find("buckets")->array_items.size(), 2u);

  const json::Value* series = root.Find("series")->Find("ring");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Find("last")->number_value, 64.0);
  // 0 held for [0,500), 64 for [500,1000): time-weighted average 32.
  EXPECT_EQ(series->Find("avg")->number_value, 32.0);
  EXPECT_EQ(series->Find("samples")->array_items.size(), 2u);
}

TEST(Registry, SnapshotsAreDeterministic) {
  auto build = [] {
    Registry reg;
    reg.GetCounter("b", "x").Add(2);
    reg.GetCounter("a", "y").Add(1);
    reg.GetSeries("s", "z").Record(10, 1.5);
    return reg.ToJson(100) + "\n" + reg.ToCsv(100);
  };
  EXPECT_EQ(build(), build());
}

TEST(Registry, CsvHasHeaderAndOneRowPerScalar) {
  Registry reg;
  reg.GetCounter("c", "ops").Increment();
  reg.GetGauge("g", "").Set(1);
  std::string csv = reg.ToCsv(0);
  std::istringstream in(csv);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "name,kind,unit,field,value");
  EXPECT_EQ(lines[1], "c,counter,ops,value,1");
  EXPECT_EQ(lines[2], "g,gauge,,value,1");
}

// Names sharing prefixes, so lookups must compare whole names in byte
// order ("rail1.x" < "rail10.x", "tx" < "tx." < "tx.a").
constexpr std::string_view kPoolNames[] = {
    "rail1.x", "rail10.x", "rail1.y", "rail1", "rail10", "tx.", "tx.a",
    "tx",      "tx.a.b",   "a",       "",      "rx.z",   "rail2.x"};
constexpr std::string_view kPoolUnits[] = {"", "ps", "bytes"};

/// Runs one seed of random Get/Bind steps on one kind of `Registry`,
/// checking the registry against a std::map model after every step.
template <typename T, typename GetFn, typename TableFn>
void DiffAgainstMap(std::uint64_t seed, GetFn get, TableFn table) {
  struct Expected {
    std::string unit;
    const T* instrument = nullptr;
  };
  std::map<std::string, Expected> model;
  std::vector<std::unique_ptr<T>> bound;  // owners of bound instruments
  Registry reg;
  Rng rng(seed);
  for (int step = 0; step < 60; ++step) {
    const std::string_view name =
        kPoolNames[rng.NextBelow(std::size(kPoolNames))];
    const std::string_view unit =
        kPoolUnits[rng.NextBelow(std::size(kPoolUnits))];
    auto known = model.find(std::string(name));
    if (rng.NextBool()) {
      T& got = get(reg, name, unit);
      if (known == model.end()) {
        model.emplace(name, Expected{std::string(unit), &got});
      } else {
        EXPECT_EQ(&got, known->second.instrument)
            << "seed " << seed << ": a repeated Get of '" << name
            << "' returned another instrument";
      }
    } else if (known == model.end()) {
      bound.push_back(std::make_unique<T>());
      reg.Bind(name, unit, *bound.back());
      model.emplace(name, Expected{std::string(unit), bound.back().get()});
      EXPECT_EQ(&get(reg, name, "other"), bound.back().get())
          << "seed " << seed << ": Get of bound '" << name
          << "' did not return the bound instrument";
    } else {
      T spare;
      EXPECT_THROW(reg.Bind(name, unit, spare), InvariantViolation)
          << "seed " << seed << ": '" << name << "' bound twice";
    }

    const auto& t = table(reg);
    ASSERT_EQ(t.size(), model.size()) << "seed " << seed << " step " << step;
    auto expected = model.begin();
    for (const auto& [entry_name, named] : t) {
      EXPECT_EQ(entry_name, expected->first)
          << "seed " << seed << " step " << step << ": iteration order";
      EXPECT_EQ(named.unit, expected->second.unit)
          << "seed " << seed << ": unit of '" << entry_name << "'";
      EXPECT_EQ(named.instrument, expected->second.instrument)
          << "seed " << seed << ": instrument of '" << entry_name << "'";
      ++expected;
    }
    for (std::string_view probe : kPoolNames) {
      auto in_model = model.find(std::string(probe));
      const bool present = in_model != model.end();
      EXPECT_EQ(t.count(probe), present ? 1u : 0u)
          << "seed " << seed << ": count('" << probe << "')";
      auto it = t.find(probe);
      if (!present) {
        EXPECT_TRUE(it == t.end())
            << "seed " << seed << ": find('" << probe << "') hit";
        EXPECT_THROW(t.at(probe), std::out_of_range)
            << "seed " << seed << ": at('" << probe << "')";
        continue;
      }
      ASSERT_TRUE(it != t.end())
          << "seed " << seed << ": find('" << probe << "') missed";
      EXPECT_EQ(it->first, probe) << "seed " << seed;
      EXPECT_EQ(it->second.instrument, in_model->second.instrument)
          << "seed " << seed << ": find('" << probe << "')";
      EXPECT_EQ(t.at(probe).instrument, in_model->second.instrument)
          << "seed " << seed << ": at('" << probe << "')";
    }
  }
}

TEST(Registry, MatchesMapModelUnderRandomGetAndBind) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    DiffAgainstMap<Counter>(
        seed,
        [](Registry& r, std::string_view n, std::string_view u) -> Counter& {
          return r.GetCounter(n, u);
        },
        [](const Registry& r) -> const auto& { return r.counters(); });
    DiffAgainstMap<Gauge>(
        seed,
        [](Registry& r, std::string_view n, std::string_view u) -> Gauge& {
          return r.GetGauge(n, u);
        },
        [](const Registry& r) -> const auto& { return r.gauges(); });
    DiffAgainstMap<Histogram>(
        seed,
        [](Registry& r, std::string_view n, std::string_view u)
            -> Histogram& { return r.GetHistogram(n, u); },
        [](const Registry& r) -> const auto& { return r.histograms(); });
    DiffAgainstMap<TimeWeightedSeries>(
        seed,
        [](Registry& r, std::string_view n, std::string_view u)
            -> TimeWeightedSeries& { return r.GetSeries(n, u); },
        [](const Registry& r) -> const auto& { return r.series(); });
  }
}

class FixedClock : public SimClock {
 public:
  explicit FixedClock(SimTime t) : t_(t) {}
  SimTime Now() const override { return t_; }

 private:
  SimTime t_;
};

TEST(Logging, LinesCarrySimTimeWhenClockRegistered) {
  FixedClock clock(Microseconds(125) + Nanoseconds(500));
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  SetLogClock(&clock);
  ::testing::internal::CaptureStderr();
  EXS_INFO("stamped message");
  std::string with_clock = ::testing::internal::GetCapturedStderr();
  SetLogClock(nullptr);
  ::testing::internal::CaptureStderr();
  EXS_INFO("plain message");
  std::string without_clock = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved);

  EXPECT_NE(with_clock.find("[INFO 125.500us] stamped message"),
            std::string::npos)
      << with_clock;
  EXPECT_NE(without_clock.find("[INFO] plain message"), std::string::npos)
      << without_clock;
}

}  // namespace
}  // namespace exs::metrics
