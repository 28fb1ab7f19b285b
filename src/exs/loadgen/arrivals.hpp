// Open-loop arrival processes for the traffic generator.
//
// Open-loop means request times come from the *process*, not from
// completions: a slow server does not slow the generator down, it grows
// the outstanding window — which is exactly the backpressure regime the
// closed-loop blast benches can never produce.  Both processes are pure
// functions of an Rng, so a fixed seed replays the identical arrival
// train on any platform (goldens in tests/loadgen_test.cpp pin that).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace exs::loadgen {

/// Poisson arrivals: independent exponential inter-arrival gaps with the
/// configured mean.
class PoissonProcess {
 public:
  explicit PoissonProcess(SimDuration mean_interarrival)
      : mean_(static_cast<double>(mean_interarrival)) {}

  /// Gap to the next arrival (>= 1 ps: the simulator clock is integral
  /// and a zero gap would merge arrivals).
  SimDuration Next(Rng& rng) {
    const double gap = rng.NextExponential(mean_);
    return gap < 1.0 ? 1 : static_cast<SimDuration>(gap);
  }

  SimDuration mean_interarrival() const {
    return static_cast<SimDuration>(mean_);
  }

 private:
  double mean_;
};

/// Bursty on/off (interrupted-Poisson) arrivals: during an ON period
/// requests arrive at `burst_interarrival` mean spacing; each arrival
/// ends the ON period with probability 1/mean_burst_size, after which an
/// exponential OFF gap of mean `mean_off` passes in silence.  The train
/// starts at the beginning of an ON period.
class OnOffBurstProcess {
 public:
  struct Options {
    SimDuration burst_interarrival = Microseconds(1);
    double mean_burst_size = 16.0;  ///< geometric burst length, >= 1
    SimDuration mean_off = Milliseconds(1);
  };

  explicit OnOffBurstProcess(Options options) : options_(options) {
    if (options_.mean_burst_size < 1.0) options_.mean_burst_size = 1.0;
  }

  /// Gap to the next arrival; folds in an OFF period when the previous
  /// arrival closed its burst.
  SimDuration Next(Rng& rng) {
    double gap = rng.NextExponential(
        static_cast<double>(options_.burst_interarrival));
    if (off_pending_) {
      gap += rng.NextExponential(static_cast<double>(options_.mean_off));
      ++bursts_started_;
    }
    // Decide now whether *this* arrival closes the burst, so one Rng draw
    // sequence fully determines the train.
    off_pending_ = rng.NextBool(1.0 / options_.mean_burst_size);
    return gap < 1.0 ? 1 : static_cast<SimDuration>(gap);
  }

  std::uint64_t bursts_started() const { return bursts_started_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  bool off_pending_ = false;
  std::uint64_t bursts_started_ = 1;  ///< the train opens in a burst
};

}  // namespace exs::loadgen
