// Key-popularity and value-size distributions for the traffic generator.
//
// The Zipf sampler is the Gray et al. transform (the YCSB
// ZipfianGenerator lineage): an O(n) zeta precompute at construction
// (memoised per thread for the last key space, so many samplers over one
// key space pay for it once), then O(1) draws mapping one uniform variate
// to a rank — rank 0 is the hottest key.  All arithmetic is
// double-precision with a fixed evaluation order, so fixed seeds
// reproduce identical sample trains across platforms (pinned in
// tests/loadgen_test.cpp).
#pragma once

#include <cstdint>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace exs::loadgen {

class ZipfSampler {
 public:
  /// `n` keys ranked 0..n-1, skew `theta` in [0, 1) — 0 is uniform,
  /// 0.99 is the YCSB default hot-key skew.
  ZipfSampler(std::uint64_t n, double theta);

  /// Draw a rank in [0, n).
  std::uint64_t Sample(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  /// Expected probability of the hottest key (rank 0).
  double TopProbability() const { return 1.0 / zetan_; }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

/// Discrete value-size mix: weighted size classes, sampled by cumulative
/// weight.  Deterministic for fixed seeds like everything else here.
class SizeMix {
 public:
  struct Class {
    std::uint32_t bytes = 0;
    double weight = 0.0;
  };

  explicit SizeMix(std::vector<Class> classes);

  std::uint32_t Sample(Rng& rng) const;

  double MeanBytes() const;
  std::uint32_t MaxBytes() const;
  const std::vector<Class>& classes() const { return classes_; }

 private:
  std::vector<Class> classes_;
  std::vector<double> cumulative_;  ///< normalised running weight
};

}  // namespace exs::loadgen
