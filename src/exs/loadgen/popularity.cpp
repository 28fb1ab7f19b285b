#include "exs/loadgen/popularity.hpp"

namespace exs::loadgen {

namespace {

double Zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

/// The O(n) part of the precompute for one (n, theta).
struct ZetaTerms {
  std::uint64_t n = 0;
  double theta = 0.0;
  double zetan = 0.0;
  double eta = 0.0;
};

/// Every client's generator samples the same key space, so the last
/// (n, theta) is kept per thread: a population of generators pays for
/// one zeta sum, not one each.  Same arithmetic, so same bits.
const ZetaTerms& Terms(std::uint64_t n, double theta) {
  thread_local ZetaTerms cache;
  if (cache.n != n || cache.theta != theta) {
    cache.n = n;
    cache.theta = theta;
    cache.zetan = Zeta(n, theta);
    const double zeta2 = Zeta(2 < n ? 2 : n, theta);
    cache.eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
                (1.0 - zeta2 / cache.zetan);
  }
  return cache;
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta) {
  const ZetaTerms& terms = Terms(n_, theta_);
  zetan_ = terms.zetan;
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = terms.eta;
}

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

SizeMix::SizeMix(std::vector<Class> classes) : classes_(std::move(classes)) {
  if (classes_.empty()) classes_.push_back({1, 1.0});
  double total = 0.0;
  for (const Class& c : classes_) total += c.weight;
  double running = 0.0;
  cumulative_.reserve(classes_.size());
  for (const Class& c : classes_) {
    running += c.weight / total;
    cumulative_.push_back(running);
  }
  cumulative_.back() = 1.0;  // absorb rounding: the last class is a catch-all
}

std::uint32_t SizeMix::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) return classes_[i].bytes;
  }
  return classes_.back().bytes;
}

double SizeMix::MeanBytes() const {
  double total = 0.0;
  double weighted = 0.0;
  for (const Class& c : classes_) {
    total += c.weight;
    weighted += c.weight * static_cast<double>(c.bytes);
  }
  return weighted / total;
}

std::uint32_t SizeMix::MaxBytes() const {
  std::uint32_t max = 0;
  for (const Class& c : classes_) {
    if (c.bytes > max) max = c.bytes;
  }
  return max;
}

}  // namespace exs::loadgen
