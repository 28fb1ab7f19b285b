// Time and data-size units used throughout the simulator and library.
//
// Simulated time is an integer count of picoseconds.  At FDR InfiniBand's
// 54.24 Gb/s data rate one byte serialises in ~147 ps, so picosecond
// resolution keeps per-byte rounding error out of throughput figures while
// int64_t still covers ~106 days of simulated time.
#pragma once

#include <cstdint>

namespace exs {

/// Simulated time in picoseconds.
using SimTime = std::int64_t;

/// Time differences share the representation of absolute times.
using SimDuration = std::int64_t;

inline constexpr SimDuration kPicosecond = 1;
inline constexpr SimDuration kNanosecond = 1'000;
inline constexpr SimDuration kMicrosecond = 1'000'000;
inline constexpr SimDuration kMillisecond = 1'000'000'000;
inline constexpr SimDuration kSecond = 1'000'000'000'000;

constexpr SimDuration Nanoseconds(double ns) {
  return static_cast<SimDuration>(ns * static_cast<double>(kNanosecond));
}
constexpr SimDuration Microseconds(double us) {
  return static_cast<SimDuration>(us * static_cast<double>(kMicrosecond));
}
constexpr SimDuration Milliseconds(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}
constexpr SimDuration Seconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}
constexpr double ToMicroseconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}
constexpr double ToMilliseconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

/// Bandwidth expressed as bytes per simulated second.
struct Bandwidth {
  double bytes_per_second = 0.0;

  static constexpr Bandwidth BitsPerSecond(double bps) {
    return Bandwidth{bps / 8.0};
  }
  static constexpr Bandwidth GigabitsPerSecond(double gbps) {
    return BitsPerSecond(gbps * 1e9);
  }
  static constexpr Bandwidth GigabytesPerSecond(double gb) {
    return Bandwidth{gb * 1e9};
  }

  constexpr double GigabitsPerSecondValue() const {
    return bytes_per_second * 8.0 / 1e9;
  }

  /// Time to serialise `bytes` at this rate.  A zero/negative bandwidth
  /// means "infinitely fast" and serialises in zero time.
  constexpr SimDuration TransmissionTime(std::uint64_t bytes) const {
    if (bytes_per_second <= 0.0) return 0;
    double seconds = static_cast<double>(bytes) / bytes_per_second;
    return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
  }
};

/// Throughput of `bytes` moved over duration `d`, in megabits per second —
/// the unit the paper's figures use.
constexpr double ThroughputMbps(std::uint64_t bytes, SimDuration d) {
  if (d <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / 1e6 / ToSeconds(d);
}

}  // namespace exs
