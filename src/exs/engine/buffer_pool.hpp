// Shared indirect buffer pool: one slab, many streams.
//
// The classic socket allocates (and registers) a private intermediate
// circular buffer per incoming stream, so receiver memory grows O(streams).
// At server scale that is the dominant cost — RDMAvisor measures receive
// buffering, not queue-pair state, as the first resource to exhaust.  The
// pool inverts the ownership: one registered slab, carved into fixed-size
// ring leases that accepted streams borrow for their lifetime and hand
// back once the stream has delivered EOF and drained.  Receiver memory is
// O(pool), the §II-C phase/ADVERT machinery is untouched (a leased ring is
// just a ring that happens to live in shared memory — direct transfers
// bypass it entirely), and admission control at the acceptor converts
// "pool exhausted" into a refused connection instead of a starved one.
//
// Watermark hysteresis: admission closes when leased bytes reach the high
// watermark and reopens only once reclaim has brought them back under the
// low watermark, so a server hovering at capacity flaps neither its
// accepts nor its pool.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "exs/stream.hpp"
#include "verbs/device.hpp"

namespace exs::engine {

struct BufferPoolOptions {
  std::uint64_t pool_bytes = 0;   ///< total slab size
  std::uint64_t lease_bytes = 0;  ///< per-stream ring carve (divides pool)
  double high_watermark = 0.9;    ///< close admission at/above this fill
  double low_watermark = 0.7;     ///< reopen admission at/below this fill
};

class BufferPool {
 public:
  /// `registry` (optional) names the pool.* instruments.
  BufferPool(verbs::Device& device, BufferPoolOptions options,
             metrics::Registry* registry = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Borrow one ring carve; invalid lease when the pool is exhausted.
  /// The lease may outlive the pool: its release closure carries the
  /// pool's liveness token and degrades to a no-op once the pool is gone.
  RingLease Acquire();

  /// Expires when this pool is destroyed (see ControlSlotSource's
  /// identically named token for the lifetime rule it encodes).
  std::weak_ptr<void> LivenessToken() const { return liveness_; }

  /// Would the acceptor admit a new stream right now?  False while the
  /// watermark hysteresis holds admission closed or no carve is free.
  bool AdmissionOpen() const;

  std::uint64_t pool_bytes() const { return options_.pool_bytes; }
  std::uint64_t lease_bytes() const { return options_.lease_bytes; }
  std::uint64_t BytesLeased() const { return bytes_leased_; }
  std::uint64_t PeakBytesLeased() const { return peak_bytes_leased_; }
  std::size_t LeasesActive() const { return total_leases_ - free_.size(); }
  std::uint64_t LeasesGranted() const { return leases_granted_.value(); }
  std::uint64_t LeasesReclaimed() const { return leases_reclaimed_.value(); }

 private:
  void Release(std::size_t index);
  void Sample();

  verbs::Device* device_;
  BufferPoolOptions options_;
  std::vector<std::uint8_t> slab_;
  verbs::MemoryRegionPtr mr_;  ///< one registration covers every lease
  std::size_t total_leases_ = 0;
  std::vector<std::size_t> free_;  ///< free carve indices (LIFO)
  std::vector<bool> leased_;       ///< double-release guard
  std::uint64_t bytes_leased_ = 0;
  std::uint64_t peak_bytes_leased_ = 0;
  metrics::Counter leases_granted_;
  metrics::Counter leases_reclaimed_;
  bool admission_closed_ = false;  ///< watermark hysteresis state
  std::shared_ptr<void> liveness_ = std::make_shared<char>(0);

  metrics::TimeWeightedSeries* bytes_leased_series_ = nullptr;
  metrics::TimeWeightedSeries* leases_active_series_ = nullptr;
};

}  // namespace exs::engine
