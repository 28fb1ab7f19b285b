#include "exs/engine/buffer_pool.hpp"

#include "common/check.hpp"

namespace exs::engine {

BufferPool::BufferPool(verbs::Device& device, BufferPoolOptions options,
                       metrics::Registry* registry)
    : device_(&device), options_(options) {
  EXS_CHECK_MSG(options_.pool_bytes > 0 && options_.lease_bytes > 0,
                "buffer pool and lease sizes must be nonzero");
  EXS_CHECK_MSG(options_.pool_bytes % options_.lease_bytes == 0,
                "lease size must divide the pool slab evenly");
  EXS_CHECK_MSG(options_.low_watermark <= options_.high_watermark &&
                    options_.high_watermark <= 1.0,
                "watermarks must satisfy low <= high <= 1");
  slab_.resize(options_.pool_bytes);
  mr_ = device.RegisterMemory(slab_.data(), slab_.size());
  total_leases_ =
      static_cast<std::size_t>(options_.pool_bytes / options_.lease_bytes);
  free_.reserve(total_leases_);
  // LIFO free list, lowest index on top: recently released carves (warm
  // cache on real hardware) are reused first, and grants are deterministic.
  for (std::size_t i = total_leases_; i > 0; --i) free_.push_back(i - 1);
  leased_.assign(total_leases_, false);
  if (registry != nullptr) {
    bytes_leased_series_ = &registry->GetSeries("pool.bytes_leased", "bytes");
    leases_active_series_ = &registry->GetSeries("pool.leases_active",
                                                 "leases");
    registry->Bind("pool.leases_granted", "leases", leases_granted_);
    registry->Bind("pool.leases_reclaimed", "leases", leases_reclaimed_);
  }
  Sample();
}

void BufferPool::Sample() {
  SimTime now = device_->scheduler().Now();
  if (bytes_leased_series_ != nullptr) {
    bytes_leased_series_->Record(now, static_cast<double>(bytes_leased_));
  }
  if (leases_active_series_ != nullptr) {
    leases_active_series_->Record(now, static_cast<double>(LeasesActive()));
  }
}

RingLease BufferPool::Acquire() {
  if (free_.empty()) return RingLease{};
  std::size_t index = free_.back();
  free_.pop_back();
  leased_[index] = true;
  bytes_leased_ += options_.lease_bytes;
  if (bytes_leased_ > peak_bytes_leased_) peak_bytes_leased_ = bytes_leased_;
  leases_granted_.Increment();
  double fill = static_cast<double>(bytes_leased_) /
                static_cast<double>(options_.pool_bytes);
  if (fill >= options_.high_watermark) admission_closed_ = true;
  Sample();

  // The release closure carries the pool's liveness guard (the same
  // pattern as ControlSlotSource::LivenessToken): an accepted socket
  // routinely outlives the acceptor that owns this pool, and its EOF or
  // teardown path must not call back into a destroyed pool.
  return RingLease(
      slab_.data() + index * options_.lease_bytes, options_.lease_bytes, mr_,
      [this, index, alive = std::weak_ptr<void>(liveness_)] {
        if (alive.expired()) return;  // pool died first: nothing to return
        Release(index);
      });
}

void BufferPool::Release(std::size_t index) {
  EXS_CHECK_MSG(index < total_leases_ && leased_[index],
                "lease released twice or never granted");
  leased_[index] = false;
  free_.push_back(index);
  bytes_leased_ -= options_.lease_bytes;
  leases_reclaimed_.Increment();
  double fill = static_cast<double>(bytes_leased_) /
                static_cast<double>(options_.pool_bytes);
  if (admission_closed_ && fill <= options_.low_watermark) {
    admission_closed_ = false;
  }
  Sample();
}

bool BufferPool::AdmissionOpen() const {
  return !admission_closed_ && !free_.empty();
}

}  // namespace exs::engine
