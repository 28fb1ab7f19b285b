// SRQ-backed shared control-slot pool.
//
// The classic ControlChannel pre-posts `credits` private receives into a
// private slab — per connection.  At N connections the receiver carries
// N x credits posted receives even though arrivals are bursty.  This pool
// is the ControlSlotSource the engine hands to accepted sockets: one slab,
// one verbs SharedReceiveQueue, all receives posted up front; every
// SRQ-mode channel's queue pair drains the same pool FIFO.  Reservation
// accounting (credits per accepted connection, refunded at teardown) keeps
// the sum of per-peer credit grants within the pool, which is the
// RNR-freedom argument: a peer never sends beyond its grant, and every
// grant is covered by posted receives.
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.hpp"
#include "exs/channel.hpp"
#include "exs/wire.hpp"
#include "verbs/device.hpp"
#include "verbs/srq.hpp"

namespace exs::engine {

class ControlSlotPool : public ControlSlotSource {
 public:
  /// `registry` (optional) receives the pool.slots_* instruments.
  ControlSlotPool(verbs::Device& device, std::uint32_t total_slots,
                  metrics::Registry* registry = nullptr);

  ControlSlotPool(const ControlSlotPool&) = delete;
  ControlSlotPool& operator=(const ControlSlotPool&) = delete;

  // ControlSlotSource
  verbs::SharedReceiveQueue& srq() override { return srq_; }
  void UnreserveSlots(std::uint32_t n) override;
  const std::uint8_t* SlotMem(std::uint64_t slot) const override;
  void RepostSlot(std::uint64_t slot) override;

  /// Account `n` pool slots to a connection being admitted.  False when
  /// the pool cannot cover them: the acceptor refuses the connection
  /// instead of risking RNR on an established one.
  bool ReserveSlots(std::uint32_t n);

  /// Admission-control preflight: can a connection granting `n` credits be
  /// accepted without oversubscribing the pool?
  bool CanReserve(std::uint32_t n) const {
    return reserved_ + n <= total_slots_;
  }

  std::uint32_t total_slots() const { return total_slots_; }
  std::uint32_t reserved_slots() const { return reserved_; }
  std::uint64_t slab_bytes() const { return slab_.size(); }

 private:
  void PostSlot(std::uint64_t slot);
  void Sample();

  verbs::Device* device_;
  std::uint32_t total_slots_;
  std::uint32_t reserved_ = 0;
  std::vector<std::uint8_t> slab_;
  verbs::MemoryRegionPtr mr_;
  verbs::SharedReceiveQueue srq_;
  metrics::TimeWeightedSeries* reserved_series_ = nullptr;
};

}  // namespace exs::engine
