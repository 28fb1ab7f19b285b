// Point-to-point link model.
//
// A SimplexChannel carries opaque messages in one direction with
// store-and-forward timing: a message occupies the transmitter for
// bytes/bandwidth (FIFO serialisation), then arrives after the propagation
// delay plus any emulator-added delay.  A fixed `extra_delay` plus uniform
// jitter reproduces the paper's Anue network-emulator setup; because the
// transports modelled on top are reliable and in-order (RC), delivery order
// is clamped monotone even when jitter would reorder frames (real hardware
// achieves the same with transport-level retransmission).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simnet/event_scheduler.hpp"

namespace exs::simnet {

/// Delay emulator configuration (the "Anue" box).
struct NetemConfig {
  SimDuration extra_delay = 0;    ///< fixed one-way added delay
  SimDuration jitter = 0;         ///< uniform in [0, jitter] per message
};

struct ChannelConfig {
  Bandwidth bandwidth;            ///< serialisation rate
  SimDuration propagation = 0;    ///< one-way base propagation delay
  NetemConfig netem;              ///< optional emulator stage
};

class SimplexChannel {
 public:
  SimplexChannel(EventScheduler& scheduler, ChannelConfig config,
                 std::uint64_t jitter_seed = 1)
      : scheduler_(&scheduler), config_(config), jitter_rng_(jitter_seed) {}

  SimplexChannel(const SimplexChannel&) = delete;
  SimplexChannel& operator=(const SimplexChannel&) = delete;

  const ChannelConfig& config() const { return config_; }

  /// Fault injection (simnet/faults.hpp): an additional per-message delay,
  /// modelling a link stall/flap as the retransmission-delay burst the
  /// transport would experience.  Additive so that overlapping fault
  /// windows compose; the monotone delivery clamp below keeps the RC
  /// in-order guarantee intact no matter how large the burst.
  void AddFaultDelay(SimDuration delta) {
    fault_delay_ += delta;
    if (fault_delay_ < 0) fault_delay_ = 0;
  }
  /// Fault injection: extra uniform jitter in [0, amount] per message,
  /// sampled from the injector-owned RNG (keeps runs seed-deterministic).
  void AddFaultJitter(SimDuration delta, Rng* rng) {
    fault_jitter_ += delta;
    if (fault_jitter_ < 0) fault_jitter_ = 0;
    fault_rng_ = rng;
  }
  SimDuration fault_delay() const { return fault_delay_; }

  /// Begin transmitting `bytes` now (or when the transmitter frees up).
  /// `on_delivered` runs at the instant the last byte arrives at the far
  /// end (any `void()` callable).  Returns the delivery time.
  template <typename F>
  SimTime Transmit(std::uint64_t bytes, F&& on_delivered) {
    SimTime now = scheduler_->Now();
    SimTime start = now > tx_free_at_ ? now : tx_free_at_;
    SimTime tx_end = start + config_.bandwidth.TransmissionTime(bytes);
    tx_free_at_ = tx_end;

    SimDuration delay = config_.propagation + config_.netem.extra_delay;
    if (config_.netem.jitter > 0) {
      delay += static_cast<SimDuration>(jitter_rng_.NextBelow(
          static_cast<std::uint64_t>(config_.netem.jitter) + 1));
    }
    delay += fault_delay_;
    if (fault_jitter_ > 0 && fault_rng_ != nullptr) {
      delay += static_cast<SimDuration>(fault_rng_->NextBelow(
          static_cast<std::uint64_t>(fault_jitter_) + 1));
    }
    SimTime arrival = tx_end + delay;
    // Reliable in-order transport: never deliver behind an earlier message.
    if (arrival < last_delivery_) arrival = last_delivery_;
    last_delivery_ = arrival;

    bytes_carried_ += bytes;
    ++messages_carried_;
    scheduler_->ScheduleAt(arrival, std::forward<F>(on_delivered));
    return arrival;
  }

  /// Time at which the transmitter becomes free.
  SimTime TxFreeAt() const { return tx_free_at_; }

  std::uint64_t BytesCarried() const { return bytes_carried_; }
  std::uint64_t MessagesCarried() const { return messages_carried_; }

 private:
  EventScheduler* scheduler_;
  ChannelConfig config_;
  Rng jitter_rng_;
  SimDuration fault_delay_ = 0;
  SimDuration fault_jitter_ = 0;
  Rng* fault_rng_ = nullptr;
  SimTime tx_free_at_ = 0;
  SimTime last_delivery_ = 0;
  std::uint64_t bytes_carried_ = 0;
  std::uint64_t messages_carried_ = 0;
};

}  // namespace exs::simnet
