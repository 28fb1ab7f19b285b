// Discrete-event scheduler: the simulated clock and event queue that every
// other component (links, NICs, CPUs, protocol timers) runs on.
//
// Events scheduled for the same instant execute in scheduling order (a
// monotone sequence number breaks ties), which makes runs bit-reproducible.
//
// Scheduling and running an event allocates nothing once the scheduler has
// warmed up.  Each event lives in a slot of a slab that grows in fixed-size
// chunks, so slots never move, and freed slots are recycled through a free
// list.  The callback is constructed in place in its slot's inline storage
// (InlineCallback) and runs there.  The heap orders plain (when, seq, slot)
// keys.
//
// Handle lifetime rule: an EventHandle holds a raw pointer to its
// scheduler, so a handle must not be used after the scheduler is
// destroyed.  Objects that keep handles (StreamTx's flush timers) must die
// before the scheduler does: Simulation declares its Fabric, which owns the
// scheduler, before its sockets, and tests declare sockets after the
// Simulation or Fabric they run on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/sim_clock.hpp"
#include "common/units.hpp"
#include "simnet/inline_callback.hpp"

namespace exs::simnet {

class EventScheduler;

/// Cancellation handle for a scheduled event: (scheduler, slot, generation).
/// A slot's generation is the sequence number of the event occupying it,
/// which no later event reuses, so a stale handle whose slot was recycled
/// never matches the new occupant.  Default-constructed handles are inert;
/// cancelling an already-run or already-cancelled event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  void Cancel();

  /// True while the event is still scheduled to run (false once its
  /// callback has started).
  bool Pending() const;

 private:
  friend class EventScheduler;
  EventHandle(EventScheduler* scheduler, std::uint32_t slot,
              std::uint64_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  EventScheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class EventScheduler : public SimClock {
 public:
  EventScheduler() = default;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  SimTime Now() const override { return now_; }

  /// Schedule `fn` (any `void()` callable, moved or copied into the
  /// event's slot) to run at `when`.
  template <typename F>
  EventHandle ScheduleAt(SimTime when, F&& fn) {
    EXS_CHECK_MSG(when >= now_, "cannot schedule into the past");
    const std::uint32_t index = AcquireSlot();
    Slot& slot = SlotAt(index);
    slot.fn.Emplace(std::forward<F>(fn));
    slot.generation = next_seq_;
    slot.state = State::kPending;
    heap_.push_back(Key{when, next_seq_, index});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++next_seq_;
    ++pending_;
    return EventHandle(this, index, slot.generation);
  }

  template <typename F>
  EventHandle ScheduleAfter(SimDuration delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Run the next pending event.  Returns false when the queue is empty.
  bool Step() {
    while (!heap_.empty()) {
      const Key key = PopKey();
      Slot& slot = SlotAt(key.slot);
      if (slot.state == State::kCancelled) {
        ReleaseSlot(key.slot);
        continue;
      }
      now_ = key.when;
      slot.state = State::kRunning;
      --pending_;
      ++executed_;
      // Run in place: the slot is off the free list until the callback
      // returns, and a slab chunk added meanwhile does not move it.
      try {
        slot.fn();
      } catch (...) {
        ReleaseSlot(key.slot);
        throw;
      }
      ReleaseSlot(key.slot);
      return true;
    }
    return false;
  }

  /// Run until the event queue drains.
  void Run() {
    while (Step()) {
    }
  }

  /// Run events with time <= deadline; afterwards Now() == deadline unless
  /// the queue drained earlier.
  void RunUntil(SimTime deadline) {
    for (;;) {
      // Prune cancelled events first: a queue holding nothing else must
      // read as empty, not run past the deadline.
      PruneCancelled();
      if (heap_.empty() || heap_.front().when > deadline) break;
      Step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  /// Run until `done()` returns true or the queue drains.  Returns whether
  /// the predicate was satisfied.
  bool RunUntilPredicate(const std::function<bool()>& done) {
    while (!done()) {
      if (!Step()) return done();
    }
    return true;
  }

  bool Empty() const { return pending_ == 0; }

  /// Events still scheduled to run (cancelled ones excluded).
  std::size_t PendingCount() const { return pending_; }

  std::uint64_t ExecutedCount() const { return executed_; }

 private:
  friend class EventHandle;

  enum class State : std::uint8_t { kFree, kPending, kCancelled, kRunning };

  // Bookkeeping first, so it shares a cache line with the callback's
  // dispatch pointer and the start of a small closure.
  struct alignas(64) Slot {
    std::uint64_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    State state = State::kFree;
    InlineCallback fn;
  };

  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  Slot& SlotAt(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }

  std::uint32_t AcquireSlot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t index = free_head_;
      free_head_ = SlotAt(index).next_free;
      return index;
    }
    EXS_CHECK_MSG(slot_count_ < kNoSlot, "event slab exhausted");
    if ((slot_count_ & (kChunkSlots - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    return slot_count_++;
  }

  /// Destroy the slot's callback and put the slot on the free list.
  void ReleaseSlot(std::uint32_t index) {
    Slot& slot = SlotAt(index);
    slot.fn.Reset();
    slot.state = State::kFree;
    slot.next_free = free_head_;
    free_head_ = index;
  }

  Key PopKey() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    return key;
  }

  /// Pop cancelled events off the top of the heap, destroying their
  /// callbacks.
  void PruneCancelled() {
    while (!heap_.empty() &&
           SlotAt(heap_.front().slot).state == State::kCancelled) {
      ReleaseSlot(PopKey().slot);
    }
  }

  void Cancel(std::uint32_t index, std::uint64_t generation) {
    Slot& slot = SlotAt(index);
    if (slot.generation != generation || slot.state != State::kPending) {
      return;
    }
    // The callback is destroyed when its key is popped.
    slot.state = State::kCancelled;
    --pending_;
  }

  bool IsPending(std::uint32_t index, std::uint64_t generation) {
    const Slot& slot = SlotAt(index);
    return slot.generation == generation && slot.state == State::kPending;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
};

inline void EventHandle::Cancel() {
  if (scheduler_ != nullptr) scheduler_->Cancel(slot_, generation_);
  scheduler_ = nullptr;
}

inline bool EventHandle::Pending() const {
  return scheduler_ != nullptr && scheduler_->IsPending(slot_, generation_);
}

}  // namespace exs::simnet
