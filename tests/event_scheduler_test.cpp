#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "simnet/event_scheduler.hpp"

namespace exs::simnet {
namespace {

TEST(EventScheduler, RunsEventsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(300, [&] { order.push_back(3); });
  sched.ScheduleAt(100, [&] { order.push_back(1); });
  sched.ScheduleAt(200, [&] { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), 300);
}

TEST(EventScheduler, TiesBreakInSchedulingOrder) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, ScheduleAfterUsesCurrentTime) {
  EventScheduler sched;
  SimTime seen = -1;
  sched.ScheduleAt(100, [&] {
    sched.ScheduleAfter(50, [&] { seen = sched.Now(); });
  });
  sched.Run();
  EXPECT_EQ(seen, 150);
}

TEST(EventScheduler, CancelPreventsExecution) {
  EventScheduler sched;
  bool ran = false;
  EventHandle h = sched.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(h.Pending());
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  sched.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched.ExecutedCount(), 0u);
}

TEST(EventScheduler, CancelAfterExecutionIsHarmless) {
  EventScheduler sched;
  EventHandle h = sched.ScheduleAt(10, [] {});
  sched.Run();
  EXPECT_FALSE(h.Pending());
  h.Cancel();  // no-op
}

TEST(EventScheduler, RunUntilStopsAtDeadline) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(100, [&] { order.push_back(1); });
  sched.ScheduleAt(200, [&] { order.push_back(2); });
  sched.RunUntil(150);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.Now(), 150);
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventScheduler, RunForAdvancesRelative) {
  EventScheduler sched;
  sched.ScheduleAt(100, [] {});
  sched.RunFor(100);
  EXPECT_EQ(sched.Now(), 100);
  sched.RunFor(25);
  EXPECT_EQ(sched.Now(), 125);
}

TEST(EventScheduler, RunUntilPredicate) {
  EventScheduler sched;
  int count = 0;
  for (int t = 1; t <= 10; ++t) {
    sched.ScheduleAt(t, [&] { ++count; });
  }
  EXPECT_TRUE(sched.RunUntilPredicate([&] { return count == 4; }));
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(sched.RunUntilPredicate([&] { return count == 100; }));
  EXPECT_EQ(count, 10);
}

TEST(EventScheduler, SchedulingIntoThePastThrows) {
  EventScheduler sched;
  sched.ScheduleAt(100, [] {});
  sched.Run();
  EXPECT_THROW(sched.ScheduleAt(50, [] {}), InvariantViolation);
}

TEST(EventScheduler, EventsScheduledDuringRunExecute) {
  EventScheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.ScheduleAfter(5, recurse);
  };
  sched.ScheduleAt(0, recurse);
  sched.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.Now(), 45);
}

TEST(EventScheduler, PendingCountIgnoresCancelled) {
  EventScheduler sched;
  EventHandle a = sched.ScheduleAt(10, [] {});
  sched.ScheduleAt(20, [] {});
  EXPECT_EQ(sched.PendingCount(), 2u);
  a.Cancel();
  EXPECT_EQ(sched.PendingCount(), 1u);
}

// A handle whose event has run (or been cancelled and popped) keeps naming
// its old slot.  The free list hands that slot to the next event, and the
// stale handle must neither report nor cancel the new occupant.
TEST(EventScheduler, StaleHandleIgnoresRecycledSlot) {
  EventScheduler sched;
  EventHandle ran = sched.ScheduleAt(10, [] {});
  sched.Run();
  int fired = 0;
  EventHandle occupant = sched.ScheduleAt(20, [&] { ++fired; });
  EXPECT_FALSE(ran.Pending());
  ran.Cancel();
  EXPECT_TRUE(occupant.Pending());

  EventHandle cancelled = sched.ScheduleAt(30, [] {});
  EventHandle copy = cancelled;
  cancelled.Cancel();
  sched.RunUntil(25);  // runs `occupant` and pops the cancelled key
  EventHandle next = sched.ScheduleAt(40, [&] { ++fired; });
  EXPECT_FALSE(copy.Pending());
  copy.Cancel();
  EXPECT_TRUE(next.Pending());
  sched.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.ExecutedCount(), 3u);
}

TEST(EventScheduler, CancelFromOwnCallbackIsANoOp) {
  EventScheduler sched;
  EventHandle self;
  bool pending_inside = true;
  self = sched.ScheduleAt(10, [&] {
    pending_inside = self.Pending();
    self.Cancel();
  });
  sched.ScheduleAt(20, [] {});
  sched.Run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(sched.ExecutedCount(), 2u);
  EXPECT_EQ(sched.PendingCount(), 0u);
  EXPECT_TRUE(sched.Empty());
}

// A queue holding only cancelled events reads as empty: RunUntil must
// stop at the deadline, not run past it or trip on an empty queue.
TEST(EventScheduler, RunUntilOverOnlyCancelledEventsReachesDeadline) {
  EventScheduler sched;
  EventHandle a = sched.ScheduleAt(50, [] {});
  EventHandle b = sched.ScheduleAt(70, [] {});
  a.Cancel();
  b.Cancel();
  sched.RunUntil(100);
  EXPECT_EQ(sched.Now(), 100);
  EXPECT_EQ(sched.ExecutedCount(), 0u);
  EXPECT_EQ(sched.PendingCount(), 0u);
}

// Counts destructions of live (not moved-from) instances.
struct DestructionCounter {
  explicit DestructionCounter(int* count) : count(count) {}
  DestructionCounter(DestructionCounter&& other) noexcept
      : count(std::exchange(other.count, nullptr)) {}
  DestructionCounter& operator=(DestructionCounter&&) = delete;
  ~DestructionCounter() {
    if (count != nullptr) ++*count;
  }
  int* count;
};

TEST(EventScheduler, MoveOnlyCaptureRunsAndIsDestroyedOnce) {
  int destroyed = 0;
  int runs = 0;
  {
    EventScheduler sched;
    auto owned = std::make_unique<DestructionCounter>(&destroyed);
    sched.ScheduleAt(10, [owned = std::move(owned), &runs] { ++runs; });
    EventHandle dropped = sched.ScheduleAt(
        20, [owned = std::make_unique<DestructionCounter>(&destroyed)] {});
    sched.ScheduleAt(30, [owned = std::make_unique<DestructionCounter>(
                              &destroyed)] {});  // never run
    dropped.Cancel();
    sched.RunUntil(25);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 2);  // the run one and the popped cancelled one
  }
  EXPECT_EQ(destroyed, 3);  // the scheduler destroys what never ran
}

TEST(EventScheduler, OversizedCaptureRunsAndIsDestroyedOnce) {
  int destroyed = 0;
  int runs = 0;
  std::array<std::uint64_t, 32> big{};
  big[31] = 7;
  auto oversized = [big, counter = DestructionCounter(&destroyed), &runs] {
    runs += static_cast<int>(big[31]);
  };
  static_assert(!InlineCallback::kStoresInline<decltype(oversized)>,
                "the capture must take the heap path");
  {
    EventScheduler sched;
    sched.ScheduleAt(10, std::move(oversized));
    sched.ScheduleAt(20, [big, counter = DestructionCounter(&destroyed)] {})
        .Cancel();
    sched.Run();
    EXPECT_EQ(runs, 7);
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 2);
}

// A callback runs in its slot.  Scheduling more events than one slab chunk
// holds from inside it grows the slab, which must not move the running
// callback or its captures.
TEST(EventScheduler, CallbackOutlivesSlabGrowthWhileRunning) {
  constexpr int kEvents = 3000;  // several 1 Ki-slot chunks
  EventScheduler sched;
  std::vector<int> order;
  std::array<std::uint64_t, 8> sentinel{};
  sentinel.fill(0x5eed);
  bool intact = false;
  sched.ScheduleAt(0, [&sched, &order, &intact, sentinel] {
    for (int i = 0; i < kEvents; ++i) {
      sched.ScheduleAt(i % 3, [&order, i] { order.push_back(i); });
    }
    intact = true;
    for (std::uint64_t word : sentinel) intact = intact && word == 0x5eed;
  });
  sched.Run();
  EXPECT_TRUE(intact);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  // Same-instant events run in scheduling order.
  std::vector<int> expected;
  for (int t = 0; t < 3; ++t) {
    for (int i = t; i < kEvents; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.ExecutedCount(), static_cast<std::uint64_t>(kEvents) + 1);
}

// The scheduler as it stood before slab records: a shared_ptr record per
// event in a std::priority_queue, with weak_ptr handles.  The property test
// below replays random operation sequences against it.
class ReferenceScheduler {
 public:
  struct Record {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    bool cancelled = false;
    bool executed = false;
  };
  struct Handle {
    void Cancel() {
      if (auto rec = record.lock()) rec->cancelled = true;
      record.reset();
    }
    bool Pending() const {
      auto rec = record.lock();
      return rec && !rec->cancelled && !rec->executed;
    }
    std::weak_ptr<Record> record;
  };

  SimTime Now() const { return now_; }

  Handle ScheduleAt(SimTime when, std::function<void()> fn) {
    auto rec = std::make_shared<Record>();
    rec->when = when;
    rec->seq = next_seq_++;
    rec->fn = std::move(fn);
    queue_.push(rec);
    return Handle{rec};
  }

  bool Step() {
    while (!queue_.empty()) {
      auto rec = queue_.top();
      queue_.pop();
      if (rec->cancelled) continue;
      now_ = rec->when;
      rec->executed = true;
      ++executed_;
      auto fn = std::move(rec->fn);
      fn();
      return true;
    }
    return false;
  }

  void RunUntil(SimTime deadline) {
    for (;;) {
      while (!queue_.empty() && queue_.top()->cancelled) queue_.pop();
      if (queue_.empty() || queue_.top()->when > deadline) break;
      Step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  std::size_t PendingCount() const {
    std::size_t n = 0;
    for (auto copy = queue_; !copy.empty(); copy.pop()) {
      if (!copy.top()->cancelled) ++n;
    }
    return n;
  }

  std::uint64_t ExecutedCount() const { return executed_; }

 private:
  struct Later {
    bool operator()(const std::shared_ptr<Record>& a,
                    const std::shared_ptr<Record>& b) const {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<std::shared_ptr<Record>,
                      std::vector<std::shared_ptr<Record>>, Later>
      queue_;
};

constexpr std::array<SimTime, 6> kDelays = {0, 0, 1, 2, 7, 50};

// Drives one scheduler through an operation sequence.  What an event does
// when it runs (schedule children, cancel an event, re-arm a timer) is a
// pure function of (seed, event id), and ids are handed out in scheduling
// order, so two schedulers that agree step by step also issue the same
// nested operations.
template <typename Sched, typename Handle>
class Driver {
 public:
  explicit Driver(std::uint64_t seed) : seed_(seed) {}

  void Schedule(SimTime delay) { handles.push_back(Arm(delay)); }

  void Cancel(std::uint64_t id) { handles[id].Cancel(); }

  /// The flush-timer idiom: cancel the timer's event, arm a new one.
  void Rearm(std::size_t timer, SimTime delay) {
    timers_[timer].Cancel();
    timers_[timer] = Arm(delay);
    handles.push_back(timers_[timer]);
  }

  Sched sched;
  std::vector<Handle> handles;
  std::vector<std::uint64_t> order;

 private:
  Handle Arm(SimTime delay) {
    const std::uint64_t id = handles.size();
    return sched.ScheduleAt(sched.Now() + delay, [this, id] { Fire(id); });
  }

  void Fire(std::uint64_t id) {
    order.push_back(id);
    // SplitMix64 finaliser over (seed, id): one word of action bits.
    std::uint64_t h = seed_ + (id + 1) * 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    if (h % 3 == 0) {
      const int children = 1 + static_cast<int>((h >> 2) & 1);
      for (int i = 0; i < children; ++i) {
        Schedule(kDelays[(h >> (4 + 3 * i)) % kDelays.size()]);
      }
    }
    // The target may be this very event, one already run, or one pending.
    if ((h >> 12) % 4 == 0) Cancel((h >> 16) % (id + 1));
    if ((h >> 24) % 8 == 0) {
      Rearm((h >> 28) % timers_.size(), kDelays[(h >> 32) % kDelays.size()]);
    }
  }

  std::uint64_t seed_;
  std::array<Handle, 4> timers_;
};

using SlabDriver = Driver<EventScheduler, EventHandle>;
using ReferenceDriver =
    Driver<ReferenceScheduler, ReferenceScheduler::Handle>;

::testing::AssertionResult SameState(const SlabDriver& dut,
                                     const ReferenceDriver& ref) {
  if (dut.order != ref.order) {
    return ::testing::AssertionFailure() << "execution order diverged";
  }
  if (dut.sched.Now() != ref.sched.Now()) {
    return ::testing::AssertionFailure()
           << "Now() " << dut.sched.Now() << " vs " << ref.sched.Now();
  }
  if (dut.sched.ExecutedCount() != ref.sched.ExecutedCount()) {
    return ::testing::AssertionFailure() << "ExecutedCount() diverged";
  }
  if (dut.sched.PendingCount() != ref.sched.PendingCount()) {
    return ::testing::AssertionFailure()
           << "PendingCount() " << dut.sched.PendingCount() << " vs "
           << ref.sched.PendingCount();
  }
  for (std::size_t id = 0; id < ref.handles.size(); ++id) {
    if (dut.handles[id].Pending() != ref.handles[id].Pending()) {
      return ::testing::AssertionFailure() << "Pending() of event " << id;
    }
  }
  return ::testing::AssertionSuccess();
}

// Differential test: random ScheduleAt / Cancel / re-arm / Step / RunUntil
// sequences, with events that schedule, cancel and re-arm from inside
// their own callbacks and many same-instant ties, must leave the slab
// scheduler and the reference model in the same state after every step.
TEST(EventScheduler, MatchesReferenceModelOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    SlabDriver dut(seed);
    ReferenceDriver ref(seed);
    for (int op = 0; op < 300; ++op) {
      switch (rng.NextBelow(10)) {
        case 0:
        case 1:
        case 2: {
          const SimTime delay = rng.NextBelow(2) == 0
                                    ? kDelays[rng.NextBelow(kDelays.size())]
                                    : static_cast<SimTime>(rng.NextBelow(100));
          dut.Schedule(delay);
          ref.Schedule(delay);
          break;
        }
        case 3:
          if (!ref.handles.empty()) {
            const std::uint64_t id = rng.NextBelow(ref.handles.size());
            dut.Cancel(id);
            ref.Cancel(id);
          }
          break;
        case 4: {
          const std::size_t timer = rng.NextBelow(4);
          const SimTime delay = kDelays[rng.NextBelow(kDelays.size())];
          dut.Rearm(timer, delay);
          ref.Rearm(timer, delay);
          break;
        }
        case 5:
        case 6:
        case 7:
          ASSERT_EQ(dut.sched.Step(), ref.sched.Step());
          break;
        case 8: {
          const SimTime deadline =
              ref.sched.Now() + static_cast<SimTime>(rng.NextBelow(60));
          dut.sched.RunUntil(deadline);
          ref.sched.RunUntil(deadline);
          break;
        }
        default:
          for (int i = 0; i < 5; ++i) {
            ASSERT_EQ(dut.sched.Step(), ref.sched.Step());
          }
          break;
      }
      ASSERT_TRUE(SameState(dut, ref)) << "after op " << op;
    }
    while (ref.sched.Step()) {
      ASSERT_TRUE(dut.sched.Step());
      ASSERT_TRUE(SameState(dut, ref));
    }
    EXPECT_FALSE(dut.sched.Step());
    EXPECT_TRUE(dut.sched.Empty());
  }
}

}  // namespace
}  // namespace exs::simnet
