// A node's CPU as a serially-shared resource.
//
// Everything a host does in software — processing a completion, running the
// EXS library's matching logic, and above all copying bytes out of the
// intermediate receive buffer — occupies the CPU for a modelled duration.
// Tasks queue FIFO, so a long memcpy delays subsequent completions and ACKs
// exactly the way it does on real hardware.  Cumulative busy time divided by
// elapsed time reproduces the paper's receiver CPU-usage measurements
// (Fig. 10).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simnet/event_scheduler.hpp"
#include "simnet/inline_callback.hpp"

namespace exs::simnet {

class Cpu {
 public:
  explicit Cpu(EventScheduler& scheduler) : scheduler_(&scheduler) {}

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Model OS scheduling noise: each task's cost is scaled by a uniform
  /// factor in [1-fraction, 1+fraction].  Deterministic for a seed.  Real
  /// hosts always have this jitter, and it matters for the protocol: brief
  /// stalls open the drain windows in which the receiver resynchronises.
  void SetJitter(double fraction, std::uint64_t seed) {
    EXS_CHECK(fraction >= 0.0 && fraction < 1.0);
    jitter_ = fraction;
    rng_.Seed(seed);
  }

  /// Fault injection (simnet/faults.hpp): scale every task's cost by
  /// `factor` while a slow-host window is open — a throttled or contended
  /// core, which above all slows the receiver's copy-out path.  Multiplied
  /// so overlapping windows compose; DivideCostFactor closes one window.
  void MultiplyCostFactor(double factor) {
    EXS_CHECK(factor > 0.0);
    cost_factor_ *= factor;
  }
  void DivideCostFactor(double factor) {
    EXS_CHECK(factor > 0.0);
    cost_factor_ /= factor;
  }
  double cost_factor() const { return cost_factor_; }

  /// Fault injection: occupy the CPU for `stall` doing nothing — an OS
  /// preemption.  FIFO like any task, so already-queued work runs first
  /// and everything behind the stall (copies, completion handling, ACKs)
  /// slips by its length.  Bypasses the jitter RNG so arming a stall does
  /// not perturb the jitter sequence of real tasks.
  void InjectStall(SimDuration stall) {
    EXS_CHECK(stall >= 0);
    ++stalls_injected_;
    Enqueue(stall, nullptr);
  }
  std::uint64_t StallsInjected() const { return stalls_injected_; }

  /// Enqueue `work` (any `void()` callable) to run after the CPU has been
  /// busy for `cost`.  The callback executes at the task's completion
  /// instant.
  template <typename F>
  void Submit(SimDuration cost, F&& work) {
    EXS_CHECK(cost >= 0);
    if (jitter_ > 0.0 && cost > 0) {
      double factor = 1.0 + jitter_ * (2.0 * rng_.NextDouble() - 1.0);
      cost = static_cast<SimDuration>(static_cast<double>(cost) * factor);
    }
    if (cost_factor_ != 1.0) {
      cost = static_cast<SimDuration>(static_cast<double>(cost) *
                                      cost_factor_);
    }
    Enqueue(cost, std::forward<F>(work));
  }

  /// Total time this CPU has spent executing tasks.
  SimDuration BusyTime() const { return busy_; }

  /// Number of tasks executed to completion.
  std::uint64_t CompletedTasks() const { return completed_; }

  /// Tasks waiting or executing.
  std::size_t QueueDepth() const { return tasks_.size(); }

  bool Idle() const { return tasks_.empty(); }

  EventScheduler& scheduler() { return *scheduler_; }

 private:
  struct Task {
    template <typename F>
    Task(SimDuration c, F&& w) : cost(c), work(std::forward<F>(w)) {}
    SimDuration cost;
    InlineCallback work;
  };

  template <typename F>
  void Enqueue(SimDuration cost, F&& work) {
    tasks_.emplace_back(cost, std::forward<F>(work));
    if (tasks_.size() == 1) StartFront();
  }

  // The front task is the running one.  It stays in place (std::deque
  // keeps element addresses across push_back) until its completion event,
  // which captures only `this`, has run its work.
  void StartFront() {
    scheduler_->ScheduleAfter(tasks_.front().cost,
                              [this] { CompleteFront(); });
  }

  void CompleteFront() {
    Task& task = tasks_.front();
    busy_ += task.cost;
    ++completed_;
    // Run the work before starting the next task so that work submitted
    // from inside a callback lands behind already-queued tasks.
    if (task.work) task.work();
    tasks_.pop_front();
    if (!tasks_.empty()) StartFront();
  }

  EventScheduler* scheduler_;
  std::deque<Task> tasks_;
  double jitter_ = 0.0;
  double cost_factor_ = 1.0;
  Rng rng_;
  SimDuration busy_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t stalls_injected_ = 0;
};

}  // namespace exs::simnet
