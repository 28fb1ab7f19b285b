// Completion queues with event notification.
//
// The paper's measurements all use event notification rather than busy
// polling (§IV-B), and that choice matters: the wake-up latency between a
// completion landing and the application reacting is a large part of why a
// fast sender outruns ADVERT replenishment.  The model here reproduces the
// standard completion-channel pattern: the first completion after idle pays
// the notification latency, then the handler drains the queue work by work
// on the node CPU (one per-event CPU charge each), then re-arms.
//
// Tests may instead poll the queue directly (no handler installed), which
// costs nothing — the busy-polling mode the paper contrasts against.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "simnet/cpu.hpp"
#include "simnet/event_scheduler.hpp"
#include "verbs/types.hpp"

namespace exs::verbs {

class CompletionQueue {
 public:
  CompletionQueue(simnet::EventScheduler& scheduler, simnet::Cpu& cpu,
                  SimDuration notify_delay, SimDuration per_event_cpu)
      : scheduler_(&scheduler),
        cpu_(&cpu),
        notify_delay_(notify_delay),
        per_event_cpu_(per_event_cpu) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Model interrupt-latency variance: each wake-up's notification delay
  /// is scaled by a uniform factor in [1-fraction, 1+fraction].  Real
  /// event-channel wake-ups vary widely, and the variance matters to the
  /// protocol: a long sender-side stall is the window in which the
  /// receiver catches up and resynchronises.
  void SetNotifyJitter(double fraction, std::uint64_t seed) {
    notify_jitter_ = fraction;
    rng_.Seed(seed);
  }

  /// Install the event handler (completion-channel mode).  Every queued and
  /// future completion will be delivered to `handler` on the node CPU.
  void SetHandler(std::function<void(const WorkCompletion&)> handler) {
    handler_ = std::move(handler);
    MaybeScheduleWakeup();
  }

  /// Batched handler dispatch — the ibv_poll_cq loop idiom: one wake-up
  /// drains up to `max_n` queued completions in a single CPU pass, so
  /// every handler in the drain runs at the same simulated instant.  The
  /// per-event CPU charge still accrues per completion (the pass costs
  /// n * per_event_cpu); what changes is the clumping, which is what lets
  /// an upper layer batch the work requests it posts in response (doorbell
  /// batching rings once for the whole drain).  1 — the default — is one
  /// completion per pass: each handler runs after its own per-event charge.
  void SetDispatchBatch(std::size_t max_n) {
    EXS_CHECK_MSG(max_n >= 1, "dispatch batch must be at least 1");
    dispatch_batch_ = max_n;
  }

  /// Poll one completion (busy-polling mode); returns false if empty.
  /// Only meaningful when no handler is installed.
  bool Poll(WorkCompletion* out) {
    if (queue_.empty()) return false;
    *out = queue_.front();
    queue_.pop_front();
    return true;
  }

  /// Drain up to `max_n` completions into `out` in arrival order — the
  /// batched ibv_poll_cq idiom: one poll call amortised over a burst of
  /// completions.  Returns how many were written; 0 means empty.  Only
  /// meaningful when no handler is installed.
  std::size_t PollBatch(WorkCompletion* out, std::size_t max_n) {
    std::size_t n = 0;
    while (n < max_n && !queue_.empty()) {
      out[n++] = queue_.front();
      queue_.pop_front();
    }
    return n;
  }

  std::size_t Depth() const { return queue_.size(); }
  std::uint64_t TotalCompletions() const { return total_; }

  /// Internal: called by queue pairs when an operation completes.
  void Push(WorkCompletion wc) {
    queue_.push_back(wc);
    ++total_;
    MaybeScheduleWakeup();
  }

 private:
  void MaybeScheduleWakeup() {
    if (!handler_ || wakeup_pending_ || queue_.empty()) return;
    wakeup_pending_ = true;
    SimDuration delay = notify_delay_;
    if (notify_jitter_ > 0.0 && delay > 0) {
      double factor = 1.0 + notify_jitter_ * (2.0 * rng_.NextDouble() - 1.0);
      delay = static_cast<SimDuration>(static_cast<double>(delay) * factor);
    }
    scheduler_->ScheduleAfter(delay, [this] { SubmitDrain(); });
  }

  /// One dispatch pass: charge the CPU for everything visible now (up to
  /// the batch bound), then run those handlers back to back.
  /// Completions landing while the pass executes wait for the next one —
  /// a real poll loop would likewise only see them on its next ibv_poll_cq.
  void SubmitDrain() {
    std::size_t n = queue_.size() < dispatch_batch_ ? queue_.size()
                                                    : dispatch_batch_;
    if (n == 0 || !handler_) {
      wakeup_pending_ = false;
      return;
    }
    cpu_->Submit(per_event_cpu_ * static_cast<SimDuration>(n),
                 [this, n] { HandleBatch(n); });
  }

  void HandleBatch(std::size_t n) {
    for (std::size_t i = 0; i < n && !queue_.empty() && handler_; ++i) {
      WorkCompletion wc = queue_.front();
      queue_.pop_front();
      handler_(wc);
    }
    if (!queue_.empty() && handler_) {
      // Already awake: next pass, no notification latency.
      SubmitDrain();
    } else {
      wakeup_pending_ = false;
    }
  }

  simnet::EventScheduler* scheduler_;
  simnet::Cpu* cpu_;
  SimDuration notify_delay_;
  SimDuration per_event_cpu_;
  double notify_jitter_ = 0.0;
  Rng rng_;
  std::function<void(const WorkCompletion&)> handler_;
  std::deque<WorkCompletion> queue_;
  std::size_t dispatch_batch_ = 1;
  bool wakeup_pending_ = false;
  std::uint64_t total_ = 0;
};

}  // namespace exs::verbs
