// The fair progress engine: thousands of sockets, one poll loop.
//
// Server applications cannot afford a handler per socket charging CPU on
// every completion — the paper's handler mode models a dedicated reactor
// per connection, which is exactly what does not scale.  The engine is the
// epoll analogue: each registered socket's EventQueue signals an
// edge-triggered readiness watcher on its empty→non-empty transition, the
// engine keeps a ready-list of exactly those sockets, and a tick drains
// them with
//
//   * bounded work per tick — at most max_events_per_tick events are
//     dispatched before the engine yields the CPU and reschedules itself,
//     so one tick can never freeze the node, and
//   * deficit-round-robin fairness — each ready socket accumulates
//     `quantum` events of deficit per visit and is put back at the tail
//     while it still has queued events, so a firehose connection cannot
//     starve a trickle.
//
// CPU accounting: a tick is submitted to the node CPU with cost
// tick_overhead + (events dispatched by the previous tick) x per_event_cpu
// — the application work done in one tick delays the next, which is how
// receiver-side serialisation enters the timing model at engine scale.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/metrics.hpp"
#include "exs/socket.hpp"
#include "simnet/cpu.hpp"

namespace exs::engine {

struct ProgressEngineOptions {
  std::size_t max_events_per_tick = 64;
  std::size_t quantum = 4;  ///< DRR deficit added per ready-list visit
  SimDuration tick_overhead = 0;   ///< fixed CPU cost of entering a tick
  SimDuration per_event_cpu = 0;   ///< CPU cost per dispatched event
};

class ProgressEngine {
 public:
  using EventHandler = std::function<void(Socket&, const Event&)>;

  /// `registry` (optional) names the engine.* instruments.
  ProgressEngine(simnet::Cpu& cpu, ProgressEngineOptions options,
                 metrics::Registry* registry = nullptr);

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Watch `socket` and dispatch its events through `handler` from the
  /// engine's tick loop.  The socket must outlive its registration.  A
  /// kPeerClosed event additionally triggers ring-lease reaping
  /// (Socket::TryReleaseRxRing) after the handler runs.
  void Register(Socket* socket, EventHandler handler);

  /// Stop watching `socket` (idempotent).  Pending events stay in its
  /// queue for direct polling; the engine just no longer dispatches them.
  /// Safe to call from inside an event handler — including on the socket
  /// currently being served: dispatch for that socket stops before the
  /// next event, and no further event of the current batch is delivered.
  void Unregister(Socket* socket);

  std::size_t RegisteredCount() const { return entries_.size(); }
  std::size_t ReadyCount() const { return ready_.size(); }
  std::uint64_t TicksRun() const { return ticks_.value(); }
  std::uint64_t EventsDispatched() const { return events_dispatched_.value(); }

 private:
  struct Entry {
    Socket* socket = nullptr;
    EventHandler handler;
    std::size_t deficit = 0;
    bool in_ready = false;
    /// When this socket last (re-)entered the ready-list; the gap to the
    /// serve that follows is its DRR scheduling delay.
    SimTime ready_since = 0;
    /// Per-socket "engine.sched_delay" histogram, resolved from the
    /// socket's own registry at Register time (per-DRR-queue HoL view).
    metrics::Histogram* sched_delay = nullptr;
    /// Unregistered from inside its own event handler while the dispatch
    /// loop still holds a reference: the entry is detached from entries_
    /// and parked in zombie_ until the loop lets go of it.
    bool dead = false;
  };

  void NoteReadable(Socket* socket);
  void ScheduleTick();
  void Tick();
  /// Serve one ready socket within `budget`; returns events dispatched.
  std::size_t Serve(Entry& entry, std::size_t budget);

  simnet::Cpu* cpu_;
  ProgressEngineOptions options_;
  std::unordered_map<Socket*, std::unique_ptr<Entry>> entries_;
  Entry* serving_ = nullptr;         ///< entry whose handler is running
  std::unique_ptr<Entry> zombie_;    ///< serving_ unregistered mid-dispatch
  std::deque<Socket*> ready_;
  bool tick_scheduled_ = false;
  std::size_t last_tick_events_ = 0;  ///< charged to the next tick's cost

  metrics::Counter ticks_;
  metrics::Counter events_dispatched_;
  /// Modeled CPU cost charged for each tick (overhead + prior work).
  metrics::Histogram tick_duration_;
  /// Ready→served wait across all sockets (per-socket copies in Entry).
  metrics::Histogram sched_delay_;
  metrics::TimeWeightedSeries* ready_series_ = nullptr;
  metrics::TimeWeightedSeries* registered_series_ = nullptr;
};

}  // namespace exs::engine
