#include "exs/engine/progress_engine.hpp"

#include "common/check.hpp"

namespace exs::engine {

ProgressEngine::ProgressEngine(simnet::Cpu& cpu,
                               ProgressEngineOptions options,
                               metrics::Registry* registry)
    : cpu_(&cpu), options_(options) {
  EXS_CHECK_MSG(options_.max_events_per_tick > 0, "tick budget must be > 0");
  EXS_CHECK_MSG(options_.quantum > 0, "DRR quantum must be > 0");
  if (registry != nullptr) {
    registry->Bind("engine.ticks", "ticks", ticks_);
    registry->Bind("engine.events_dispatched", "events", events_dispatched_);
    registry->Bind("engine.tick_duration", "ps", tick_duration_);
    registry->Bind("engine.sched_delay", "ps", sched_delay_);
    ready_series_ = &registry->GetSeries("engine.ready_depth", "sockets");
    registered_series_ =
        &registry->GetSeries("engine.sockets_registered", "sockets");
  }
}

void ProgressEngine::Register(Socket* socket, EventHandler handler) {
  EXS_CHECK_MSG(socket != nullptr, "Register(nullptr)");
  EXS_CHECK_MSG(entries_.find(socket) == entries_.end(),
                "socket already registered with the engine");
  auto entry = std::make_unique<Entry>();
  entry->socket = socket;
  entry->handler = std::move(handler);
  // Per-socket DRR-queue delay: lives in the socket's own registry so it
  // lands in the same snapshot as the socket's rail/stream instruments.
  entry->sched_delay =
      &socket->metrics_registry().GetHistogram("engine.sched_delay", "ps");
  entries_.emplace(socket, std::move(entry));
  if (registered_series_ != nullptr) {
    registered_series_->Record(cpu_->scheduler().Now(),
                               static_cast<double>(entries_.size()));
  }
  // Fires immediately if events are already queued, and thereafter on each
  // empty→non-empty edge.
  socket->events().SetReadinessWatcher(
      [this, socket] { NoteReadable(socket); });
}

void ProgressEngine::Unregister(Socket* socket) {
  auto it = entries_.find(socket);
  if (it == entries_.end()) return;
  socket->events().SetReadinessWatcher(nullptr);
  if (it->second.get() == serving_) {
    // Called from inside this socket's own event handler (kPeerClosed
    // teardown is the natural case).  The dispatch loop still holds a
    // reference to the entry, so detach it from the map but keep it alive
    // as a zombie until the loop unwinds; the dead flag stops dispatch
    // before the next event.
    it->second->dead = true;
    zombie_ = std::move(it->second);
  }
  entries_.erase(it);  // a stale ready_ entry is skipped by the lookup
  if (registered_series_ != nullptr) {
    registered_series_->Record(cpu_->scheduler().Now(),
                               static_cast<double>(entries_.size()));
  }
}

void ProgressEngine::NoteReadable(Socket* socket) {
  auto it = entries_.find(socket);
  if (it == entries_.end()) return;
  Entry& entry = *it->second;
  if (!entry.in_ready) {
    entry.in_ready = true;
    entry.ready_since = cpu_->scheduler().Now();
    ready_.push_back(socket);
    if (ready_series_ != nullptr) {
      ready_series_->Record(cpu_->scheduler().Now(),
                            static_cast<double>(ready_.size()));
    }
  }
  ScheduleTick();
}

void ProgressEngine::ScheduleTick() {
  if (tick_scheduled_ || ready_.empty()) return;
  tick_scheduled_ = true;
  // The work dispatched by the previous tick is what delays this one:
  // application event handling serialises on the node CPU.
  SimDuration cost =
      options_.tick_overhead +
      static_cast<SimDuration>(last_tick_events_) * options_.per_event_cpu;
  tick_duration_.Record(static_cast<std::uint64_t>(cost));
  cpu_->Submit(cost, [this] {
    tick_scheduled_ = false;
    Tick();
  });
}

std::size_t ProgressEngine::Serve(Entry& entry, std::size_t budget) {
  entry.deficit += options_.quantum;
  std::size_t dispatched = 0;
  Event ev;
  while (entry.deficit > 0 && dispatched < budget &&
         entry.socket->events().Poll(&ev)) {
    --entry.deficit;
    ++dispatched;
    if (entry.handler) entry.handler(*entry.socket, ev);
    // The handler may have Unregister()ed this very socket; the entry is
    // then a detached zombie and neither it nor its socket (which the
    // caller may be tearing down) can be touched again.
    if (entry.dead) break;
    if (ev.type == EventType::kPeerClosed) {
      // Reclaim-on-idle: the incoming stream is done; hand a pool-leased
      // ring back the moment it can never be written again.
      entry.socket->TryReleaseRxRing();
    }
  }
  return dispatched;
}

void ProgressEngine::Tick() {
  ticks_.Increment();
  std::size_t budget = options_.max_events_per_tick;
  // Each pass serves the head socket one quantum and rotates it to the
  // tail while it still has events — classic DRR over the ready-list.
  // Terminates: every iteration either dispatches at least one event
  // (budget shrinks) or drops a drained/unregistered head (list shrinks).
  while (budget > 0 && !ready_.empty()) {
    Socket* socket = ready_.front();
    ready_.pop_front();
    auto it = entries_.find(socket);
    if (it == entries_.end()) continue;  // unregistered while ready
    Entry& entry = *it->second;
    // DRR scheduling delay: how long this socket waited in the ready-list
    // (or at the tail since its last quantum) before being served.
    const auto waited = static_cast<std::uint64_t>(
        cpu_->scheduler().Now() - entry.ready_since);
    sched_delay_.Record(waited);
    entry.sched_delay->Record(waited);
    serving_ = &entry;
    std::size_t dispatched = Serve(entry, budget);
    serving_ = nullptr;
    budget -= dispatched;
    events_dispatched_.Add(dispatched);
    if (entry.dead) {
      // Unregistered from inside its own handler: drop the detached entry
      // now that nothing references it.  Its remaining events stay queued
      // for direct polling, exactly as a between-dispatch Unregister.
      zombie_.reset();
      continue;
    }
    if (entry.socket->events().Depth() > 0) {
      entry.deficit = entry.deficit > options_.quantum ? options_.quantum
                                                       : entry.deficit;
      entry.ready_since = cpu_->scheduler().Now();
      ready_.push_back(socket);  // still ready: back of the line
    } else {
      entry.in_ready = false;
      entry.deficit = 0;
      entry.socket->events().RearmWatcher();
    }
  }
  if (ready_series_ != nullptr) {
    ready_series_->Record(cpu_->scheduler().Now(),
                          static_cast<double>(ready_.size()));
  }
  last_tick_events_ = options_.max_events_per_tick - budget;
  ScheduleTick();  // no-op when the ready-list drained
}

}  // namespace exs::engine
