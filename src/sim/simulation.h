// The simulation kernel: a virtual clock driving one event queue.
//
// Everything in the Pagoda reproduction — host CPU threads, PCIe transfers,
// GPU scheduler warps and executor warps, every node of a cluster — is a
// coroutine process advanced by one Simulation instance on one thread. Runs
// are deterministic: same inputs, same event trace, same timings. Events at
// equal timestamps fire in schedule order (the queue's global sequence
// number breaks ties; see event_queue.h and DESIGN.md §14).
#pragma once

#include <compare>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/time_types.h"
#include "sim/event_queue.h"
#include "sim/joinable.h"

namespace pagoda::sim {

class Process;

/// An event's place in the run order: events pop in (at, seq) order.
struct EventKey {
  Time at;
  std::uint64_t seq;
  auto operator<=>(const EventKey&) const = default;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // The scheduling accessors below are the hot path for every experiment
  // (fig5_overall schedules tens of millions of events), so they stay inline.

  /// Current virtual time.
  Time now() const { return now_; }

  /// Key of the event now running (between events: of the last one run).
  EventKey current_event() const { return EventKey{now_, seq_}; }

  /// Takes the key a defer now would get; at_resume/spawn can use it later.
  EventKey reserve_event() { return EventKey{now_, queue_.reserve_seq()}; }

  /// Schedules fn at absolute time t (must be >= now()).
  EventId at(Time t, std::function<void()> fn) {
    PAGODA_CHECK_MSG(t >= now_, "cannot schedule events in the past");
    return queue_.schedule(t, std::move(fn));
  }

  /// Schedules fn after duration d (>= 0).
  EventId after(Duration d, std::function<void()> fn) {
    PAGODA_CHECK_MSG(d >= 0, "negative delay");
    return at(now() + d, std::move(fn));
  }

  /// Schedules fn at the current time, after already-pending same-time events.
  EventId defer(std::function<void()> fn) { return at(now(), std::move(fn)); }

  // Resume fast paths: same scheduling semantics as at/after/defer, but the
  // event stores the bare coroutine handle — no callable object. Every wake
  // path in the simulator (delay, sync primitives, process joins) goes
  // through these.
  EventId at_resume(Time t, std::coroutine_handle<> h) {
    PAGODA_CHECK_MSG(t >= now_, "cannot schedule events in the past");
    return queue_.schedule_resume(t, queue_.reserve_seq(), h);
  }
  EventId after_resume(Duration d, std::coroutine_handle<> h) {
    PAGODA_CHECK_MSG(d >= 0, "negative delay");
    return at_resume(now() + d, h);
  }
  EventId defer_resume(std::coroutine_handle<> h) {
    return at_resume(now(), h);
  }
  /// Resumes h at a key taken from reserve_event() (not yet passed).
  EventId at_resume(EventKey k, std::coroutine_handle<> h) {
    PAGODA_CHECK_MSG(k > current_event(), "cannot schedule events in the past");
    return queue_.schedule_resume(k.at, k.seq, h);
  }

  /// Cancels a pending event; false when it already fired, was already
  /// cancelled or is unknown (see EventQueue::cancel).
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Starts a coroutine process. The process body begins executing at now()
  /// (after currently pending same-time events). Returns a handle on which
  /// other processes can `co_await handle.join()`.
  Joinable spawn(Process p);
  /// As spawn(p), but the body begins at a key taken from reserve_event().
  Joinable spawn(Process p, EventKey at);

  /// Awaitable: suspends the awaiting process for duration d.
  /// Usage inside a Process coroutine: `co_await sim.delay(d);`
  auto delay(Duration d) {
    struct Awaiter {
      Simulation* sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->after_resume(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Runs until the event queue drains. Returns the final time.
  Time run();

  /// Runs events with timestamp <= t, then sets now() = t.
  void run_until(Time t);

  /// Runs a single event if one exists; returns false when drained.
  bool step();

  std::size_t pending_events() const { return queue_.size(); }

 private:
  Time now_ = 0;
  std::uint64_t seq_ = 0;  // of the event now running
  EventQueue queue_;
};

}  // namespace pagoda::sim
