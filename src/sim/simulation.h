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

  /// Takes the key at(t, ...) would get now (t >= now()); at(EventKey) and
  /// spawn can use it later.
  EventKey reserve_event(Time t) {
    PAGODA_CHECK_MSG(t >= now_, "cannot schedule events in the past");
    return EventKey{t, queue_.reserve_seq()};
  }
  /// Takes the key a defer now would get.
  EventKey reserve_event() { return reserve_event(now_); }

  // Each verb takes the event's seq at the call (or at reserve_event()), so
  // events at one time run in that order. `defer(h)` resumes coroutine h.

  /// Schedules c at absolute time t (must be >= now()).
  EventId at(Time t, Continuation c) {
    PAGODA_CHECK_MSG(t >= now_, "cannot schedule events in the past");
    return queue_.schedule(t, queue_.reserve_seq(), c);
  }

  /// Schedules c after duration d (>= 0).
  EventId after(Duration d, Continuation c) {
    PAGODA_CHECK_MSG(d >= 0, "negative delay");
    return at(now_ + d, c);
  }

  /// Schedules c at the current time, after already-pending same-time events.
  EventId defer(Continuation c) { return at(now_, c); }

  /// Schedules c at a key taken from reserve_event() (not yet passed).
  EventId at(EventKey k, Continuation c) {
    PAGODA_CHECK_MSG(k > current_event(), "cannot schedule events in the past");
    return queue_.schedule(k.at, k.seq, c);
  }

  /// Cancels a pending event; false when it already fired, was already
  /// cancelled or is unknown (see EventQueue::cancel).
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves pending event `id` to time t (>= now()) with a fresh seq, exactly
  /// where cancel + at(t, same body) would put it. Returns the new id; the
  /// old one is retired (see EventQueue::retime).
  EventId retime(EventId id, Time t) {
    PAGODA_CHECK_MSG(t >= now_, "cannot schedule events in the past");
    return queue_.retime(id, t);
  }

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
        sim->after(d, h);
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
