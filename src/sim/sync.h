// Virtual-time synchronization primitives for simulation processes.
//
//  - Condition: broadcast/one wakeup.
//  - SlotCondition: a broadcast that starts workers only for slots handed work.
//  - Trigger:   one-shot latch; waits complete immediately once fired, and
//    fire callbacks are event continuations.
//  - Semaphore: counting semaphore (used for resource slots like HyperQ's
//    32 hardware connections).
//
// All primitives follow CP.42 ("don't wait without a condition"): waiters of
// Condition must re-check their predicate in a loop, since wakeups are
// broadcast-style and a notified waiter resumes at the same virtual time as
// other activity.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/check.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace pagoda::sim {

class Condition {
 public:
  explicit Condition(Simulation& sim) : sim_(&sim) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Destroys still-parked waiter frames so persistent processes (device
  /// pumps, scheduler warps) don't leak when a simulation is torn down.
  ~Condition() {
    for (const std::coroutine_handle<> h : waiters_) h.destroy();
  }

  /// Awaitable: park until notify_one/notify_all.
  auto wait() {
    struct Awaiter {
      Condition* cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void notify_all() {
    // Waking only schedules resumes, so waking in place is safe; clear()
    // keeps the buffer's capacity for the next wait().
    for (const std::coroutine_handle<> h : waiters_) sim_->defer(h);
    waiters_.clear();
  }

  void notify_one() {
    if (waiters_.empty()) return;
    const std::coroutine_handle<> h = waiters_.front();
    waiters_.erase(waiters_.begin());
    sim_->defer(h);
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulation* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// One worker process per slot, each running the work handed to its own slot
/// (the MasterKernel's executor warps, paper §4.1). Event for event it is a
/// Condition whose workers re-check `flag[slot]` after each notify_all(),
/// minus the resumes that would find the flag clear. A worker that finds its
/// slot clear retire()s and ends; the slot keeps the key of the event it
/// retired in: its place in the Condition's FIFO. notify_all() starts a
/// worker for each slot retired up to the running event that was handed
/// work; the others take the seq of their skipped resume and move to the
/// back. A slot keyed after the running event is in flight (the Condition
/// still holds its resume): a hand-off starts its worker at that key.
class SlotCondition {
 public:
  static constexpr int kMaxSlots = 64;  // handed flags are one bitmask

  SlotCondition(Simulation& sim, int slots)
      : sim_(&sim), keys_(static_cast<std::size_t>(slots)) {
    PAGODA_CHECK(slots >= 0 && slots <= kMaxSlots);
  }
  SlotCondition(const SlotCondition&) = delete;
  SlotCondition& operator=(const SlotCondition&) = delete;

  /// Stands in for spawning make(0..slots-1) now; each made on first hand-off.
  void spawn_deferred(std::function<Process(int)> make) {
    make_ = std::move(make);
    for (int s = 0; s < static_cast<int>(keys_.size()); ++s) {
      key(s) = sim_->reserve_event();
      order_.push_back(s);
    }
  }

  /// The worker of `slot` found it clear and ends (it must co_return now);
  /// the slot's next worker is made when the slot is handed work.
  void retire(int slot) {
    const EventKey now = sim_->current_event();
    key(slot) = now;
    auto after = [this](EventKey k, int s) { return k < key(s); };
    order_.insert(std::upper_bound(order_.begin(), order_.end(), now, after),
                  slot);
  }

  /// The waker set `slot`'s flag (see the class comment).
  void hand_off(int slot) {
    const auto pos = std::find(order_.begin(), order_.end(), slot);
    PAGODA_CHECK_MSG(pos != order_.end(), "hand-off to a busy slot");
    if (key(slot) > sim_->current_event()) {
      order_.erase(pos);
      wake(slot, key(slot));
    } else {
      handed_ |= bit(slot);
    }
  }

  void notify_all() {
    const EventKey now = sim_->current_event();
    auto kept = order_.begin();
    auto it = order_.begin();
    for (; it != order_.end() && key(*it) <= now; ++it) {
      if ((handed_ & bit(*it)) != 0) {
        wake(*it, sim_->reserve_event());
      } else {
        key(*it) = sim_->reserve_event();
        *kept++ = *it;
      }
    }
    // The re-keyed slots now sort after the in-flight ones.
    const auto n_kept = kept - order_.begin();
    order_.erase(std::rotate(order_.begin(), it, order_.end()) + n_kept,
                 order_.end());
  }

 private:
  static std::uint64_t bit(int slot) { return std::uint64_t{1} << slot; }
  /// The event a retired slot's worker ended in, or its reserved start.
  EventKey& key(int slot) { return keys_[static_cast<std::size_t>(slot)]; }

  void wake(int slot, EventKey at) {
    handed_ &= ~bit(slot);
    sim_->spawn(make_(slot), at);
  }

  Simulation* sim_;
  std::vector<EventKey> keys_;  // by slot
  std::vector<int> order_;      // retired slots, in key order
  std::uint64_t handed_ = 0;    // retired slots handed work, by bit
  std::function<Process(int)> make_;
};

/// One-shot latch. fire() releases all current and future waiters.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(&sim) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;
  ~Trigger() {
    for (const std::coroutine_handle<> h : waiters_) h.destroy();
  }

  /// Resumes the parked waiters, then runs the callbacks, each in the order
  /// it was registered (every one deferred).
  void fire() {
    if (fired_) return;
    fired_ = true;
    for (const std::coroutine_handle<> h : waiters_) sim_->defer(h);
    waiters_.clear();
    for (const Continuation c : callbacks_) sim_->defer(c);
    callbacks_.clear();
  }

  bool fired() const { return fired_; }

  /// Runs c (deferred) when the trigger fires; at once if already fired.
  void call_on_fire(Continuation c) {
    if (fired_) {
      sim_->defer(c);
    } else {
      callbacks_.push_back(c);
    }
  }

  auto wait() {
    struct Awaiter {
      Trigger* t;
      bool await_ready() const noexcept { return t->fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        t->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<Continuation> callbacks_;
};

/// Counting semaphore with FIFO grant order.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t initial)
      : sim_(&sim), count_(initial) {
    PAGODA_CHECK(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;
  ~Semaphore() {
    for (const std::coroutine_handle<> h : waiters_) h.destroy();
  }

  auto acquire() {
    struct Awaiter {
      Semaphore* s;
      bool await_ready() noexcept {
        if (s->count_ > 0 && s->waiters_.empty()) {
          --s->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release() {
    if (!waiters_.empty()) {
      const std::coroutine_handle<> h = waiters_.front();
      waiters_.pop_front();
      sim_->defer(h);
    } else {
      ++count_;
    }
  }

 private:
  Simulation* sim_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace pagoda::sim
