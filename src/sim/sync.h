// Virtual-time synchronization primitives for simulation processes.
//
//  - Condition: broadcast/one wakeup, with optional timeout (the Pagoda
//    `wait`/`waitAll` copy-back timeout is built on this).
//  - SlotCondition: a broadcast that resumes only the waiters handed work.
//  - Trigger:   one-shot latch; waits complete immediately once fired.
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
    for (Waiter& w : waiters_) {
      if (w.timeout_event != 0) sim_->cancel(w.timeout_event);
      w.handle.destroy();
    }
  }

  /// Awaitable: park until notify_one/notify_all.
  auto wait() {
    struct Awaiter {
      Condition* cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv->waiters_.push_back(Waiter{cv->next_id_++, h, 0, nullptr});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Awaitable: park until notified or until `d` elapses.
  /// `co_await cv.wait_for(d)` yields true if notified, false on timeout.
  auto wait_for(Duration d) {
    struct Awaiter {
      Condition* cv;
      Duration d;
      bool notified = false;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        const std::uint64_t id = cv->next_id_++;
        const EventId ev = cv->sim_->after(d, [cv = cv, id, h] {
          cv->drop_waiter(id);
          h.resume();
        });
        cv->waiters_.push_back(Waiter{id, h, ev, &notified});
      }
      bool await_resume() const noexcept { return notified; }
    };
    return Awaiter{this, d};
  }

  void notify_all() {
    std::vector<Waiter> woken;
    woken.swap(waiters_);
    wake(woken);
  }

  void notify_one() {
    if (waiters_.empty()) return;
    std::vector<Waiter> woken;
    woken.push_back(waiters_.front());
    waiters_.erase(waiters_.begin());
    wake(woken);
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  struct Waiter {
    std::uint64_t id;
    std::coroutine_handle<> handle;
    EventId timeout_event;     // 0 if untimed
    bool* notified_flag;       // lives in the suspended awaiter frame
  };

  void wake(std::vector<Waiter>& woken) {
    for (Waiter& w : woken) {
      if (w.timeout_event != 0) sim_->cancel(w.timeout_event);
      if (w.notified_flag != nullptr) *w.notified_flag = true;
      sim_->defer_resume(w.handle);
    }
  }

  void drop_waiter(std::uint64_t id) {
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i].id == id) {
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    PAGODA_CHECK_MSG(false, "timeout fired for unknown condition waiter");
  }

  Simulation* sim_;
  std::vector<Waiter> waiters_;
  std::uint64_t next_id_ = 1;
};

/// One worker process per slot, each waiting for work on its own slot (the
/// MasterKernel's executor warps, paper §4.1). Event for event it is a
/// Condition whose workers re-check `flag[slot]` after each notify_all(),
/// minus the resumes that would find the flag clear. A parked worker keeps
/// the key of the event it parked in: its place in the Condition's FIFO.
/// notify_all() resumes the workers parked up to the running event that were
/// handed work; the others take the seq of their skipped resume and move to
/// the back. A worker keyed after the running event is in flight (the
/// Condition still holds its resume): a hand-off resumes it at that key.
class SlotCondition {
 public:
  SlotCondition(Simulation& sim, int slots)
      : sim_(&sim), waiters_(static_cast<std::size_t>(slots)) {}
  SlotCondition(const SlotCondition&) = delete;
  SlotCondition& operator=(const SlotCondition&) = delete;
  ~SlotCondition() {
    for (const int s : order_) {
      if (const std::coroutine_handle<> h = at(s).handle) h.destroy();
    }
  }

  /// Stands in for spawning make(0..slots-1) now; each made on first hand-off.
  void spawn_deferred(std::function<Process(int)> make) {
    make_ = std::move(make);
    for (int s = 0; s < static_cast<int>(waiters_.size()); ++s) {
      at(s).key = sim_->reserve_event();
      order_.push_back(s);
    }
  }

  /// Awaitable: the worker of `slot` parks until the slot is handed work.
  auto wait(int slot) {
    struct Awaiter {
      SlotCondition* sc;
      int slot;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        const EventKey key = sc->sim_->current_event();
        sc->at(slot) = Waiter{key, h, false};
        auto after = [this](EventKey k, int s) { return k < sc->at(s).key; };
        auto& order = sc->order_;
        order.insert(std::upper_bound(order.begin(), order.end(), key, after),
                     slot);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, slot};
  }

  /// The waker set `slot`'s flag (see the class comment).
  void hand_off(int slot) {
    const auto pos = std::find(order_.begin(), order_.end(), slot);
    PAGODA_CHECK_MSG(pos != order_.end(), "hand-off to a busy slot");
    if (at(slot).key > sim_->current_event()) {
      order_.erase(pos);
      wake(slot, at(slot).key);
    } else {
      at(slot).handed = true;
    }
  }

  void notify_all() {
    const EventKey now = sim_->current_event();
    auto kept = order_.begin();
    auto it = order_.begin();
    for (; it != order_.end() && at(*it).key <= now; ++it) {
      if (at(*it).handed) {
        wake(*it, sim_->reserve_event());
      } else {
        at(*it).key = sim_->reserve_event();
        *kept++ = *it;
      }
    }
    // The re-keyed workers now sort after the in-flight ones.
    const auto n_kept = kept - order_.begin();
    order_.erase(std::rotate(order_.begin(), it, order_.end()) + n_kept,
                 order_.end());
  }

 private:
  struct Waiter {
    EventKey key{};  // event it parked in, or its reserved resume
    std::coroutine_handle<> handle;  // null until spawned
    bool handed = false;
  };

  Waiter& at(int slot) { return waiters_[static_cast<std::size_t>(slot)]; }

  void wake(int slot, EventKey key) {
    if (at(slot).handle) {
      sim_->at_resume(key, at(slot).handle);
    } else {
      sim_->spawn(make_(slot), key);
    }
    at(slot) = Waiter{};
  }

  Simulation* sim_;
  std::vector<Waiter> waiters_;  // by slot
  std::vector<int> order_;       // parked slots, in key order
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

  void fire() {
    if (fired_) return;
    fired_ = true;
    for (const std::coroutine_handle<> h : waiters_) sim_->defer_resume(h);
    waiters_.clear();
    for (std::function<void()>& fn : callbacks_) sim_->defer(std::move(fn));
    callbacks_.clear();
  }

  bool fired() const { return fired_; }

  /// Runs fn (deferred) when the trigger fires; immediately if already fired.
  void call_on_fire(std::function<void()> fn) {
    if (fired_) {
      sim_->defer(std::move(fn));
    } else {
      callbacks_.push_back(std::move(fn));
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
  std::vector<std::function<void()>> callbacks_;
};

/// Counting semaphore with FIFO grant order.
///
/// acquire() yields true when a slot was granted. A semaphore can be
/// close()d — used by the fault layer to model a resource pool whose backing
/// node died: every parked acquirer wakes with false (no slot held), and
/// later acquires return false immediately until reopen(). Callers that
/// never close (the common case) can ignore the result; the grant then is
/// unconditional and behavior is identical to a plain counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t initial)
      : sim_(&sim), count_(initial) {
    PAGODA_CHECK(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;
  ~Semaphore() {
    for (const Waiter& w : waiters_) w.handle.destroy();
  }

  auto acquire() {
    struct Awaiter {
      Semaphore* s;
      bool granted = false;
      bool await_ready() noexcept {
        if (s->closed_) return true;  // granted stays false
        if (s->count_ > 0 && s->waiters_.empty()) {
          --s->count_;
          granted = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s->waiters_.push_back(Waiter{h, &granted});
      }
      bool await_resume() const noexcept { return granted; }
    };
    return Awaiter{this};
  }

  void release() {
    if (!waiters_.empty()) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      *w.granted = true;
      sim_->defer_resume(w.handle);
    } else {
      ++count_;
    }
  }

  /// Wakes every parked acquirer with granted == false and fails subsequent
  /// acquires until reopen(). Slots already granted stay granted; their
  /// releases accumulate in count_ as usual, so the pool is whole again at
  /// reopen() once every outstanding grant has been returned.
  void close() {
    closed_ = true;
    std::deque<Waiter> woken;
    woken.swap(waiters_);
    for (const Waiter& w : woken) sim_->defer_resume(w.handle);
  }

  void reopen() { closed_ = false; }
  bool closed() const { return closed_; }

  std::int64_t available() const { return count_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool* granted;  // lives in the suspended awaiter frame
  };

  Simulation* sim_;
  std::int64_t count_;
  bool closed_ = false;
  std::deque<Waiter> waiters_;
};

}  // namespace pagoda::sim
