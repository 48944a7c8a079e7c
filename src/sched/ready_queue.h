// Policy-ordered counting slot queue: the admission queue of the stack.
//
// ReadyQueue is a counting slot queue (sim::Semaphore's fast path in
// await_ready and deferred-resume handoff) with a Policy deciding which
// parked waiter a released slot goes to, and a grant verdict: close() wakes
// every parked waiter ungranted, in arrival order. Under the fifo policy a
// grant follows the semaphore's event order byte-for-byte.
//
// Extensions over the semaphore:
//   - acquire(key) carries a SchedKey; release() grants the best parked key
//     per Policy::before (WFQ tags are stamped at admit time, in arrival
//     order, so the tag sequence is interleaving-independent).
//   - evict_worst(): wakes the policy-worst waiter with Grant::evicted set,
//     letting the dispatcher shed a parked batch request to admit a more
//     urgent arrival (class-aware shedding). Never used under fifo.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "common/check.h"
#include "sched/policy.h"
#include "sim/simulation.h"

namespace pagoda::sched {

class ReadyQueue {
 public:
  struct Grant {
    bool granted = false;  // slot held; caller must release() eventually
    bool evicted = false;  // woken by evict_worst(), not close()
  };

  ReadyQueue(sim::Simulation& sim, std::int64_t slots, Policy& policy)
      : sim_(&sim), policy_(&policy), count_(slots) {
    PAGODA_CHECK(slots >= 0);
  }
  ReadyQueue(const ReadyQueue&) = delete;
  ReadyQueue& operator=(const ReadyQueue&) = delete;
  ~ReadyQueue() {
    for (const Waiter& w : waiters_) w.handle.destroy();
  }

  auto acquire(SchedKey key) {
    struct Awaiter {
      ReadyQueue* q;
      SchedKey key;
      Grant grant{};
      bool await_ready() noexcept {
        q->policy_->admit(key);
        if (q->closed_) return true;  // grant.granted stays false
        if (q->count_ > 0 && q->waiters_.empty()) {
          --q->count_;
          grant.granted = true;
          q->policy_->served(key);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        q->waiters_.push_back(Waiter{h, &grant, key});
      }
      Grant await_resume() const noexcept { return grant; }
    };
    return Awaiter{this, key};
  }

  void release() {
    if (!waiters_.empty()) {
      const std::size_t i = best_index();
      const Waiter w = waiters_[i];
      waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
      w.grant->granted = true;
      policy_->served(w.key);
      sim_->defer(w.handle);
    } else {
      ++count_;
    }
  }

  /// Wakes every parked acquirer ungranted (in arrival order, whatever the
  /// policy) and fails later acquires until reopen(). Outstanding
  /// grants still release() into count_, so the pool is whole at reopen().
  void close() {
    closed_ = true;
    std::deque<Waiter> woken;
    woken.swap(waiters_);
    for (const Waiter& w : woken) sim_->defer(w.handle);
  }

  void reopen() { closed_ = false; }
  bool closed() const { return closed_; }

  /// Wakes every parked acquirer ungranted (arrival order, like close())
  /// WITHOUT closing the queue: later acquires still succeed. The
  /// migrate-not-shed drain uses this to recall queued attempts — the woken
  /// callers see granted=false, evicted=false and checkpoint themselves
  /// while the queue stays open for the drain's own completions to release
  /// into.
  void kick_waiters() {
    std::deque<Waiter> woken;
    woken.swap(waiters_);
    for (const Waiter& w : woken) sim_->defer(w.handle);
  }

  std::int64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

  /// The policy-worst parked key (the one every other waiter beats), or
  /// nullptr when nothing is parked. Valid until the next queue mutation.
  const SchedKey* worst() const {
    if (waiters_.empty()) return nullptr;
    return &waiters_[worst_index()].key;
  }

  /// Wakes the policy-worst waiter with granted=false, evicted=true.
  void evict_worst() {
    PAGODA_CHECK_MSG(!waiters_.empty(), "evict_worst on empty ReadyQueue");
    const std::size_t i = worst_index();
    const Waiter w = waiters_[i];
    waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
    w.grant->evicted = true;
    sim_->defer(w.handle);
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    Grant* grant;  // lives in the suspended awaiter frame
    SchedKey key;
  };

  std::size_t best_index() const {
    if (policy_->fifo()) return 0;  // deque front == oldest seq
    std::size_t best = 0;
    for (std::size_t i = 1; i < waiters_.size(); ++i) {
      if (policy_->before(waiters_[i].key, waiters_[best].key)) best = i;
    }
    return best;
  }

  std::size_t worst_index() const {
    std::size_t worst = 0;
    for (std::size_t i = 1; i < waiters_.size(); ++i) {
      if (policy_->before(waiters_[worst].key, waiters_[i].key)) worst = i;
    }
    return worst;
  }

  sim::Simulation* sim_;
  Policy* policy_;
  std::int64_t count_;
  bool closed_ = false;
  std::deque<Waiter> waiters_;
};

}  // namespace pagoda::sched
