// Virtual-time threadblock barrier.
//
// Used by the native threadblock scheduler for __syncthreads semantics, and
// by Pagoda's named-barrier pool (§5.2) where a barrier id from a fixed pool
// of 16 per MTB is leased to each synchronizing threadblock.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "sim/simulation.h"

namespace pagoda::gpu {

/// A generation-counting barrier for a fixed number of participants.
/// Participants are simulation processes (executor warps / warp runners).
class BlockBarrier {
 public:
  explicit BlockBarrier(sim::Simulation& sim, int participants = 0)
      : sim_(&sim), participants_(participants) {}
  BlockBarrier(const BlockBarrier&) = delete;
  BlockBarrier& operator=(const BlockBarrier&) = delete;
  ~BlockBarrier() {
    for (std::coroutine_handle<> h : waiters_) h.destroy();
  }

  /// (Re)arms the barrier for a new threadblock. Requires no parked waiters.
  void reset(int participants) {
    PAGODA_CHECK_MSG(waiters_.empty(), "resetting barrier with parked warps");
    participants_ = participants;
    arrived_ = 0;
  }


  /// Awaitable: the calling warp arrives; the last arrival releases all.
  /// `co_await barrier.arrive_and_wait();`
  auto arrive_and_wait() {
    struct Awaiter {
      BlockBarrier* b;
      bool await_ready() const noexcept {
        PAGODA_CHECK(b->participants_ > 0);
        if (b->arrived_ + 1 == b->participants_) {
          // Last arrival: release everyone, don't suspend.
          b->arrived_ = 0;
          for (std::coroutine_handle<> h : b->waiters_) {
            b->sim_->defer(h);
          }
          b->waiters_.clear();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++b->arrived_;
        b->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  sim::Simulation* sim_;
  int participants_;
  int arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace pagoda::gpu
