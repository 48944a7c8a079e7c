// Coroutine process type for the simulator.
//
// A Process is a fire-and-forget coroutine whose suspension points are
// virtual-time awaits (sim.delay, Condition::wait, PsResource::execute, ...).
// The coroutine frame destroys itself when the body finishes; the Process
// object is a lightweight token passed to Simulation::spawn, which returns a
// Joinable for awaiting completion. Dropping tokens/handles never cancels the
// process.
//
// Process bodies must only capture state that outlives the process; the
// simulator is single-threaded so no locking is involved.
#pragma once

#include <coroutine>
#include <memory>
#include <utility>

#include "common/check.h"
#include "sim/frame_pool.h"
#include "sim/joinable.h"
#include "sim/simulation.h"

namespace pagoda::sim {

class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type : PooledFrame {
    std::shared_ptr<ProcessState> state =
        std::allocate_shared<ProcessState>(FrameAllocator<ProcessState>{});

    Process get_return_object() {
      return Process(Handle::from_promise(*this), state);
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(Handle h) noexcept {
        // Keep the shared state alive past frame destruction.
        std::shared_ptr<ProcessState> st = h.promise().state;
        st->done = true;
        if (!st->joiners.empty()) {
          PAGODA_CHECK(st->sim != nullptr);
          for (const std::coroutine_handle<> j : st->joiners) {
            st->sim->defer(j);
          }
          st->joiners.clear();
        }
        h.destroy();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };

  Process(Process&& o) noexcept
      : handle_(std::exchange(o.handle_, {})), state_(std::move(o.state_)) {}
  Process& operator=(Process&&) = delete;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ~Process() {
    // A token for a process that was never spawned owns the frame.
    if (handle_ && state_ && !state_->spawned) handle_.destroy();
  }

 private:
  friend class Simulation;
  Process(Handle h, std::shared_ptr<ProcessState> s)
      : handle_(h), state_(std::move(s)) {}

  Handle handle_;
  std::shared_ptr<ProcessState> state_;
};

}  // namespace pagoda::sim
