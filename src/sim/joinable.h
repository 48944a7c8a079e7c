// Shared completion state of a process and the copyable join handle.
//
// Split from process.h so that Simulation::spawn can return a Joinable
// without a circular include (process.h needs simulation.h for awaits).
#pragma once

#include <coroutine>
#include <memory>
#include <vector>

namespace pagoda::sim {

class Simulation;

/// Completion state shared between a (self-destroying) process frame and any
/// outstanding Process tokens / join handles.
struct ProcessState {
  Simulation* sim = nullptr;
  bool spawned = false;
  bool done = false;
  std::vector<std::coroutine_handle<>> joiners;
};

/// Copyable handle for awaiting completion of a spawned process.
class Joinable {
 public:
  Joinable() = default;
  explicit Joinable(std::shared_ptr<ProcessState> st) : state_(std::move(st)) {}

  bool done() const { return state_->done; }

  /// Awaitable: suspends the caller until the process completes. Completes
  /// immediately when the process already finished.
  auto join() const {
    struct Awaiter {
      std::shared_ptr<ProcessState> st;
      bool await_ready() const noexcept { return st->done; }
      void await_suspend(std::coroutine_handle<> h) {
        st->joiners.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<ProcessState> state_;
};

}  // namespace pagoda::sim
