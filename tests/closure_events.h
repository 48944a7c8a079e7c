// Closure events for tests. An event body is a sim::Continuation (a function
// pointer and one argument), so the queue keeps no closure alive; a test that
// schedules a lambda keeps it here instead.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "sim/event_queue.h"

namespace pagoda::sim {

/// Owns test closures and hands out continuations that run them. Every
/// closure lives until the Closures object does, so declare it before the
/// events it feeds can run.
class Closures {
 public:
  template <typename F>
  Continuation operator()(F f) {
    std::function<void()>& fn = fns_.emplace_back(std::move(f));
    return {[](void* p) { (*static_cast<std::function<void()>*>(p))(); },
            &fn};
  }

 private:
  std::deque<std::function<void()>> fns_;  // stable addresses
};

}  // namespace pagoda::sim
