#include "sim/simulation.h"

#include "common/check.h"
#include "sim/process.h"

namespace pagoda::sim {

Joinable Simulation::spawn(Process p) {
  return spawn(std::move(p), reserve_event());
}

Joinable Simulation::spawn(Process p, EventKey key) {
  PAGODA_CHECK_MSG(!p.state_->spawned, "process spawned twice");
  p.state_->sim = this;
  p.state_->spawned = true;
  at(key, p.handle_);
  return Joinable(p.state_);
}

bool Simulation::run_next(Time until) {
  EventQueue::Popped e{};
  if (!queue_.pop_due(until, e)) return false;
  now_ = e.at;
  seq_ = e.seq;
  e.run();
  return true;
}

Time Simulation::run() {
  while (run_next(kTimeMax)) {
  }
  return now_;
}

void Simulation::run_until(Time t) {
  PAGODA_CHECK(t >= now_);
  while (run_next(t)) {
  }
  now_ = t;
}

}  // namespace pagoda::sim
