// Processor-sharing resource with an optional per-job rate cap.
//
// Models a server of total capacity C (work-units per second) shared equally
// among its n active jobs, where each job's service rate is additionally
// capped at r_max:   rate(t) = min(r_max, C / n(t)).
//
// Two instantiations cover the whole reproduction:
//   * An SMM's issue pipeline: C = 4 warp-instructions/cycle, r_max = 1
//     (one warp cannot issue faster than one instruction per cycle; four
//     warp schedulers saturate at >= 4 runnable warps).
//   * The host CPU pool of the PThreads/Sequential baselines: C = cores x
//     core speed, r_max = one core (a task runs serially on one core).
//
// Because the rate is identical for every active job, completions can be
// tracked exactly in "virtual service time" V(t) with dV/dt = rate(t): a job
// enqueued at V0 with w work units finishes when V = V0 + w. Each membership
// change advances V and re-times the single pending completion event in
// place (Simulation::retime) — O(log n) per event via a min-heap on
// finish-V. A job is the coroutine that waits on it: completion resumes its
// handle, so a job record is three words and holds no closure.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "sim/simulation.h"

namespace pagoda::sim {

class PsResource {
 public:
  /// capacity and max_job_rate are in work-units per second.
  PsResource(Simulation& sim, double capacity, double max_job_rate);

  /// Starts a job of `work` units that resumes `h` at its completion time.
  /// Zero-work jobs complete via a deferred resume at the current time.
  void submit(double work, std::coroutine_handle<> h);

  /// Awaitable form: `co_await res.execute(work);` suspends the calling
  /// process until the work completes.
  auto execute(double work) {
    struct Awaiter {
      PsResource* res;
      double work;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        res->submit(work, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, work};
  }

  int active_jobs() const { return static_cast<int>(jobs_.size()); }

  /// Scales capacity and per-job rate cap to `scale` x their construction
  /// values (DVFS: a P-state change retimes in-flight work). Safe mid-run:
  /// virtual time is advanced at the old rate before the switch and the
  /// pending completion is re-scheduled at the new rate. A scale of 1.0
  /// restores the constructed rates exactly (no drift from repeated calls).
  void set_rate_scale(double scale);

  double rate_scale() const { return rate_scale_; }

  /// ∫ utilized-capacity dt in work-unit·seconds, where utilized capacity is
  /// min(C, n·r_max). Used for occupancy/utilization reporting.
  double busy_work_seconds() const;

  double capacity() const { return capacity_; }
  double max_job_rate() const { return max_job_rate_; }

 private:
  struct Job {
    double finish_v;
    std::uint64_t seq;          // FIFO tie-break for equal finish_v
    std::coroutine_handle<> h;  // resumed at completion
    bool operator>(const Job& o) const {
      if (finish_v != o.finish_v) return finish_v > o.finish_v;
      return seq > o.seq;
    }
  };

  double current_rate() const;  // per-job service rate, work-units/second
  void advance_virtual_time();
  void reschedule_completion();
  void on_completion_event();

  Simulation* sim_;
  double capacity_;
  double max_job_rate_;
  const double base_capacity_;      // construction-time capacity
  const double base_max_job_rate_;  // construction-time per-job cap
  double rate_scale_ = 1.0;

  std::vector<Job> jobs_;  // min-heap on (finish_v, seq)
  double virtual_time_ = 0.0;  // accumulated per-job service, work-units
  Time last_update_ = 0;
  EventId completion_event_ = 0;
  std::uint64_t next_seq_ = 1;

  double busy_integral_ = 0.0;  // work-unit·seconds of utilized capacity

  /// Completed jobs' handles, reused across completion events so the hot
  /// path (every SMM instruction segment) does not allocate a fresh vector
  /// per completion.
  std::vector<std::coroutine_handle<>> done_scratch_;
};

}  // namespace pagoda::sim
