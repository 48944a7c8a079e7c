#include "sim/ps_resource.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pagoda::sim {

namespace {
// Tolerance (in work units) when matching completions against virtual time;
// absorbs floating-point drift from incremental V updates.
constexpr double kWorkEpsilon = 1e-6;
}  // namespace

PsResource::PsResource(Simulation& sim, double capacity, double max_job_rate)
    : sim_(&sim),
      capacity_(capacity),
      max_job_rate_(max_job_rate),
      base_capacity_(capacity),
      base_max_job_rate_(max_job_rate) {
  PAGODA_CHECK(capacity > 0.0);
  PAGODA_CHECK(max_job_rate > 0.0);
  last_update_ = sim.now();
}

void PsResource::set_rate_scale(double scale) {
  PAGODA_CHECK(scale > 0.0);
  if (scale == rate_scale_) return;
  // Charge elapsed time at the outgoing rate, then switch. Rates are always
  // derived from the construction-time bases so scale 1.0 is bit-exact.
  advance_virtual_time();
  rate_scale_ = scale;
  capacity_ = base_capacity_ * scale;
  max_job_rate_ = base_max_job_rate_ * scale;
  reschedule_completion();
}

double PsResource::current_rate() const {
  const auto n = static_cast<double>(jobs_.size());
  if (n == 0.0) return 0.0;
  return std::min(max_job_rate_, capacity_ / n);
}

void PsResource::advance_virtual_time() {
  const Time now = sim_->now();
  if (now == last_update_) return;
  const double dt = to_seconds(now - last_update_);
  const double n = static_cast<double>(jobs_.size());
  const double rate = current_rate();
  virtual_time_ += rate * dt;
  busy_integral_ += std::min(capacity_, n * max_job_rate_) * dt;
  job_integral_ += n * dt;
  last_update_ = now;
}

void PsResource::submit(double work, std::coroutine_handle<> h) {
  PAGODA_CHECK(work >= 0.0);
  if (work == 0.0) {
    sim_->defer(h);
    return;
  }
  advance_virtual_time();
  jobs_.push_back(Job{virtual_time_ + work, next_seq_++, h});
  std::push_heap(jobs_.begin(), jobs_.end(), std::greater<>{});
  reschedule_completion();
}

void PsResource::reschedule_completion() {
  if (jobs_.empty()) {
    if (completion_event_ != 0) sim_->cancel(completion_event_);
    completion_event_ = 0;
    return;
  }
  const double rate = current_rate();
  PAGODA_CHECK(rate > 0.0);
  const double remaining_work =
      std::max(0.0, jobs_.front().finish_v - virtual_time_);
  const double dt_seconds = remaining_work / rate;
  const auto dt = static_cast<Duration>(std::ceil(dt_seconds * 1e12));
  completion_event_ =
      completion_event_ != 0
          ? sim_->retime(completion_event_, sim_->now() + dt)
          : sim_->after(dt, Continuation::member<
                                &PsResource::on_completion_event>(this));
}

void PsResource::on_completion_event() {
  completion_event_ = 0;
  advance_virtual_time();
  // Pop every job whose service is complete (ties complete together, e.g.,
  // equal-work jobs submitted at the same instant). The staging vector is a
  // reused member; jobs only finish after re-arming, and nothing re-enters
  // this method synchronously (completions fire from the event queue only).
  done_scratch_.clear();
  while (!jobs_.empty() &&
         jobs_.front().finish_v <= virtual_time_ + kWorkEpsilon) {
    std::pop_heap(jobs_.begin(), jobs_.end(), std::greater<>{});
    done_scratch_.push_back(jobs_.back().h);
    jobs_.pop_back();
  }
  // Integer-time rounding can fire the event one tick early, before the top
  // job's virtual finish time; in that case just re-arm.
  reschedule_completion();
  for (const std::coroutine_handle<> h : done_scratch_) h.resume();
}

// The read-side accessors must NOT advance the internal accumulators:
// re-anchoring virtual_time_ at an observation point changes the rounding of
// subsequent incremental updates, so a run that is merely *observed* (e.g.
// by the obs sampler) would diverge by picoseconds from an unobserved one.
// Extrapolate the integral to `now` without mutating instead.

double PsResource::busy_work_seconds() const {
  const double dt = to_seconds(sim_->now() - last_update_);
  const double n = static_cast<double>(jobs_.size());
  return busy_integral_ + std::min(capacity_, n * max_job_rate_) * dt;
}

double PsResource::job_seconds() const {
  const double dt = to_seconds(sim_->now() - last_update_);
  return job_integral_ + static_cast<double>(jobs_.size()) * dt;
}

}  // namespace pagoda::sim
