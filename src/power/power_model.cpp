#include "power/power_model.h"

#include <algorithm>

#include "common/check.h"

namespace pagoda::power {

// --- SmmPower ---------------------------------------------------------------

SmmPower::SmmPower(sim::Simulation& sim, const PowerSpec& spec, gpu::Smm& smm)
    : sim_(&sim), spec_(&spec), smm_(&smm) {
  last_touch_ = sim.now();
  busy_snap_ = smm.pipeline().busy_work_seconds();
  smm.set_issue_wake_gate(
      [this](sim::Time now) { return wake_for_issue(now); });
}

void SmmPower::touch(sim::Time now) {
  PAGODA_CHECK(now >= last_touch_);
  const double dt = sim::to_seconds(now - last_touch_);
  if (dt > 0.0) {
    energy_ += row_watts() * dt;
    if (!off_ && c_ > 0) {  // node sleep has no residency bucket
      c_res_[static_cast<std::size_t>(c_)] += dt;
    } else if (!off_) {
      c0_res_[static_cast<std::size_t>(p_)] += dt;
    }
  }
  const double busy_now = smm_->pipeline().busy_work_seconds();
  const double d_work = busy_now - busy_snap_;
  if (d_work > 0.0) {
    dyn_work_[static_cast<std::size_t>(p_)] += d_work;
    energy_ += d_work * spec_->p_dynamic_joules[static_cast<std::size_t>(p_)];
  }
  busy_snap_ = busy_now;
  last_touch_ = now;
}

void SmmPower::set_p_state(int p, sim::Time now) {
  PAGODA_CHECK(p >= 0 && p < kNumPStates);
  if (p == p_) return;
  touch(now);
  p_ = p;
  ++transitions_;
  // The DVFS domain retimes in-flight issue work at the new rate.
  smm_->set_clock_scale(spec_->p_clock_scale[static_cast<std::size_t>(p)]);
}

bool SmmPower::step_c_deeper(sim::Time now) {
  if (off_ || busy(now)) return false;
  if (c_ + 1 >= kNumCStates) return false;
  touch(now);
  ++c_;
  ++transitions_;
  return true;
}

void SmmPower::set_node_asleep(bool asleep, sim::Time now) {
  if (asleep == off_) return;
  touch(now);
  off_ = asleep;
  ++transitions_;
}

sim::Duration SmmPower::wake_for_issue(sim::Time now) {
  if (off_) return 0;  // node-level S wake-up is charged by the dispatcher
  if (c_ > 0) {
    touch(now);
    const sim::Duration d = spec_->c_wake[static_cast<std::size_t>(c_)];
    c_ = 0;
    ++transitions_;
    // The wake-up window is charged at active (C0) power — the clock tree
    // is already spinning back up.
    wake_until_ = now + d;
    return d;
  }
  return wake_until_ > now ? wake_until_ - now : 0;
}

double SmmPower::energy_joules(sim::Time now) const {
  const double dt = sim::to_seconds(now - last_touch_);
  const double d_work = smm_->pipeline().busy_work_seconds() - busy_snap_;
  double e = energy_ + row_watts() * dt;
  if (d_work > 0.0) {
    e += d_work * spec_->p_dynamic_joules[static_cast<std::size_t>(p_)];
  }
  return e;
}

double SmmPower::watts(sim::Time now) const {
  (void)now;
  double w = row_watts();
  if (!off_ && c_ == 0) {
    const sim::PsResource& pipe =
        const_cast<gpu::Smm*>(smm_)->pipeline();
    const double n = static_cast<double>(pipe.active_jobs());
    const double issue_rate =
        std::min(pipe.capacity(), n * pipe.max_job_rate());
    w += issue_rate * spec_->p_dynamic_joules[static_cast<std::size_t>(p_)];
  }
  return w;
}

double SmmPower::c0_residency_seconds(int p, sim::Time now) const {
  double r = c0_res_[static_cast<std::size_t>(p)];
  if (!off_ && c_ == 0 && p == p_) r += sim::to_seconds(now - last_touch_);
  return r;
}

double SmmPower::c_residency_seconds(int c, sim::Time now) const {
  double r = c_res_[static_cast<std::size_t>(c)];
  if (!off_ && c_ == c && c > 0) r += sim::to_seconds(now - last_touch_);
  return r;
}

double SmmPower::issued_work(int p, sim::Time now) const {
  (void)now;
  double w = dyn_work_[static_cast<std::size_t>(p)];
  if (p == p_) {
    const double d = smm_->pipeline().busy_work_seconds() - busy_snap_;
    if (d > 0.0) w += d;
  }
  return w;
}

// --- NodePower --------------------------------------------------------------

NodePower::NodePower(sim::Simulation& sim, const PowerSpec& spec,
                     std::vector<gpu::Smm*> smms)
    : sim_(&sim), spec_(spec) {
  PAGODA_CHECK_MSG(spec_.p_clock_scale[0] == 1.0,
                   "P0 must preserve the construction clock exactly");
  last_touch_ = sim.now();
  smms_.reserve(smms.size());
  for (gpu::Smm* s : smms) {
    smms_.push_back(std::make_unique<SmmPower>(sim, spec_, *s));
  }
}

void NodePower::touch(sim::Time now) {
  PAGODA_CHECK(now >= last_touch_);
  const double dt = sim::to_seconds(now - last_touch_);
  if (dt > 0.0) {
    uncore_energy_ += uncore_watts() * dt;
    s_res_[static_cast<std::size_t>(s_)] += dt;
  }
  last_touch_ = now;
}

void NodePower::set_p_state(int p) {
  PAGODA_CHECK(p >= 0 && p < kNumPStates);
  if (p == p_) return;
  const sim::Time now = sim_->now();
  touch(now);
  p_ = p;
  ++transitions_;
  for (auto& sp : smms_) sp->set_p_state(p, now);
}

void NodePower::enter_sleep(int s) {
  PAGODA_CHECK(s >= 1 && s < kNumSStates);
  if (s_ == s) return;
  const sim::Time now = sim_->now();
  touch(now);
  s_ = s;
  ++transitions_;
  for (auto& sp : smms_) sp->set_node_asleep(true, now);
}

void NodePower::begin_wake() {
  if (s_ == 0) return;
  const sim::Time now = sim_->now();
  touch(now);
  wake_until_ = now + spec_.s_wake[static_cast<std::size_t>(s_)];
  s_ = 0;
  ++transitions_;
  ++wakeups_;
  for (auto& sp : smms_) sp->set_node_asleep(false, now);
}

double NodePower::energy_joules(sim::Time now) const {
  double e = uncore_energy_ + uncore_watts() * sim::to_seconds(now - last_touch_);
  for (const auto& sp : smms_) e += sp->energy_joules(now);
  return e;
}

double NodePower::watts(sim::Time now) const {
  double w = uncore_watts();
  for (const auto& sp : smms_) w += sp->watts(now);
  return w;
}

double NodePower::s_residency_seconds(int s, sim::Time now) const {
  double r = s_res_[static_cast<std::size_t>(s)];
  if (s == s_) r += sim::to_seconds(now - last_touch_);
  return r;
}

double NodePower::issued_work(sim::Time now) const {
  double w = 0.0;
  for (const auto& sp : smms_) {
    for (int p = 0; p < kNumPStates; ++p) w += sp->issued_work(p, now);
  }
  return w;
}

double NodePower::issue_capacity() const {
  double c = 0.0;
  for (const auto& sp : smms_) c += sp->issue_capacity();
  return c;
}

std::uint64_t NodePower::transitions() const {
  std::uint64_t t = transitions_;
  for (const auto& sp : smms_) t += sp->transitions();
  return t;
}

}  // namespace pagoda::power
