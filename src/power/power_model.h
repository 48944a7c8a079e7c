// Edge-integrated power/energy model for one SMM and one GpuNode.
//
// Accounting follows the PsResource discipline: every *state transition*
// charges the elapsed interval to the outgoing state (touch), while every
// *read* extrapolates to `now` without mutating — so merely observing a run
// (collector samples, placement probes) cannot perturb its event stream.
// Nothing fires on a transition: observers read on their own clock.
//
// Energy is accumulated incrementally at each edge AND independently
// decomposable from the exported residency/issue tables:
//
//   node energy == Σ_s  s_residency[s]   · s_watts[s]          (asleep)
//               +  awake_residency       · node_base_watts     (uncore)
//               +  Σ_smm Σ_p c0_residency[p] · p_static_watts[p]
//               +  Σ_smm Σ_{c>0} c_residency[c] · c_watts[c]
//               +  Σ_smm Σ_p issued_work[p]    · p_dynamic_joules[p]
//
// tests/power_test.cpp pins this conservation invariant across seeds,
// including mid-window transitions.
//
// State mutation discipline: only this library (governor included) may move
// P/C/S states — tools/check.sh greps the rest of the tree for the mutator
// names. Everything outside reads watts/energy/residency or the wake gates.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/smm.h"
#include "power/power_spec.h"
#include "sim/simulation.h"

namespace pagoda::power {

/// Power state of one SMM: a P-state (shared, per-node DVFS domain), a
/// C-state (private idle depth), and an "off" override while the node
/// sleeps. Installs itself as the Smm's issue wake gate so leaving C1..C3
/// charges the configured wake-up latency on the sim clock.
class SmmPower {
 public:
  SmmPower(sim::Simulation& sim, const PowerSpec& spec, gpu::Smm& smm);

  int p_state() const { return p_; }
  int c_state() const { return c_; }
  bool node_asleep() const { return off_; }

  /// Pipeline has queued work, or a C-state wake-up is still in flight.
  bool busy(sim::Time now) const {
    return smm_->pipeline().active_jobs() > 0 || wake_until_ >= now;
  }

  // --- governor-side mutations (src/power only; see layering gate) --------
  void set_p_state(int p, sim::Time now);
  /// Parks one level deeper (C0->C1->C2->C3). Refused while busy or off.
  bool step_c_deeper(sim::Time now);
  /// Node-sleep override: while set, this SMM draws 0 W (the node-level
  /// S-state power covers the whole package).
  void set_node_asleep(bool asleep, sim::Time now);

  /// The Smm issue gate: on the first issue out of C1..C3, transitions to
  /// C0 and returns the wake-up latency to charge; returns the remaining
  /// latency while a wake-up is already in flight, else 0.
  sim::Duration wake_for_issue(sim::Time now);

  // --- read-only accounting (extrapolating, non-mutating) -----------------
  double energy_joules(sim::Time now) const;
  double watts(sim::Time now) const;  // static row + instantaneous dynamic
  /// Seconds spent active (C0) at P-state p.
  double c0_residency_seconds(int p, sim::Time now) const;
  /// Seconds spent parked in C-state c (c >= 1).
  double c_residency_seconds(int c, sim::Time now) const;
  /// Warp-instructions issued while at P-state p.
  double issued_work(int p, sim::Time now) const;
  /// Issue capacity (warp-instructions/second) at the current P-state.
  double issue_capacity() const { return smm_->pipeline().capacity(); }
  std::uint64_t transitions() const { return transitions_; }

 private:
  /// Charges [last_touch_, now] to the current state row and attributes the
  /// pipeline's issue delta to the current P-state. Called at every edge.
  void touch(sim::Time now);
  double row_watts() const {
    if (off_) return 0.0;
    if (c_ > 0) return spec_->c_watts[static_cast<std::size_t>(c_)];
    return spec_->p_static_watts[static_cast<std::size_t>(p_)];
  }

  sim::Simulation* sim_;
  const PowerSpec* spec_;
  gpu::Smm* smm_;

  int p_ = 0;
  int c_ = 0;
  bool off_ = false;
  sim::Time wake_until_ = -1;  // C-state wake-up in flight until this time
  sim::Time last_touch_ = 0;

  double energy_ = 0.0;  // joules charged through last_touch_
  double busy_snap_ = 0.0;  // pipeline busy_work_seconds at last touch
  std::array<double, kNumPStates> c0_res_{};   // active seconds per P
  std::array<double, kNumCStates> c_res_{};    // parked seconds per C (c>=1)
  std::array<double, kNumPStates> dyn_work_{};  // issued work per P
  std::uint64_t transitions_ = 0;
};

/// Power state of one GpuNode: the per-node DVFS domain (one P-state across
/// all SMMs), the node S-state, and the uncore energy account. Owns one
/// SmmPower per SMM.
class NodePower {
 public:
  NodePower(sim::Simulation& sim, const PowerSpec& spec,
            std::vector<gpu::Smm*> smms);

  const PowerSpec& spec() const { return spec_; }
  int p_state() const { return p_; }
  int s_state() const { return s_; }
  bool asleep() const { return s_ > 0; }
  int num_smms() const { return static_cast<int>(smms_.size()); }
  SmmPower& smm_power(int i) { return *smms_[static_cast<std::size_t>(i)]; }
  const SmmPower& smm_power(int i) const {
    return *smms_[static_cast<std::size_t>(i)];
  }

  // --- governor-side mutations (src/power only) ---------------------------
  /// Moves the whole DVFS domain; rescales every SMM issue pipeline and the
  /// stall clock. p is clamped to [0, spec.p_floor] by callers.
  void set_p_state(int p);
  /// Puts the node to sleep in S-state s (1..3). The caller must have
  /// drained it (no outstanding work) first.
  void enter_sleep(int s);
  /// Starts the S->S0 wake-up; until it completes, wake_remaining() reports
  /// the residual latency the dispatcher charges to waiting requests.
  void begin_wake();

  /// Residual S-state wake-up latency at `now` (0 when awake and settled).
  sim::Duration wake_remaining(sim::Time now) const {
    return wake_until_ > now ? wake_until_ - now : 0;
  }

  // --- read-only accounting (extrapolating, non-mutating) -----------------
  double energy_joules(sim::Time now) const;
  double watts(sim::Time now) const;
  /// Seconds awake (s == 0) or asleep in S-state s (s >= 1).
  double s_residency_seconds(int s, sim::Time now) const;
  /// Per-node total over all SMMs.
  double issued_work(sim::Time now) const;
  /// Sum of SMM issue capacities at the current P-state (for utilization).
  double issue_capacity() const;
  std::uint64_t transitions() const;
  std::uint64_t wakeups() const { return wakeups_; }

 private:
  void touch(sim::Time now);
  double uncore_watts() const {
    return s_ > 0 ? spec_.s_watts[static_cast<std::size_t>(s_)]
                  : spec_.node_base_watts;
  }

  sim::Simulation* sim_;
  PowerSpec spec_;
  std::vector<std::unique_ptr<SmmPower>> smms_;

  int p_ = 0;
  int s_ = 0;
  sim::Time wake_until_ = -1;
  sim::Time last_touch_ = 0;
  double uncore_energy_ = 0.0;
  std::array<double, kNumSStates> s_res_{};  // [0] = awake seconds
  std::uint64_t transitions_ = 0;
  std::uint64_t wakeups_ = 0;
};

}  // namespace pagoda::power
