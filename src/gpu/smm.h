// One Streaming Multiprocessor (SMM): issue pipeline + resource accounting.
//
// The issue pipeline is a processor-sharing resource: capacity = issue_width
// warp-instructions per cycle (4 on Maxwell — four warp schedulers), per-warp
// cap = 1 instruction per cycle. With >= 4 runnable warps the SMM is
// saturated; with fewer, warps run at full rate but capacity idles — that is
// precisely the underutilization narrow tasks cause.
//
// Resource accounting covers the four occupancy limiters of §2: warp slots
// (64), threadblock slots (32), shared memory (96 KB) and registers (64 K).
// The native block scheduler reserves whole threadblocks; Pagoda's
// MasterKernel instead reserves everything once (two 32-warp MTBs) and
// virtualizes from there.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/check.h"
#include "gpu/gpu_spec.h"
#include "sim/ps_resource.h"
#include "sim/simulation.h"

namespace pagoda::gpu {

/// Resource footprint of one threadblock for native scheduling.
struct BlockFootprint {
  int threads = 0;
  int warps = 0;
  std::int64_t shared_mem_bytes = 0;
  std::int64_t registers = 0;  // total for the block = regs/thread * threads

  static BlockFootprint of(int threads_per_block, int regs_per_thread,
                           std::int64_t shared_mem_bytes) {
    BlockFootprint f;
    f.threads = threads_per_block;
    f.warps = (threads_per_block + 31) / 32;
    f.shared_mem_bytes = shared_mem_bytes;
    f.registers =
        static_cast<std::int64_t>(regs_per_thread) * threads_per_block;
    return f;
  }
};

class Smm {
 public:
  Smm(sim::Simulation& sim, const GpuSpec& spec)
      : sim_(&sim),
        spec_(&spec),
        pipeline_(sim, spec.issue_width * spec.clock_hz, spec.clock_hz),
        free_warps_(spec.warps_per_smm),
        free_blocks_(spec.max_blocks_per_smm),
        free_threads_(spec.max_threads_per_smm),
        free_shared_mem_(spec.shared_mem_per_smm),
        free_registers_(spec.registers_per_smm) {}
  Smm(const Smm&) = delete;
  Smm& operator=(const Smm&) = delete;

  /// The issue pipeline; work units are cycles of warp instructions.
  /// (PsResource uses work-units/second, so submit cycles directly — the
  /// capacity was scaled by clock_hz in the constructor.)
  sim::PsResource& pipeline() { return pipeline_; }

  /// Awaitable: execute `cycles` of warp-issue work on this SMM.
  struct IssueAwaiter {
    Smm* smm;
    double cycles;
    std::coroutine_handle<> h = {};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      smm->submit_issue(*this);
    }
    void await_resume() const noexcept {}
    /// Hands the work to the issue pipeline, past the wake gate.
    void issue() { smm->pipeline_.submit(cycles, h); }
  };
  IssueAwaiter execute(double cycles) { return IssueAwaiter{this, cycles}; }

  /// Consults the wake gate (if any) before handing the work to the issue
  /// pipeline, then resumes the awaiter when it completes. With no gate
  /// installed this is exactly pipeline().submit — the default path is
  /// untouched.
  void submit_issue(IssueAwaiter& a) {
    if (wake_gate_) {
      const sim::Duration d = wake_gate_(sim_->now());
      if (d > 0) {
        // The awaiter lives in the suspended frame: its address is the
        // whole event context.
        sim_->after(d, sim::Continuation::member<&IssueAwaiter::issue>(&a));
        return;
      }
    }
    a.issue();
  }

  // --- power plane hooks (passive unless the power plane installs them) ----

  /// DVFS scale applied to the issue pipeline; 1.0 when the power plane is
  /// off. Stall delays in the timing model divide by this.
  double clock_scale() const { return pipeline_.rate_scale(); }

  /// Rescales issue capacity + per-warp cap (P-state change). Only the power
  /// plane calls this; scale 1.0 restores construction rates bit-exactly.
  void set_clock_scale(double scale) { pipeline_.set_rate_scale(scale); }

  /// Gate consulted before every issue submission. Returns the extra latency
  /// (picoseconds) to charge before the work may enter the pipeline — the
  /// power plane uses it to charge C-state wake-up transitions. Null (the
  /// default) means no gate and an unchanged issue path.
  void set_issue_wake_gate(std::function<sim::Duration(sim::Time)> gate) {
    wake_gate_ = std::move(gate);
  }

  // --- native threadblock residency --------------------------------------
  bool can_fit(const BlockFootprint& f) const {
    return free_warps_ >= f.warps && free_blocks_ >= 1 &&
           free_threads_ >= f.threads &&
           free_shared_mem_ >= f.shared_mem_bytes &&
           free_registers_ >= f.registers;
  }

  void reserve(const BlockFootprint& f) {
    PAGODA_CHECK_MSG(can_fit(f), "reserve without can_fit");
    free_warps_ -= f.warps;
    free_blocks_ -= 1;
    free_threads_ -= f.threads;
    free_shared_mem_ -= f.shared_mem_bytes;
    free_registers_ -= f.registers;
    touch_occupancy(sim_->now());
  }

  void release(const BlockFootprint& f) {
    free_warps_ += f.warps;
    free_blocks_ += 1;
    free_threads_ += f.threads;
    free_shared_mem_ += f.shared_mem_bytes;
    free_registers_ += f.registers;
    PAGODA_CHECK(free_warps_ <= spec_->warps_per_smm);
    PAGODA_CHECK(free_blocks_ <= spec_->max_blocks_per_smm);
    PAGODA_CHECK(free_threads_ <= spec_->max_threads_per_smm);
    PAGODA_CHECK(free_shared_mem_ <= spec_->shared_mem_per_smm);
    PAGODA_CHECK(free_registers_ <= spec_->registers_per_smm);
    touch_occupancy(sim_->now());
  }

  int free_warps() const { return free_warps_; }
  int resident_warps() const { return spec_->warps_per_smm - free_warps_; }

  /// ∫ resident-warp dt, for achieved-occupancy reporting.
  double resident_warp_seconds() const { return resident_integral_current(); }

  /// Residency integral extrapolated to `at` without mutating any state.
  /// `at` must not precede the last reserve/release; reads clamped to it.
  double resident_warp_seconds_at(sim::Time at) const {
    const sim::Time t = at > last_touch_ ? at : last_touch_;
    return resident_integral_ + static_cast<double>(resident_warps_prev_) *
                                    sim::to_seconds(t - last_touch_);
  }

  /// Integrates the occupancy over the elapsed interval (at the previous
  /// residency) and snapshots the current residency. Called internally on
  /// every reserve/release and by readers before reporting.
  void touch_occupancy(sim::Time now) {
    resident_integral_ += static_cast<double>(resident_warps_prev_) *
                          sim::to_seconds(now - last_touch_);
    last_touch_ = now;
    resident_warps_prev_ = resident_warps();
  }

 private:
  double resident_integral_current() const { return resident_integral_; }

  sim::Simulation* sim_;
  const GpuSpec* spec_;
  sim::PsResource pipeline_;

  int free_warps_;
  int free_blocks_;
  int free_threads_;
  std::int64_t free_shared_mem_;
  std::int64_t free_registers_;

  double resident_integral_ = 0.0;
  sim::Time last_touch_ = 0;
  int resident_warps_prev_ = 0;

  std::function<sim::Duration(sim::Time)> wake_gate_;  // null = no gate
};

}  // namespace pagoda::gpu
