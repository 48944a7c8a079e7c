// Warp-granularity kernel coroutines: the simulator's equivalent of CUDA
// __device__ task functions.
//
// One coroutine instance executes one *warp* of a kernel in SIMT lockstep,
// iterating its (up to 32) lanes internally. The coroutine suspends at
// syncBlock() barriers; between suspensions it accumulates a cycle charge
// that the driving runtime (Pagoda executor warp or the native threadblock
// scheduler) turns into time on the SMM issue pipeline.
//
// Kernels perform real computation when ctx.mode == ExecMode::Compute (used
// by tests and examples, verified against CPU references) and charge
// identical cycle counts analytically when mode == ExecMode::Model (used by
// the 32K-task benchmark sweeps). A dedicated test asserts the two modes
// produce identical timing.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>

#include "common/check.h"
#include "gpu/cost_model.h"
#include "sim/frame_pool.h"

namespace pagoda::gpu {

enum class ExecMode : std::uint8_t {
  Compute,  // real math + cycle charges
  Model,    // cycle charges only; loop bodies elided
};

class WarpCtx;

/// A kernel body: invoked once per warp; must consume its WarpCtx only while
/// running (the runtime owns it).
class [[nodiscard]] KernelCoro {
 public:
  struct promise_type : sim::PooledFrame {
    KernelCoro get_return_object() {
      return KernelCoro(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  KernelCoro(KernelCoro&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  KernelCoro(const KernelCoro&) = delete;
  KernelCoro& operator=(const KernelCoro&) = delete;
  ~KernelCoro() {
    if (handle_) handle_.destroy();
  }

  bool done() const { return !handle_ || handle_.done(); }

  /// Resumes the warp until the next barrier or completion.
  void resume() {
    PAGODA_CHECK_MSG(handle_ && !handle_.done(), "resuming a finished warp");
    handle_.resume();
  }

 private:
  explicit KernelCoro(Handle h) : handle_(h) {}
  Handle handle_;
};

using KernelFn = KernelCoro (*)(WarpCtx&);

/// Per-warp execution context handed to kernel bodies. Provides the Pagoda
/// GPU-side API of Table 1 — getTid (via tid()), syncBlock(), getSMPtr (via
/// shared_mem()) — plus lane iteration and cycle charging.
class WarpCtx {
 public:
  // --- identity / geometry ---------------------------------------------
  int warp_in_task = 0;       // warp index across the whole task
  int block_index = 0;        // threadblock index within the task
  int warp_in_block = 0;      // warp index within the threadblock
  int threads_per_block = 0;
  int num_blocks = 0;
  ExecMode mode = ExecMode::Compute;

  /// Kernel arguments (points into the task's parameter blob).
  const void* args = nullptr;

  /// Shared memory for this warp's threadblock (empty if none requested).
  std::span<std::byte> shared_mem;
  /// Shared bytes the block declared, set by runtimes that back shared_mem
  /// only in Compute mode (0: shared_mem is always backed).
  std::int32_t shared_mem_declared = 0;

  template <typename T>
  const T& args_as() const {
    return *static_cast<const T*>(args);
  }

  /// getSMPtr(). CHECKs that declared shared memory is backed: Model mode
  /// backs none, so kernels read it only under compute().
  template <typename T>
  std::span<T> shared_as() const {
    PAGODA_CHECK_MSG(!shared_mem.empty() || shared_mem_declared == 0,
                     "shared_as(): the block's shared memory is not backed "
                     "(Model mode backs none)");
    return {reinterpret_cast<T*>(shared_mem.data()),
            shared_mem.size() / sizeof(T)};
  }

  // --- Pagoda GPU-side API ----------------------------------------------
  /// Task-global thread id of a lane, as returned by getTid() in the paper:
  /// derived from the warp id the scheduler stored in the WarpTable.
  int tid(int lane) const { return warp_in_task * 32 + lane; }

  /// Number of active lanes in this warp (tail warps of a block may be
  /// partially populated).
  int active_lanes() const {
    const int remaining = threads_per_block - warp_in_block * 32;
    return remaining >= 32 ? 32 : (remaining > 0 ? remaining : 0);
  }

  /// syncBlock(): threadblock-wide barrier. `co_await ctx.sync_block();`
  /// suspends the warp; the runtime resumes it when all warps of the block
  /// have arrived.
  std::suspend_always sync_block() { return {}; }

  // --- cost accounting ---------------------------------------------------
  /// Adds `cycles` of warp-issue work to the current segment. Issue work
  /// contends for the SMM pipeline (4 warp-instructions/cycle shared by all
  /// runnable warps).
  void charge(double cycles) { pending_cycles_ += cycles; }

  /// Adds `cycles` of memory-stall time to the current segment. Stall time
  /// elapses concurrently across warps — it is what high occupancy hides and
  /// what makes a lone narrow kernel latency-bound (§2 of the paper).
  void charge_stall(double cycles) { pending_stall_cycles_ += cycles; }

  /// Takes and clears the accumulated issue charge (runtime-side).
  double take_charge() { return std::exchange(pending_cycles_, 0.0); }

  /// Takes and clears the accumulated stall charge (runtime-side).
  double take_stall() { return std::exchange(pending_stall_cycles_, 0.0); }

  /// True when the kernel should execute real loop bodies.
  bool compute() const { return mode == ExecMode::Compute; }

  /// The cycle costs kernels charge with (the one model every runtime uses).
  const CostModel& costs() const { return kDefaultCostModel; }

 private:
  double pending_cycles_ = 0.0;
  double pending_stall_cycles_ = 0.0;
};

/// Result of driving a warp for one segment.
struct SegmentResult {
  double cycles = 0.0;        // issue work (contends for the pipeline)
  double stall_cycles = 0.0;  // memory latency (overlaps across warps)
  bool at_barrier = false;    // false => warp finished the kernel
};

/// Resumes `warp` until its next barrier or completion and collects the
/// cycle charges for the segment.
inline SegmentResult run_segment(KernelCoro& warp, WarpCtx& ctx) {
  warp.resume();
  return SegmentResult{ctx.take_charge(), ctx.take_stall(), !warp.done()};
}

}  // namespace pagoda::gpu
