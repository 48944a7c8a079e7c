// Native hardware threadblock dispatcher — the GPU's built-in scheduler used
// by the CUDA-HyperQ and static-fusion baselines (Pagoda bypasses it by
// keeping one persistent MasterKernel resident).
//
// Fidelity points (paper §6.4):
//  * Threadblocks of a grid are placed in order on any SMM with room for the
//    block's full footprint (warps, threads, block slot, shared mem, regs).
//  * A threadblock's resources are released only when ALL of its warps have
//    finished — "CUDA prohibits a new threadblock from launching until all
//    warps of the previous threadblock finish" — which is what Pagoda's
//    warp-level scheduling beats at large thread counts (Fig 8).
//  * Grids from concurrently launched kernels backfill leftover resources in
//    launch order (concurrent kernel execution).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "gpu/barrier.h"
#include "gpu/gpu_spec.h"
#include "gpu/launch.h"
#include "gpu/smm.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace pagoda::gpu {

class BlockDispatcher {
 public:
  BlockDispatcher(sim::Simulation& sim, const GpuSpec& spec)
      : sim_(&sim), spec_(spec) {}
  BlockDispatcher(const BlockDispatcher&) = delete;
  BlockDispatcher& operator=(const BlockDispatcher&) = delete;

  void attach(const std::vector<std::unique_ptr<Smm>>& smms) {
    smms_.clear();
    for (const auto& s : smms) smms_.push_back(s.get());
  }

  /// Launches a grid. The returned execution's `done` trigger fires when the
  /// last threadblock retires.
  KernelExecutionPtr launch(KernelLaunchParams p);

  // --- observability ------------------------------------------------------
  /// A retired grid, as reported to the observer hook at completion.
  struct GridRecord {
    std::int64_t grid_id = 0;
    sim::Time launched = 0;
    sim::Time completed = 0;
    int num_blocks = 0;
    int threads_per_block = 0;
  };
  /// Invoked when a grid's last threadblock retires (obs::Collector emits
  /// kernel spans from this); nullptr disables it.
  void set_grid_observer(std::function<void(const GridRecord&)> obs) {
    grid_observer_ = std::move(obs);
  }

  std::int64_t grids_launched() const { return grids_launched_; }
  std::int64_t blocks_started() const { return blocks_started_; }
  /// Threadblocks of pending grids not yet placed (launch queue depth).
  std::int64_t unplaced_blocks() const;

 private:
  struct BlockRun {
    KernelExecutionPtr exec;
    Smm* smm = nullptr;
    int block_index = 0;
    BlockFootprint footprint;
    BlockBarrier barrier;
    std::vector<std::byte> shared_mem;
    int warps_remaining = 0;
    BlockRun(sim::Simulation& sim, int participants)
        : barrier(sim, participants) {}
  };

  void try_place();
  Smm* pick_smm(const BlockFootprint& f);
  void start_block(const KernelExecutionPtr& e, Smm& smm, int block_index);
  sim::Process warp_runner(std::shared_ptr<BlockRun> run, int warp_in_block);
  void finish_block(const std::shared_ptr<BlockRun>& run);

  sim::Simulation* sim_;
  GpuSpec spec_;
  std::vector<Smm*> smms_;
  std::deque<KernelExecutionPtr> active_;  // grids with unplaced blocks
  bool placing_ = false;                   // re-entrancy guard

  std::int64_t grids_launched_ = 0;
  std::int64_t blocks_started_ = 0;
  std::function<void(const GridRecord&)> grid_observer_;
};

}  // namespace pagoda::gpu
