#include "gpu/block_scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace pagoda::gpu {

KernelExecutionPtr BlockDispatcher::launch(KernelLaunchParams p) {
  PAGODA_CHECK_MSG(p.fn != nullptr, "kernel launch without a function");
  PAGODA_CHECK_MSG(p.threads_per_block >= 1 &&
                       p.threads_per_block <= spec_.max_threads_per_block,
                   "invalid threadblock size");
  auto exec = std::make_shared<KernelExecution>(*sim_, std::move(p));
  exec->grid_id = grids_launched_++;
  exec->launched = sim_->now();
  if (exec->params.num_blocks == 0) {
    exec->done.fire();
    return exec;
  }
  const BlockFootprint f = exec->params.footprint();
  PAGODA_CHECK_MSG(f.warps <= spec_.warps_per_smm &&
                       f.shared_mem_bytes <= spec_.shared_mem_per_smm &&
                       f.registers <= spec_.registers_per_smm,
                   "threadblock footprint exceeds SMM resources");
  active_.push_back(exec);
  try_place();
  return exec;
}

Smm* BlockDispatcher::pick_smm(const BlockFootprint& f) {
  // Balance by residency: pick the fitting SMM with the most free warps.
  Smm* best = nullptr;
  for (Smm* s : smms_) {
    if (!s->can_fit(f)) continue;
    if (best == nullptr || s->free_warps() > best->free_warps()) best = s;
  }
  return best;
}

void BlockDispatcher::try_place() {
  // finish_block() calls back into try_place(); flatten the recursion.
  if (placing_) return;
  placing_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    // Grids dispatch in launch order; later grids backfill what earlier
    // grids cannot use (concurrent kernel execution).
    for (auto it = active_.begin(); it != active_.end();) {
      KernelExecutionPtr& e = *it;
      const BlockFootprint f = e->params.footprint();
      while (!e->all_placed()) {
        Smm* smm = pick_smm(f);
        if (smm == nullptr) break;
        start_block(e, *smm, e->next_block++);
        progress = true;
      }
      if (e->all_placed()) {
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }
  placing_ = false;
}

void BlockDispatcher::start_block(const KernelExecutionPtr& e, Smm& smm,
                                  int block_index) {
  const KernelLaunchParams& p = e->params;
  const BlockFootprint f = p.footprint();
  smm.reserve(f);
  blocks_started_ += 1;

  auto run = std::make_shared<BlockRun>(*sim_, p.warps_per_block());
  run->exec = e;
  run->smm = &smm;
  run->block_index = block_index;
  run->footprint = f;
  run->warps_remaining = p.warps_per_block();
  if (p.shared_mem_bytes > 0) {
    run->shared_mem.resize(static_cast<std::size_t>(p.shared_mem_bytes));
  }
  for (int w = 0; w < p.warps_per_block(); ++w) {
    sim_->spawn(warp_runner(run, w));
  }
}

sim::Process BlockDispatcher::warp_runner(std::shared_ptr<BlockRun> run,
                                          int warp_in_block) {
  const KernelLaunchParams& p = run->exec->params;
  WarpCtx ctx;
  ctx.warp_in_task = run->block_index * p.warps_per_block() + warp_in_block;
  ctx.block_index = run->block_index;
  ctx.warp_in_block = warp_in_block;
  ctx.threads_per_block = p.threads_per_block;
  ctx.num_blocks = p.num_blocks;
  ctx.mode = p.mode;
  ctx.args = p.args.data();
  ctx.shared_mem = std::span<std::byte>(run->shared_mem);

  KernelCoro coro = p.fn(ctx);
  while (true) {
    const SegmentResult seg = run_segment(coro, ctx);
    if (seg.stall_cycles > 0.0) {
      co_await sim_->delay(static_cast<sim::Duration>(
          seg.stall_cycles * 1e12 / spec_.clock_hz));
    }
    if (seg.cycles > 0.0) co_await run->smm->execute(seg.cycles);
    if (!seg.at_barrier) break;
    co_await run->barrier.arrive_and_wait();
  }
  run->warps_remaining -= 1;
  if (run->warps_remaining == 0) finish_block(run);
}

void BlockDispatcher::finish_block(const std::shared_ptr<BlockRun>& run) {
  run->smm->release(run->footprint);
  KernelExecution& e = *run->exec;
  e.blocks_finished += 1;
  if (e.finished()) {
    if (grid_observer_) {
      grid_observer_(GridRecord{e.grid_id, e.launched, sim_->now(),
                                e.params.num_blocks,
                                e.params.threads_per_block});
    }
    e.done.fire();
  }
  try_place();
}

std::int64_t BlockDispatcher::unplaced_blocks() const {
  std::int64_t n = 0;
  for (const KernelExecutionPtr& e : active_) {
    n += e->params.num_blocks - e->next_block;
  }
  return n;
}

}  // namespace pagoda::gpu
