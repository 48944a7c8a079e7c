#include "pagoda/master_kernel.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

namespace pagoda::runtime {

std::int32_t MasterKernel::arena_bytes_for(const gpu::GpuSpec& spec) {
  const auto third =
      static_cast<std::uint32_t>(spec.shared_mem_per_smm / 3);
  return static_cast<std::int32_t>(std::bit_floor(third));
}

MasterKernel::MasterKernel(gpu::Device& dev, TaskTable& gpu_table,
                           const PagodaConfig& cfg)
    : dev_(dev),
      gpu_table_(gpu_table),
      cfg_(cfg),
      arena_bytes_(arena_bytes_for(dev.spec())),
      waiting_successor_column_(static_cast<std::size_t>(gpu_table.size()),
                                kNoColumn) {
  PAGODA_CHECK_MSG(gpu_table.columns() ==
                       dev.num_smms() * kMtbsPerSmm,
                   "TaskTable must have one column per MTB");
  PAGODA_CHECK_MSG(gpu_table.columns() <= kNoColumn,
                   "a TaskTable column must fit in a byte");
  PAGODA_CHECK_MSG(gpu_table.rows() == cfg.rows_per_column,
                   "TaskTable must have rows_per_column rows");
}

MasterKernel::~MasterKernel() {
  if (running_) shutdown();
}

sim::Duration MasterKernel::stall_to_time(double cycles) const {
  return static_cast<sim::Duration>(cycles * 1e12 / dev_.spec().clock_hz);
}

void MasterKernel::touch_busy(Mtb& mtb, int delta) {
  const sim::Time now = dev_.sim().now();
  busy_integral_ += static_cast<double>(busy_warps_) *
                    sim::to_seconds(now - busy_last_touch_);
  busy_last_touch_ = now;
  busy_warps_ += delta;
  mtb.busy_integral += static_cast<double>(mtb.busy_warps) *
                       sim::to_seconds(now - mtb.busy_last_touch);
  mtb.busy_last_touch = now;
  mtb.busy_warps += delta;
}

double MasterKernel::executor_busy_warp_seconds() const {
  const sim::Time now = dev_.sim().now();
  return busy_integral_ + static_cast<double>(busy_warps_) *
                              sim::to_seconds(now - busy_last_touch_);
}

double MasterKernel::executor_busy_warp_seconds(int mtb_index) const {
  PAGODA_CHECK(mtb_index >= 0 &&
               mtb_index < static_cast<int>(mtbs_.size()));
  const Mtb& mtb = *mtbs_[static_cast<std::size_t>(mtb_index)];
  const sim::Time now = dev_.sim().now();
  return mtb.busy_integral + static_cast<double>(mtb.busy_warps) *
                                 sim::to_seconds(now - mtb.busy_last_touch);
}

gpu::Smm::IssueAwaiter MasterKernel::sched_charge(Mtb& mtb, double cycles) {
  sched_cycles_ += cycles;
  return mtb.smm->execute(cycles);
}

double MasterKernel::scheduler_busy_seconds() const {
  return sched_cycles_ / dev_.spec().clock_hz;
}

std::int64_t MasterKernel::shmem_bytes_in_use() const {
  std::int64_t n = 0;
  for (const auto& mtb : mtbs_) n += mtb->shmem.allocated_bytes();
  return n;
}

std::int32_t MasterKernel::shmem_peak_arena_bytes() const {
  std::int32_t peak = 0;
  for (const auto& mtb : mtbs_) {
    peak = std::max(peak, mtb->shmem.peak_allocated_bytes());
  }
  return peak;
}

std::int64_t MasterKernel::shmem_alloc_successes() const {
  std::int64_t n = 0;
  for (const auto& mtb : mtbs_) n += mtb->shmem.alloc_successes();
  return n;
}

std::int64_t MasterKernel::shmem_alloc_failures() const {
  std::int64_t n = 0;
  for (const auto& mtb : mtbs_) n += mtb->shmem.alloc_failures();
  return n;
}

std::int64_t MasterKernel::shmem_sweeps() const {
  std::int64_t n = 0;
  for (const auto& mtb : mtbs_) n += mtb->shmem.sweeps();
  return n;
}

double MasterKernel::shmem_external_frag() const {
  double worst = 1.0;
  for (const auto& mtb : mtbs_) {
    worst = std::min(worst, mtb->shmem.physical().external_fragmentation());
  }
  return worst;
}

std::int64_t MasterKernel::shmem_internal_frag_bytes() const {
  std::int64_t n = 0;
  for (const auto& mtb : mtbs_) {
    n += mtb->shmem.physical().internal_frag_bytes();
  }
  return n;
}

std::int64_t MasterKernel::shmem_arena_bytes_backed() const {
  std::int64_t n = 0;
  for (const auto& mtb : mtbs_) {
    n += static_cast<std::int64_t>(mtb->arena.size());
  }
  return n;
}

std::int64_t MasterKernel::registers_in_use() const {
  std::int64_t n = 0;
  for (const auto& mtb : mtbs_) n += mtb->regs_used;
  return n;
}

void MasterKernel::start() {
  PAGODA_CHECK_MSG(!started_, "MasterKernel started twice");
  started_ = true;
  running_ = true;
  const gpu::BlockFootprint mtb_footprint =
      gpu::BlockFootprint::of(/*threads_per_block=*/kWarpsPerMtb * 32,
                              /*regs_per_thread=*/32, arena_bytes_);
  const int num_mtbs = dev_.num_smms() * kMtbsPerSmm;
  mtbs_.reserve(static_cast<std::size_t>(num_mtbs));
  // Virtual register budget per MTB: oversub x this MTB's share of the
  // SMM register file (passive at oversub == 1 — never charged).
  const auto reg_share =
      static_cast<std::int64_t>(dev_.spec().registers_per_smm) / kMtbsPerSmm;
  const std::int64_t reg_virtual = static_cast<std::int64_t>(
      static_cast<double>(reg_share) * cfg_.oversub);
  for (int m = 0; m < num_mtbs; ++m) {
    auto mtb = std::make_unique<Mtb>(dev_.sim(), cfg_.rows_per_column,
                                     arena_bytes_, cfg_, reg_virtual);
    mtb->index = m;
    mtb->column = m;
    mtb->smm = &dev_.smm(m / kMtbsPerSmm);
    PAGODA_CHECK_MSG(mtb->smm->can_fit(mtb_footprint),
                     "GPU cannot host the MasterKernel (resources busy?)");
    mtb->smm->reserve(mtb_footprint);
    mtbs_.push_back(std::move(mtb));
  }
  for (auto& mtb : mtbs_) {
    dev_.sim().spawn(scheduler_warp(*mtb));
    mtb->executors.spawn_deferred(
        [this, m = mtb.get()](int s) { return executor_warp(*m, s); });
  }
}

void MasterKernel::shutdown() {
  if (!running_) return;
  running_ = false;
  const gpu::BlockFootprint mtb_footprint =
      gpu::BlockFootprint::of(kWarpsPerMtb * 32, 32, arena_bytes_);
  for (auto& mtb : mtbs_) {
    // Leave parked scheduler warps parked: with running_ false nothing
    // re-arms them, and the condition's destructor reclaims the suspended
    // frames. Notifying here instead would move the handles into resume
    // events that never run (drivers shut down after the event queue has
    // drained), leaking every frame. Idle executor warps hold no frame.
    mtb->smm->release(mtb_footprint);
  }
}

void MasterKernel::on_entry_copied(TaskId id) {
  if (!running_) return;
  trace(TraceKind::kEntryCopied, id);
  wake_scheduler(mtb_of_column(gpu_table_.column_of(id)));
  wake_waiting_successor(id);
}

void MasterKernel::wake_waiting_successor(TaskId id) {
  std::uint8_t& waiting = waiting_successor_column_[static_cast<std::size_t>(
      id - kFirstTaskId)];
  if (waiting == kNoColumn) return;
  const int col = waiting;
  waiting = kNoColumn;
  wake_scheduler(mtb_of_column(col));
}

// --- scheduler warp (Algorithm 1, lines 2-28) -------------------------------

sim::Process MasterKernel::scheduler_warp(Mtb& mtb) {
  while (running_) {
    const std::uint64_t seq = mtb.sched_seq;
    heartbeats_ += 1;
    bool progress = false;
    // Cost of one pass over the column: the scheduler warp's 32 threads scan
    // the 32 rows in parallel.
    co_await sched_charge(mtb, cfg_.scan_pass_cycles);
    // The pass visits only the rows the actionable mask names, in row order.
    // A row outside the mask neither suspends nor writes, so no event runs
    // between two visited rows and skipping the others is exact; the mask is
    // re-read after every visit, since a visit may await or release a later
    // row of this column.
    for (int row = gpu_table_.next_actionable(mtb.column, 0);
         row >= 0 && running_;
         row = gpu_table_.next_actionable(mtb.column, row + 1)) {
      const TaskId id = gpu_table_.id_of(mtb.column, row);

      // Lines 5-13: a ready field holding a taskId releases the *previous*
      // task — its parameters are known complete because its copy
      // transaction preceded this entry's on the stream.
      if (const TaskId prev_id = gpu_table_.status(id).ready;
          prev_id > kReadyScheduling) {
        if (gpu_table_.status(prev_id).ready == kReadyParamsCopied) {
          co_await sched_charge(mtb, cfg_.release_chain_cycles);
          gpu_table_.set_status(prev_id, {kReadyScheduling, 1});
          gpu_table_.set_status(id, {kReadyParamsCopied, 0});
          trace(TraceKind::kReleased, prev_id, mtb.column);
          // prev may live in another MTB's column: wake its scheduler warp.
          wake_scheduler(mtb_of_column(gpu_table_.column_of(prev_id)));
          // This entry just reached (-1, 0); its own successor (if already
          // copied) can now be processed.
          wake_waiting_successor(id);
          progress = true;
        } else {
          // The previous task is not yet in (-1, 0): the paper's polling
          // scheduler retries (threadfence + continue); register for a wake
          // when it transitions.
          waiting_successor_column_[static_cast<std::size_t>(
              prev_id - kFirstTaskId)] = static_cast<std::uint8_t>(mtb.column);
        }
      }

      // Lines 14-28: claim an entry whose sched flag is set. Under fifo the
      // claim happens here, inline, in raw row-scan order — the paper's
      // behavior, preserved byte-for-byte. Other policies only collect the
      // claimable rows; the ordered claim pass below decides the order.
      if (const EntryStatus entry = gpu_table_.status(id); entry.sched == 1) {
        if (mtb.claim_policy.fifo()) {
          gpu_table_.set_status(id, {entry.ready, 0});
          trace(TraceKind::kScheduled, id, mtb.column);
          if (claim_observer_) claim_observer_(id, dev_.sim().now());
          co_await schedule_entry(mtb, row);
          progress = true;
        } else {
          mtb.claim_rows.push_back(row);
        }
      }
    }
    if (!mtb.claim_rows.empty()) {
      const bool claimed = co_await claim_in_policy_order(mtb);
      progress = progress || claimed;
    }
    if (!running_) break;
    if (!progress && mtb.sched_seq == seq) {
      co_await mtb.sched_cv.wait();
    }
  }
}

sched::SchedKey MasterKernel::claim_key(const Mtb& mtb, int row) const {
  const TaskParams& p =
      std::as_const(gpu_table_).params(gpu_table_.id_of(mtb.column, row));
  sched::SchedKey key;
  key.cls = sched::class_from_raw(p.sched_class);
  key.deadline = sched::deadline_from_us(p.deadline_us);
  key.cost = static_cast<double>(p.warps_total());
  // Row index stands in for arrival sequence: ties reproduce raw scan order.
  key.seq = static_cast<std::uint64_t>(row);
  return key;
}

// The non-fifo claim path: order this pass's claimable rows through the
// policy comparator, then claim them one by one. schedule_entry may block
// (pSched waits for executor warps), during which an entry can be resolved
// by a release chain on another warp — hence the sched == 1 re-check per
// claim. The selection itself is charged claim_select_cycles once per pass,
// identically in Model and Compute modes, so timing stays mode-independent.
sim::Task<bool> MasterKernel::claim_in_policy_order(Mtb& mtb) {
  co_await sched_charge(mtb, cfg_.claim_select_cycles);
  mtb.claim_keys.clear();
  for (const int row : mtb.claim_rows) {
    mtb.claim_keys.push_back(claim_key(mtb, row));
  }
  mtb.claim_order.resize(mtb.claim_rows.size());
  mtb.claim_policy.order(mtb.claim_keys, mtb.claim_order);
  bool progress = false;
  for (const int i : mtb.claim_order) {
    if (!running_) break;
    const int row = mtb.claim_rows[static_cast<std::size_t>(i)];
    const TaskId id = gpu_table_.id_of(mtb.column, row);
    const EntryStatus entry = gpu_table_.status(id);
    if (entry.sched != 1) continue;  // resolved while a prior claim awaited
    gpu_table_.set_status(id, {entry.ready, 0});
    mtb.claim_policy.served(mtb.claim_keys[static_cast<std::size_t>(i)]);
    trace(TraceKind::kScheduled, id, mtb.column);
    if (claim_observer_) claim_observer_(id, dev_.sim().now());
    co_await schedule_entry(mtb, row);
    progress = true;
  }
  mtb.claim_rows.clear();
  co_return progress;
}

sim::Task<> MasterKernel::schedule_entry(Mtb& mtb, int row) {
  const TaskParams& p =
      std::as_const(gpu_table_).params(gpu_table_.id_of(mtb.column, row));
  PAGODA_CHECK_MSG(p.fn != nullptr, "scheduling an entry without a kernel");
  mtb.done_ctr[static_cast<std::size_t>(row)] = p.warps_total();
  tasks_scheduled_ += 1;

  if (cfg_.oversub > 1.0) {
    // Virtual register admission: claims defer (wait, never spill) while
    // the oversubscribed budget is exhausted; freed at task completion.
    const std::int64_t reg_need =
        static_cast<std::int64_t>(p.regs_used_per_thread()) *
        p.threads_per_block * p.num_blocks;
    if (mtb.regs_used + reg_need > mtb.regs_budget) register_waits_ += 1;
    while (running_ && mtb.regs_used + reg_need > mtb.regs_budget) {
      const std::uint64_t seq = mtb.sched_seq;
      if (mtb.sched_seq == seq) co_await mtb.sched_cv.wait();
    }
    if (!running_) co_return;
    mtb.regs_used += reg_need;
  }

  if (p.shared_mem_bytes > 0 || p.needs_sync) {
    // Lines 17-26: per-threadblock scheduling with barrier/shared-memory
    // leases.
    for (int j = 0; j < p.num_blocks && running_; ++j) {
      auto block = std::make_shared<BlockState>();
      block->warps_remaining = p.warps_per_block();
      if (p.needs_sync) {
        // getBarId(): lease a named barrier, waiting for one to recycle if
        // all 16 are in use.
        while (running_ && !mtb.barriers.has_free()) {
          const std::uint64_t seq = mtb.sched_seq;
          if (mtb.sched_seq == seq) co_await mtb.sched_cv.wait();
        }
        if (!running_) co_return;
        block->bar_id = mtb.barriers.acquire(p.warps_per_block());
        co_await sched_charge(mtb, cfg_.barrier_mgmt_cycles);
      }
      if (p.shared_mem_bytes > 0) {
        // Lines 20-24: sweep deferred deallocations, then try to allocate;
        // block until a marked region frees enough space.
        while (running_) {
          if (mtb.shmem.has_deferred()) {
            shmem_blocks_swept_ += mtb.shmem.sweep_deferred();
            co_await sched_charge(mtb, cfg_.shmem_sweep_cycles);
          }
          const std::uint64_t seq = mtb.sched_seq;
          const auto res =
              mtb.shmem.allocate(p.shared_mem_bytes, p.shmem_used_bytes());
          co_await sched_charge(mtb, cfg_.shmem_alloc_cycles);
          if (res.has_value()) {
            block->sm_offset = *res;
            block->sm_bytes = p.shared_mem_bytes;
            break;
          }
          if (!mtb.shmem.has_deferred() && mtb.sched_seq == seq) {
            co_await mtb.sched_cv.wait();
          }
        }
        if (!running_) co_return;
      }
      co_await psched(mtb, row, j * p.warps_per_block(), p.warps_per_block(),
                      block);
    }
  } else {
    // Line 28: no leases needed; place all warps of the task as slots free.
    co_await psched(mtb, row, 0, p.warps_total(), nullptr);
  }
}

sim::Task<> MasterKernel::psched(Mtb& mtb, int row, int base_warp, int count,
                                 std::shared_ptr<BlockState> block) {
  int scheduled = 0;
  while (scheduled < count && running_) {
    const std::uint64_t seq = mtb.sched_seq;
    // §6.4 ablation: CUDA-style threadblock-granularity dispatch waits for
    // the whole block's worth of free executor warps before placing any.
    // (Tasks wider than one MTB's 31 executors stream in MTB-sized groups —
    // waiting for more slots than exist would deadlock.)
    const int group = std::min(count - scheduled, kExecutorWarps);
    if (cfg_.threadblock_granularity && mtb.free_slots < group) {
      if (mtb.sched_seq == seq) co_await mtb.sched_cv.wait();
      continue;
    }
    int placed = 0;
    for (int s = 0; s < kExecutorWarps && scheduled < count; ++s) {
      WarpSlot& slot = mtb.warp_table[static_cast<std::size_t>(s)];
      if (slot.exec) continue;
      slot.warp_id = base_warp + scheduled;
      slot.entry_row = row;
      slot.sm_index = block ? block->sm_offset : -1;
      slot.bar_id = static_cast<std::int16_t>(block ? block->bar_id : -1);
      slot.block = block;
      slot.exec = true;  // set last: the executor reads fields after this
      mtb.executors.hand_off(s);
      mtb.free_slots -= 1;
      scheduled += 1;
      placed += 1;
      trace(TraceKind::kWarpDispatched, gpu_table_.id_of(mtb.column, row), s);
    }
    if (placed > 0) {
      warps_dispatched_ += placed;
      co_await sched_charge(mtb, cfg_.dispatch_cycles_per_warp * placed);
      mtb.executors.notify_all();
      continue;
    }
    // No free executor warps: block until one frees (Algorithm 2's outer
    // while loop — the scheduler warp is busy on this task meanwhile).
    if (mtb.sched_seq == seq) co_await mtb.sched_cv.wait();
  }
}

// --- executor warps (Algorithm 1, lines 29-43) -------------------------------

sim::Process MasterKernel::executor_warp(Mtb& mtb, int slot_index) {
  WarpSlot& slot = mtb.warp_table[static_cast<std::size_t>(slot_index)];
  executor_warps_live_ += 1;
  while (running_) {
    if (!slot.exec) {
      mtb.executors.retire(slot_index);
      break;
    }
    const TaskId id = gpu_table_.id_of(mtb.column, slot.entry_row);
    const TaskParams& p = std::as_const(gpu_table_).params(id);
    touch_busy(mtb, +1);

    gpu::WarpCtx ctx;
    ctx.warp_in_task = slot.warp_id;
    ctx.block_index = slot.warp_id / p.warps_per_block();
    ctx.warp_in_block = slot.warp_id % p.warps_per_block();
    ctx.threads_per_block = p.threads_per_block;
    ctx.num_blocks = p.num_blocks;
    ctx.mode = cfg_.mode;
    ctx.set_costs(cfg_.costs);
    ctx.args = p.args.data();
    if (slot.sm_index >= 0 && slot.block && slot.block->sm_bytes > 0) {
      ctx.shared_mem_declared = slot.block->sm_bytes;
      if (cfg_.mode == gpu::ExecMode::Compute) {
        if (mtb.arena.empty()) {
          mtb.arena.resize(static_cast<std::size_t>(arena_bytes_));
        }
        ctx.shared_mem = std::span<std::byte>(
            mtb.arena.data() + slot.sm_index,
            static_cast<std::size_t>(slot.block->sm_bytes));
      }
    }

    // Line 33: the warp executes the task kernel as a subroutine.
    gpu::KernelCoro coro = p.fn(ctx);
    while (true) {
      const gpu::SegmentResult seg = gpu::run_segment(coro, ctx);
      if (seg.stall_cycles > 0.0) {
        // Stalls are counted in cycles, so a DVFS-scaled clock stretches
        // them too (divide by 1.0 is exact when the power plane is off).
        co_await dev_.sim().delay(
            stall_to_time(seg.stall_cycles / mtb.smm->clock_scale()));
      }
      if (seg.cycles > 0.0) co_await mtb.smm->execute(seg.cycles);
      if (!seg.at_barrier) break;
      PAGODA_CHECK_MSG(slot.bar_id >= 0,
                       "syncBlock() in a task spawned without the sync flag");
      co_await mtb.barriers.barrier(slot.bar_id).arrive_and_wait();
    }

    // Lines 34-43: completion bookkeeping.
    std::shared_ptr<BlockState> block = std::move(slot.block);
    if (block != nullptr) {
      block->warps_remaining -= 1;
      if (block->warps_remaining == 0) {  // lastWarpInBlock()
        if (block->sm_offset >= 0) {
          mtb.shmem.mark_for_deallocation(block->sm_offset, block->sm_bytes);
        }
        if (block->bar_id >= 0) {
          mtb.barriers.release(block->bar_id);
        }
      }
    }
    const int row = slot.entry_row;
    mtb.done_ctr[static_cast<std::size_t>(row)] -= 1;
    PAGODA_CHECK(mtb.done_ctr[static_cast<std::size_t>(row)] >= 0);
    if (mtb.done_ctr[static_cast<std::size_t>(row)] == 0) {
      if (cfg_.oversub > 1.0) {
        mtb.regs_used -= static_cast<std::int64_t>(p.regs_used_per_thread()) *
                         p.threads_per_block * p.num_blocks;
        PAGODA_CHECK_MSG(mtb.regs_used >= 0,
                         "MTB register budget freed more than it held");
      }
      // Frees the entry; the CPU learns lazily.
      gpu_table_.set_status(id, {kReadyFree, gpu_table_.status(id).sched});
      tasks_completed_ += 1;
      heartbeats_ += 1;
      trace(TraceKind::kCompleted, id, mtb.column);
      if (completion_observer_) completion_observer_(id, dev_.sim().now());
    }
    touch_busy(mtb, -1);
    slot.exec = false;
    slot.entry_row = -1;
    slot.sm_index = -1;
    slot.bar_id = -1;
    mtb.free_slots += 1;
    wake_scheduler(mtb);  // pSched may be waiting for a free warp
  }
  executor_warps_live_ -= 1;
}

}  // namespace pagoda::runtime
