// MasterKernel scheduler-pass tests, driven through the GPU-side TaskTable
// alone (no host runtime): entries land the way the spawn protocol lands
// them, and the scheduler warps release, claim and dispatch them.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gpu/device.h"
#include "pagoda/master_kernel.h"
#include "sim/frame_pool.h"
#include "sim/simulation.h"

#ifndef PAGODA_FRAME_POOL_DISABLED
// Counts heap blocks so the allocation guard below can bound what a
// scheduler pass costs. This binary holds only MasterKernel tests, so the
// count is theirs alone. Sanitizer builds keep their own allocator and skip
// the guard.
namespace {
long g_heap_blocks = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_blocks += 1;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace pagoda::runtime {
namespace {

gpu::KernelCoro busy_kernel(gpu::WarpCtx& ctx) {
  ctx.charge(40.0);
  ctx.charge_stall(60.0);
  co_return;
}

/// A GPU table, its MasterKernel and the batches landed on them.
struct Bench {
  sim::Simulation sim;
  gpu::Device dev{sim, gpu::GpuSpec::titan_x()};
  TaskTable table;
  MasterKernel mk;

  explicit Bench(const PagodaConfig& cfg)
      : table(dev.num_smms() * MasterKernel::kMtbsPerSmm,
              cfg.rows_per_column),
        mk(dev, table, cfg) {
    mk.start();
  }
  ~Bench() { mk.shutdown(); }

  /// Lands `per_column` entries per column in spawn order (columns first),
  /// each carrying its predecessor's id, runs until only the last one is
  /// left parked, releases it as the spawner's flush does, and runs until
  /// every task has completed.
  /// Deadlines fall with the spawn order, so edf claims a column's rows in
  /// reverse.
  void run_batch(int per_column) {
    TaskId prev = 0;
    std::uint32_t deadline_us = 1'000'000;
    for (int r = 0; r < per_column; ++r) {
      for (int c = 0; c < table.columns(); ++c) {
        const TaskId id = table.id_of(c, r);
        TaskEntry e;
        e.params.fn = busy_kernel;
        e.params.threads_per_block = 64;
        e.params.num_blocks = 2;
        e.params.deadline_us = deadline_us--;
        e.ready = prev == 0 ? kReadyParamsCopied : prev;
        table.store(id, e);
        mk.on_entry_copied(id);
        prev = id;
      }
    }
    sim.run();  // releases every entry but the last
    EXPECT_EQ(table.status(prev).ready, kReadyParamsCopied);
    table.set_status(prev, {kReadyScheduling, 1});
    mk.on_entry_copied(prev);
    sim.run();
  }
};

TaskEntry busy_entry(std::int32_t ready, std::int32_t sched,
                     std::uint32_t deadline_us) {
  TaskEntry e;
  e.params.fn = busy_kernel;
  e.params.threads_per_block = 32;
  e.params.deadline_us = deadline_us;
  e.ready = ready;
  e.sched = sched;
  return e;
}

// One pass over a 70-row column (two mask words) whose work lands at once:
// claimable rows on both sides of each word edge, adjacent rows, and row 1
// naming row 40 (parked at (-1, 0)) as its predecessor. The pass releases
// row 40 at row 1 and reaches it later in the same pass, so fifo claims in
// row order and edf claims the same rows in deadline order.
TEST(MasterKernel, APassVisitsEveryActionableRowInRowOrder) {
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kFifo, sched::PolicyKind::kEdf}) {
    SCOPED_TRACE(sched::to_string(kind));
    PagodaConfig cfg;
    cfg.mode = gpu::ExecMode::Model;
    cfg.rows_per_column = 70;
    cfg.sched.kind = kind;
    Bench b(cfg);
    std::vector<int> claimed;
    b.mk.set_claim_observer([&](TaskId id, sim::Time) {
      EXPECT_EQ(b.table.column_of(id), 0);
      claimed.push_back(b.table.row_of(id));
    });
    const std::vector<int> claimable = {0, 2, 31, 32, 63, 64, 69};
    for (const int row : claimable) {
      // Deadlines fall with the row: edf reverses the row order.
      b.table.store(b.table.id_of(0, row),
                    busy_entry(kReadyScheduling, 1,
                               static_cast<std::uint32_t>(1000 - row)));
    }
    b.table.store(b.table.id_of(0, 40),
                  busy_entry(kReadyParamsCopied, 0, 1000 - 40));
    b.table.store(b.table.id_of(0, 1), busy_entry(b.table.id_of(0, 40), 0, 1));
    b.mk.on_entry_copied(b.table.id_of(0, 1));
    b.sim.run();
    const std::vector<int> row_order = {0, 2, 31, 32, 40, 63, 64, 69};
    if (kind == sched::PolicyKind::kFifo) {
      EXPECT_EQ(claimed, row_order);
    } else {
      EXPECT_EQ(claimed,
                std::vector<int>(row_order.rbegin(), row_order.rend()));
    }
    EXPECT_EQ(b.table.status(b.table.id_of(0, 1)).ready, kReadyParamsCopied);
    EXPECT_EQ(b.mk.tasks_completed(),
              static_cast<std::int64_t>(row_order.size()));
  }
}

// fifo claims inline during the scan; edf collects a pass's claimable rows
// and claims them in policy order, through the per-MTB scratch.
TEST(MasterKernel, SteadyStateSchedulerPassAllocatesNothing) {
#ifdef PAGODA_FRAME_POOL_DISABLED
  GTEST_SKIP() << "sanitizer builds keep their own allocator";
#else
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kFifo, sched::PolicyKind::kEdf}) {
    SCOPED_TRACE(sched::to_string(kind));
    PagodaConfig cfg;
    cfg.mode = gpu::ExecMode::Model;
    cfg.sched.kind = kind;
    Bench b(cfg);
    // Warm the frame pool, the event slab and every MTB's claim scratch.
    for (int i = 0; i < 3; ++i) b.run_batch(8);
    const std::int64_t done_before = b.mk.tasks_completed();
    const std::int64_t passes_before = b.mk.heartbeats();
    const long before = g_heap_blocks;
    for (int i = 0; i < 20; ++i) b.run_batch(8);
    const long blocks = g_heap_blocks - before;
    const std::int64_t tasks = b.mk.tasks_completed() - done_before;
    RecordProperty(std::string("heap_blocks_") + std::string(to_string(kind)),
                   static_cast<int>(blocks));
    EXPECT_EQ(tasks, 20 * 8 * b.table.columns());
    // Every task takes at least one pass to release and one to claim.
    EXPECT_GT(b.mk.heartbeats() - passes_before - tasks, tasks);
    EXPECT_EQ(blocks, 0);
  }
#endif
}

}  // namespace
}  // namespace pagoda::runtime
