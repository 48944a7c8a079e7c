// End-to-end tests of the Pagoda runtime: the TaskTable spawning protocol,
// MasterKernel scheduling, shared memory, named barriers, and the public
// API semantics of paper Table 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "gpu/device.h"
#include "pagoda/runtime.h"
#include "sim/process.h"

namespace pagoda::runtime {
namespace {

using gpu::Device;
using gpu::GpuSpec;
using gpu::KernelCoro;
using gpu::WarpCtx;
using sim::Simulation;

// Writes tid*10+7 into out[tid]; exercises getTid across blocks/warps.
struct TidArgs {
  int* out;
  int n;
};

KernelCoro tid_kernel(WarpCtx& ctx) {
  const auto& a = ctx.args_as<TidArgs>();
  for (int lane = 0; lane < ctx.active_lanes(); ++lane) {
    const int tid = ctx.tid(lane);
    if (tid < a.n && ctx.compute()) a.out[tid] = tid * 10 + 7;
  }
  ctx.charge(ctx.costs().alu + ctx.costs().global_access);
  ctx.charge_stall(ctx.costs().global_stall);
  co_return;
}

// Block-wide sum via shared memory + syncBlock; out[block] = sum of tids.
struct ReduceArgs {
  long long* out;  // one per block
};

KernelCoro reduce_kernel(WarpCtx& ctx) {
  auto partials = ctx.shared_as<long long>();
  const int warps = (ctx.threads_per_block + 31) / 32;
  if (ctx.compute()) {
    long long local = 0;
    for (int lane = 0; lane < ctx.active_lanes(); ++lane) {
      local += ctx.tid(lane);
    }
    partials[static_cast<std::size_t>(ctx.warp_in_block)] = local;
  }
  ctx.charge(ctx.costs().alu * 4 + ctx.costs().shared_access);
  co_await ctx.sync_block();
  if (ctx.warp_in_block == 0) {
    if (ctx.compute()) {
      long long total = 0;
      for (int w = 0; w < warps; ++w) total += partials[static_cast<std::size_t>(w)];
      ctx.args_as<ReduceArgs>().out[ctx.block_index] = total;
    }
    ctx.charge(ctx.costs().shared_access * warps + ctx.costs().global_access);
    ctx.charge_stall(ctx.costs().global_stall);
  }
  co_return;
}

TaskParams make_tid_task(int* out, int n, int threads_per_block,
                         int num_blocks) {
  TaskParams p;
  p.fn = tid_kernel;
  p.threads_per_block = threads_per_block;
  p.num_blocks = num_blocks;
  p.set_args(TidArgs{out, n});
  return p;
}

// --- single task lifecycle ---------------------------------------------------

sim::Process spawn_one_and_wait(Runtime& rt, TaskParams params, bool use_wait,
                                bool& completed) {
  const TaskHandle h = co_await rt.task_spawn(std::move(params));
  EXPECT_TRUE(h.valid());
  EXPECT_GE(h.id, kFirstTaskId);  // taskIDs are integers > 1 (paper §3)
  if (use_wait) {
    co_await rt.wait(h);
  } else {
    co_await rt.wait_all();
  }
  EXPECT_TRUE(rt.check(h));
  completed = true;
}

class PagodaSingleTask : public ::testing::TestWithParam<bool> {};

TEST_P(PagodaSingleTask, RunsViaFlushPath) {
  // A lone task has no successor to release it: only the CPU flush path
  // (copy back, see (-1,0), write (1,1)) can start it.
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  std::vector<int> out(128, -1);
  bool completed = false;
  sim.spawn(spawn_one_and_wait(rt, make_tid_task(out.data(), 128, 128, 1),
                               GetParam(), completed));
  sim.run_until(sim::milliseconds(50));
  ASSERT_TRUE(completed);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 10 + 7);
  EXPECT_EQ(rt.stats().tasks_spawned, 1);
  EXPECT_EQ(rt.stats().flushes, 1);
  EXPECT_EQ(rt.master_kernel().tasks_completed(), 1);
  rt.shutdown();
}

INSTANTIATE_TEST_SUITE_P(WaitVariants, PagodaSingleTask,
                         ::testing::Values(true, false));

// --- many tasks: pipelined releases ------------------------------------------

sim::Process spawn_many(Runtime& rt, std::vector<int>& out, int num_tasks,
                        int threads_per_task, bool& done) {
  for (int t = 0; t < num_tasks; ++t) {
    co_await rt.task_spawn(make_tid_task(
        out.data() + t * threads_per_task, threads_per_task,
        threads_per_task, 1));
  }
  co_await rt.wait_all();
  done = true;
}

TEST(PagodaRuntime, ManyTasksAllExecuteExactlyOnce) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  constexpr int kTasks = 500;
  constexpr int kThreads = 96;
  std::vector<int> out(kTasks * kThreads, -1);
  bool done = false;
  sim.spawn(spawn_many(rt, out, kTasks, kThreads, done));
  sim.run_until(sim::seconds(2.0));
  ASSERT_TRUE(done);
  for (int t = 0; t < kTasks; ++t) {
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_EQ(out[static_cast<std::size_t>(t * kThreads + i)], i * 10 + 7)
          << "task " << t << " tid " << i;
    }
  }
  EXPECT_EQ(rt.master_kernel().tasks_completed(), kTasks);
  // Steady state: one entry copy per task, plus one per flush.
  EXPECT_EQ(rt.stats().entry_copies,
            rt.stats().tasks_spawned + rt.stats().flushes);
  rt.shutdown();
}

TEST(PagodaRuntime, TableOverflowRecyclesEntries) {
  // More tasks than TaskTable entries (48 columns x 32 rows = 1536 on the
  // full Titan X config): forces aggregate copy-backs and entry recycling.
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 2;  // 4 MTBs x 32 rows = 128 entries
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  constexpr int kTasks = 700;
  constexpr int kThreads = 64;
  std::vector<int> out(kTasks * kThreads, -1);
  bool done = false;
  sim.spawn(spawn_many(rt, out, kTasks, kThreads, done));
  sim.run_until(sim::seconds(5.0));
  ASSERT_TRUE(done);
  EXPECT_EQ(rt.master_kernel().tasks_completed(), kTasks);
  EXPECT_GT(rt.stats().aggregate_copybacks, 0);
  for (int t = 0; t < kTasks; ++t) {
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_EQ(out[static_cast<std::size_t>(t * kThreads + i)], i * 10 + 7);
    }
  }
  rt.shutdown();
}

// --- shared memory + syncBlock ------------------------------------------------

TaskParams make_reduce_task(long long* out, int threads, int blocks) {
  TaskParams p;
  p.fn = reduce_kernel;
  p.threads_per_block = threads;
  p.num_blocks = blocks;
  p.needs_sync = true;
  p.shared_mem_bytes =
      static_cast<std::int32_t>(sizeof(long long)) * ((threads + 31) / 32);
  p.set_args(ReduceArgs{out});
  return p;
}

sim::Process spawn_reduce_tasks(Runtime& rt, std::vector<long long>& out,
                                int num_tasks, int threads, int blocks,
                                bool& done) {
  for (int t = 0; t < num_tasks; ++t) {
    co_await rt.task_spawn(
        make_reduce_task(out.data() + t * blocks, threads, blocks));
  }
  co_await rt.wait_all();
  done = true;
}

TEST(PagodaRuntime, SharedMemoryReductionAcrossBlocks) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  constexpr int kTasks = 100;
  constexpr int kThreads = 256;
  constexpr int kBlocks = 3;
  std::vector<long long> out(kTasks * kBlocks, -1);
  bool done = false;
  sim.spawn(spawn_reduce_tasks(rt, out, kTasks, kThreads, kBlocks, done));
  sim.run_until(sim::seconds(2.0));
  ASSERT_TRUE(done);
  // Block b of any task sums tids [b*256, (b+1)*256).
  for (int t = 0; t < kTasks; ++t) {
    for (int b = 0; b < kBlocks; ++b) {
      const long long lo = static_cast<long long>(b) * kThreads;
      const long long expected = (lo + lo + kThreads - 1) * kThreads / 2;
      ASSERT_EQ(out[static_cast<std::size_t>(t * kBlocks + b)], expected)
          << "task " << t << " block " << b;
    }
  }
  EXPECT_GT(rt.master_kernel().shmem_blocks_swept(), 0);
  rt.shutdown();
}

TEST(PagodaRuntime, NamedBarrierPoolRecyclesPast16Blocks) {
  // One MTB has 16 named barriers; a task with 32 synchronizing blocks in
  // one column forces recycling.
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  constexpr int kBlocks = 32;
  std::vector<long long> out(kBlocks, -1);
  bool done = false;
  sim.spawn(spawn_reduce_tasks(rt, out, 1, 64, kBlocks, done));
  sim.run_until(sim::seconds(2.0));
  ASSERT_TRUE(done);
  for (int b = 0; b < kBlocks; ++b) {
    const long long lo = static_cast<long long>(b) * 64;
    ASSERT_EQ(out[static_cast<std::size_t>(b)], (lo + lo + 63) * 64 / 2);
  }
  rt.shutdown();
}

TEST(PagodaRuntime, FullArenaTasksSerializePerMtb) {
  // Tasks requesting the whole 32KB arena cannot share an MTB; they must
  // still all complete, via deferred deallocation sweeps.
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;  // 2 MTBs
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  constexpr int kTasks = 8;
  std::vector<long long> out(kTasks, -1);
  bool done = false;
  // 32KB request with 2 warps per block.
  struct Spawner {
    static sim::Process run(Runtime& rt, std::vector<long long>& out,
                            bool& done) {
      for (int t = 0; t < kTasks; ++t) {
        TaskParams p;
        p.fn = reduce_kernel;
        p.threads_per_block = 64;
        p.num_blocks = 1;
        p.needs_sync = true;
        p.shared_mem_bytes = 32 * 1024;
        p.set_args(ReduceArgs{out.data() + t});
        co_await rt.task_spawn(p);
      }
      co_await rt.wait_all();
      done = true;
    }
  };
  sim.spawn(Spawner::run(rt, out, done));
  sim.run_until(sim::seconds(2.0));
  ASSERT_TRUE(done);
  for (int t = 0; t < kTasks; ++t) {
    ASSERT_EQ(out[static_cast<std::size_t>(t)], 63 * 64 / 2);
  }
  rt.shutdown();
}

// --- host cost: state is backed only where a task reaches it ----------------

// Declares shared memory but never reads it, as Model-mode kernels do.
KernelCoro shmem_charge_kernel(WarpCtx& ctx) {
  ctx.charge(ctx.costs().shared_access);
  co_return;
}

sim::Process spawn_all(Runtime& rt, std::vector<TaskParams> tasks,
                       bool& done) {
  for (const TaskParams& p : tasks) co_await rt.task_spawn(p);
  co_await rt.wait_all();
  done = true;
}

TEST(PagodaRuntime, ExecutorWarpsAreCreatedOnlyWhenHandedWork) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 2;  // 4 MTBs, 124 executor slots
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  sim.run_until(sim::microseconds(1.0));
  EXPECT_EQ(rt.master_kernel().executor_warps_live(), 0);
  std::vector<int> out(128, -1);
  bool done = false;
  sim.spawn(spawn_all(rt, {make_tid_task(out.data(), 128, 128, 1)}, done));
  int peak_live = 0;
  while (sim.now() < sim::seconds(1.0) && sim.step()) {
    peak_live = std::max(peak_live, rt.master_kernel().executor_warps_live());
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(out[127], 127 * 10 + 7);
  // One 4-warp task: four slots of one MTB were handed work.
  EXPECT_EQ(rt.master_kernel().warps_dispatched(), 4);
  EXPECT_EQ(peak_live, 4);
  rt.shutdown();
}

TEST(PagodaRuntime, IdleExecutorsHoldNoFrame) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 2;  // 4 MTBs, 124 executor slots
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  std::vector<TaskParams> tasks;
  std::vector<std::vector<int>> outs(40, std::vector<int>(256, -1));
  for (std::vector<int>& out : outs) {
    tasks.push_back(make_tid_task(out.data(), 256, 128, 2));
  }
  bool done = false;
  sim.spawn(spawn_all(rt, tasks, done));
  int peak_live = 0;
  while (sim.step()) {
    peak_live = std::max(peak_live, rt.master_kernel().executor_warps_live());
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(outs.back()[255], 255 * 10 + 7);
  EXPECT_GT(peak_live, 0);
  // Every warp ran and retired: the drained MTBs hold no executor frame.
  EXPECT_EQ(rt.master_kernel().executor_warps_live(), 0);
  rt.shutdown();
}

TEST(PagodaRuntime, LightLoadBacksOnlyTheRowsItSpawnedInto) {
  // Spawns fill columns first: 64 tasks on 48 columns land in rows 0 and 1.
  // wait_all walks every status word of the table, which backs nothing.
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  constexpr int kTasks = 64;
  std::vector<int> out(kTasks * 32, -1);
  bool done = false;
  sim.spawn(spawn_many(rt, out, kTasks, 32, done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  EXPECT_EQ(rt.master_kernel().tasks_completed(), kTasks);
  EXPECT_EQ(rt.cpu_table().rows_backed(), 2);
  EXPECT_EQ(rt.gpu_table().rows_backed(), 2);
  rt.shutdown();
}

TEST(PagodaRuntime, ModelModeBacksNoSharedMemoryArena) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 2;  // 4 MTBs
  Device dev(sim, spec);
  PagodaConfig cfg;
  cfg.mode = gpu::ExecMode::Model;
  Runtime rt(dev, {}, cfg);
  rt.start();
  TaskParams p;
  p.fn = shmem_charge_kernel;
  p.threads_per_block = 64;
  p.num_blocks = 2;
  p.shared_mem_bytes = 4096;
  bool done = false;
  sim.spawn(spawn_all(rt, std::vector<TaskParams>(16, p), done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  // The buddy arenas were simulated; no host byte backs them.
  EXPECT_EQ(rt.master_kernel().shmem_alloc_successes(), 32);
  EXPECT_EQ(rt.master_kernel().shmem_arena_bytes_backed(), 0);
  rt.shutdown();
}

sim::Process backing_phases(Runtime& rt, std::vector<int>& tids,
                            std::vector<long long>& sums, bool& done) {
  const MasterKernel& mk = rt.master_kernel();
  const std::int64_t arena = mk.arena_bytes();
  // Spawning is column-first, so consecutive spawns land on distinct MTBs.
  for (int t = 0; t < 4; ++t) {
    co_await rt.task_spawn(make_tid_task(tids.data() + t * 64, 64, 64, 1));
  }
  co_await rt.wait_all();
  EXPECT_EQ(mk.shmem_arena_bytes_backed(), 0);  // no shared memory used yet
  for (int t = 0; t < 3; ++t) {
    co_await rt.task_spawn(make_reduce_task(&sums[static_cast<std::size_t>(t)],
                                            64, 1));
  }
  co_await rt.wait_all();
  EXPECT_EQ(mk.shmem_arena_bytes_backed(), 3 * arena);  // MTBs 0, 1, 2
  for (int t = 3; t < 8; ++t) {
    co_await rt.task_spawn(make_reduce_task(&sums[static_cast<std::size_t>(t)],
                                            64, 1));
  }
  co_await rt.wait_all();
  EXPECT_EQ(mk.shmem_arena_bytes_backed(), 4 * arena);  // once per MTB
  done = true;
}

TEST(PagodaRuntime, ComputeModeBacksOneArenaPerMtbThatRanSharedMemory) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 2;  // 4 MTBs
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  EXPECT_EQ(rt.master_kernel().shmem_arena_bytes_backed(), 0);
  std::vector<int> tids(4 * 64, -1);
  std::vector<long long> sums(8, -1);
  bool done = false;
  sim.spawn(backing_phases(rt, tids, sums, done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  for (const long long sum : sums) EXPECT_EQ(sum, 63 * 64 / 2);
  rt.shutdown();
}

TEST(PagodaRuntime, AggregateCopyBackChargesTheWholeTableAndFreesEachTask) {
  // 700 tasks through a 128-entry table: aggregate copy-backs recycle it.
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 2;
  Device dev(sim, spec);
  Runtime rt(dev);
  TraceRecorder trace;
  rt.set_trace_recorder(&trace);
  rt.start();
  constexpr int kTasks = 700;
  std::vector<int> out(kTasks * 32, -1);
  bool done = false;
  sim.spawn(spawn_many(rt, out, kTasks, 32, done));
  sim.run_until(sim::seconds(5.0));
  ASSERT_TRUE(done);
  const Runtime::Stats& st = rt.stats();
  ASSERT_GT(st.aggregate_copybacks, 0);
  // Each copy-back still moves whole TaskEntry bytes over the bus, though
  // the host keeps only the status words.
  const auto entry = static_cast<std::int64_t>(sizeof(TaskEntry));
  EXPECT_EQ(dev.pcie().link(pcie::Direction::DeviceToHost).bytes_transferred(),
            (st.aggregate_copybacks * rt.table_capacity() +
             st.single_copybacks) *
                entry);
  // Every task's entry was observed free exactly once, and the CPU view
  // ends with the whole table free.
  const auto copy_backs = std::count_if(
      trace.events().begin(), trace.events().end(),
      [](const TraceEvent& e) { return e.kind == TraceKind::kCopyBack; });
  EXPECT_EQ(copy_backs, kTasks);
  for (int idx = 0; idx < rt.table_capacity(); ++idx) {
    const TaskId id = static_cast<TaskId>(idx) + kFirstTaskId;
    EXPECT_EQ(rt.cpu_table().status(id).ready, kReadyFree) << "entry " << id;
  }
  rt.shutdown();
}

TEST(PagodaRuntimeDeathTest, SharedAsRefusesUnbackedSharedMemory) {
  // Model mode hands kernels no shared-memory bytes: reading them must
  // abort, not return an empty view.
  WarpCtx ctx;
  ctx.mode = gpu::ExecMode::Model;
  ctx.shared_mem_declared = 256;
  EXPECT_DEATH(ctx.shared_as<int>(), "not backed");
  ctx.shared_mem_declared = 0;  // nothing declared: an empty view is right
  EXPECT_TRUE(ctx.shared_as<int>().empty());
}

// --- API validation ------------------------------------------------------------

// A long-running task body: holds its MTB's resources ~1 ms, far longer
// than the spawns behind it take to land.
KernelCoro stall_kernel(WarpCtx& ctx) {
  ctx.charge_stall(1.0e6);
  co_return;
}

sim::Process spawn_stalls(Runtime& rt, int num_tasks, int threads_per_block,
                          int num_blocks, bool& done) {
  for (int t = 0; t < num_tasks; ++t) {
    TaskParams p;
    p.fn = stall_kernel;
    p.threads_per_block = threads_per_block;
    p.num_blocks = num_blocks;
    co_await rt.task_spawn(std::move(p));
  }
  co_await rt.wait_all();
  done = true;
}

// Register oversubscription is admission-only: a claim whose registers do
// not fit its MTB's budget (oversub x the MTB's register-file share) waits
// for a completion instead of spilling, and every register returns to the
// budget once the table drains.
TEST(PagodaRuntime, RegisterBudgetDefersClaimsAndDrainsToZero) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;  // two MTBs, each with a 1.5 x 32K-register budget
  Device dev(sim, spec);
  PagodaConfig cfg;
  cfg.oversub = 1.5;
  Runtime rt(dev, {}, cfg);
  rt.start();
  // 4 blocks x 256 threads x 32 registers = 32K registers per task, so no
  // two tasks fit one MTB's 48K budget at once.
  bool done = false;
  sim.spawn(spawn_stalls(rt, /*num_tasks=*/8, /*threads_per_block=*/256,
                         /*num_blocks=*/4, done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  EXPECT_EQ(rt.master_kernel().tasks_completed(), 8);
  EXPECT_GT(rt.master_kernel().register_waits(), 0);
  EXPECT_EQ(rt.master_kernel().registers_in_use(), 0);
  rt.shutdown();
}

TEST(PagodaRuntime, ValidateRejectsBadParams) {
  const GpuSpec spec = GpuSpec::titan_x();
  TaskParams ok;
  ok.fn = tid_kernel;
  ok.threads_per_block = 128;
  Runtime::validate(ok, spec);  // no death

  TaskParams no_fn = ok;
  no_fn.fn = nullptr;
  EXPECT_DEATH(Runtime::validate(no_fn, spec), "null kernel");

  TaskParams big_tb = ok;
  big_tb.threads_per_block = 2048;
  EXPECT_DEATH(Runtime::validate(big_tb, spec), "threads per block");

  TaskParams big_shm = ok;
  big_shm.shared_mem_bytes = 64 * 1024;
  EXPECT_DEATH(Runtime::validate(big_shm, spec), "shared memory");

  TaskParams sync_1024 = ok;
  sync_1024.threads_per_block = 1024;  // 32 warps > 31 executor warps
  sync_1024.needs_sync = true;
  EXPECT_DEATH(Runtime::validate(sync_1024, spec), "synchronizing");
}

TEST(PagodaRuntime, CheckReflectsCpuViewLag) {
  // check() reads the CPU mirror: immediately after spawn it must report
  // not-done even if the GPU finishes, until a copy-back happens.
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  std::vector<int> out(32, -1);
  struct Body {
    static sim::Process run(Runtime& rt, std::vector<int>& out, bool& done) {
      const TaskHandle h =
          co_await rt.task_spawn(make_tid_task(out.data(), 32, 32, 1));
      EXPECT_FALSE(rt.check(h));  // nothing copied back yet
      co_await rt.wait(h);
      EXPECT_TRUE(rt.check(h));
      done = true;
    }
  };
  bool done = false;
  sim.spawn(Body::run(rt, out, done));
  sim.run_until(sim::milliseconds(50));
  ASSERT_TRUE(done);
  rt.shutdown();
}

// --- handle identity: recycled entries and foreign runtimes -------------------

// Burns enough pipeline cycles that the task is still running while the host
// probes a stale handle.
KernelCoro slow_kernel(WarpCtx& ctx) {
  ctx.charge(2.0e5);
  co_return;
}

TEST(PagodaRuntime, WaitOnRecycledHandleReturnsImmediately) {
  // A handle whose TaskTable entry was reissued to a later task must report
  // done at once — never block on (or observe) the later task's completion.
  // Cluster-level retry loops re-wait old handles and depend on this.
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;  // 2 MTBs x 32 rows = 64 TaskTable entries
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  std::vector<int> out(32, -1);
  struct Body {
    static sim::Process run(Runtime& rt, std::vector<int>& out, bool& done) {
      const TaskHandle h0 =
          co_await rt.task_spawn(make_tid_task(out.data(), 32, 32, 1));
      co_await rt.wait(h0);

      // Fill the whole table with slow tasks; the cursor wraps, so one of
      // them reuses h0's entry with a bumped generation.
      TaskParams slow;
      slow.fn = slow_kernel;
      slow.threads_per_block = 32;
      bool recycled = false;
      for (int t = 0; t < 64; ++t) {
        const TaskHandle h = co_await rt.task_spawn(slow);
        if (h.id == h0.id) {
          recycled = true;
          EXPECT_NE(h.generation, h0.generation);
        }
      }
      EXPECT_TRUE(recycled);

      // The recycled entry's new occupant is still running, so the entry's
      // ready field is non-free — yet the stale handle must read as done.
      EXPECT_LT(rt.master_kernel().tasks_completed(), 65);
      EXPECT_TRUE(rt.check(h0));
      const sim::Time before = rt.device().sim().now();
      co_await rt.wait(h0);
      const sim::Duration waited = rt.device().sim().now() - before;
      // One event_query poll, no wait_poll timeout round.
      EXPECT_LT(waited, sim::microseconds(20.0));
      EXPECT_LT(rt.master_kernel().tasks_completed(), 65);

      co_await rt.wait_all();
      done = true;
    }
  };
  bool done = false;
  sim.spawn(Body::run(rt, out, done));
  sim.run_until(sim::seconds(2.0));
  ASSERT_TRUE(done);
  EXPECT_EQ(rt.master_kernel().tasks_completed(), 65);
  rt.shutdown();
}

TEST(PagodaRuntimeDeathTest, ForeignHandleAborts) {
  // A TaskHandle routed to a Runtime that did not issue it (a cluster-level
  // routing bug) must abort loudly, not silently read another GPU's table.
  Simulation sim;
  Device dev_a(sim, GpuSpec::titan_x());
  Device dev_b(sim, GpuSpec::titan_x());
  Runtime rt_a(dev_a);
  Runtime rt_b(dev_b);
  rt_a.start();
  rt_b.start();
  std::vector<int> out(32, -1);
  TaskHandle h;
  struct Body {
    static sim::Process run(Runtime& rt, std::vector<int>& out,
                            TaskHandle& h) {
      h = co_await rt.task_spawn(make_tid_task(out.data(), 32, 32, 1));
      co_await rt.wait(h);
    }
  };
  sim.spawn(Body::run(rt_a, out, h));
  sim.run_until(sim::milliseconds(50));
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(rt_a.check(h));
  EXPECT_DEATH(rt_b.check(h), "did not issue");
  rt_a.shutdown();
  rt_b.shutdown();
}

// --- TaskTable unit behaviour ---------------------------------------------------

TEST(TaskTable, IdMappingRoundTrips) {
  TaskTable t(48, 32);
  EXPECT_EQ(t.size(), 1536);
  EXPECT_EQ(t.id_of(0, 0), kFirstTaskId);
  for (int c : {0, 7, 47}) {
    for (int r : {0, 5, 31}) {
      const TaskId id = t.id_of(c, r);
      EXPECT_GE(id, kFirstTaskId);
      EXPECT_EQ(t.column_of(id), c);
      EXPECT_EQ(t.row_of(id), r);
      t.set_status(id, {id, 0});
      EXPECT_EQ(t.status(t.id_of(c, r)).ready, id);
    }
  }
  EXPECT_FALSE(t.valid_id(0));
  EXPECT_FALSE(t.valid_id(1));
  EXPECT_TRUE(t.valid_id(kFirstTaskId));
  EXPECT_FALSE(t.valid_id(kFirstTaskId + t.size()));
}

TEST(TaskTable, ConstReadsBackNoRows) {
  TaskTable t(48, 32);
  EXPECT_EQ(t.rows_backed(), 0);
  const TaskTable& ct = t;
  for (TaskId id = kFirstTaskId; id < kFirstTaskId + t.size(); ++id) {
    EXPECT_EQ(ct.status(id).ready, kReadyFree);
    EXPECT_EQ(ct.status(id).sched, 0);
    EXPECT_EQ(ct.params(id).fn, nullptr);
    EXPECT_EQ(ct.params(id).args_size, 0);
  }
  EXPECT_EQ(t.rows_backed(), 0);
  // Every unbacked entry reads the one shared idle default.
  const TaskParams* idle = &ct.params(kFirstTaskId);
  const TaskId id = t.id_of(7, 5);
  t.params(id).num_blocks = 3;
  EXPECT_EQ(t.rows_backed(), 1);
  EXPECT_EQ(ct.params(id).num_blocks, 3);
  for (TaskId i = kFirstTaskId; i < kFirstTaskId + t.size(); ++i) {
    EXPECT_EQ(&ct.params(i) != idle, t.row_of(i) == t.row_of(id)) << i;
  }
  EXPECT_EQ(t.rows_backed(), 1);
}

TEST(TaskTable, StoreLoadRoundTrips) {
  TaskTable t(4, 8);
  TaskEntry e;
  e.params.fn = tid_kernel;
  e.params.num_blocks = 5;
  e.params.set_args(TidArgs{nullptr, 1234});
  e.ready = kFirstTaskId + 9;
  e.sched = 1;
  const TaskId id = t.id_of(3, 6);
  t.store(id, e);
  const TaskEntry back = t.load(id);
  EXPECT_EQ(back.ready, kFirstTaskId + 9);
  EXPECT_EQ(back.sched, 1);
  EXPECT_EQ(back.params.fn, tid_kernel);
  EXPECT_EQ(back.params.num_blocks, 5);
  EXPECT_EQ(back.params.args_size, e.params.args_size);
  EXPECT_EQ(std::memcmp(back.params.args.data(), e.params.args.data(),
                        kMaxArgBytes),
            0);
  EXPECT_EQ(t.rows_backed(), 1);
}

// The actionable mask against the predicate it caches, after every status
// write of random protocol sequences: spawn (CPU side), entry landing
// (store), release of a predecessor, claim, completion, copy-back/revoke
// (back to free) and flush. Row counts straddle the 64-bit word edges.
TEST(TaskTable, ActionableMaskMatchesThePredicate) {
  for (const int rows : {1, 4, 32, 33, 64, 1024}) {
    SCOPED_TRACE(rows);
    constexpr int kColumns = 3;
    TaskTable t(kColumns, rows);
    SplitMix64 rng(static_cast<std::uint64_t>(rows));
    auto random_id = [&] {
      return kFirstTaskId + static_cast<TaskId>(rng.next_below(
                                static_cast<std::uint64_t>(t.size())));
    };
    // An entry whose status satisfies `pred`, or 0 after a few misses.
    auto find = [&](auto pred) {
      for (int tries = 0; tries < 64; ++tries) {
        const TaskId id = random_id();
        if (pred(t.status(id))) return id;
      }
      return TaskId{0};
    };
    auto check = [&] {
      for (int c = 0; c < kColumns; ++c) {
        int next = t.next_actionable(c, 0);
        for (int r = 0; r < rows; ++r) {
          if (actionable(t.status(t.id_of(c, r)))) {
            ASSERT_EQ(next, r) << "column " << c;
            next = t.next_actionable(c, r + 1);
          }
        }
        ASSERT_EQ(next, -1) << "column " << c;
      }
    };
    TaskId last = 0;
    for (int op = 0; op < 1500; ++op) {
      switch (rng.next_below(6)) {
        case 0:  // spawn into a free entry, naming the last spawned one
          if (const TaskId id = find([](const EntryStatus& st) {
                return st.ready == kReadyFree;
              })) {
            t.set_status(id, {last != 0 && last != id ? last
                                                      : kReadyParamsCopied,
                              0});
            last = id;
          }
          break;
        case 1: {  // an entry copy lands (any encoding, either flag)
          TaskEntry e;
          e.ready = static_cast<std::int32_t>(rng.next_in(-1, 2)) == 2
                        ? random_id()
                        : static_cast<std::int32_t>(rng.next_in(-1, 1));
          e.sched = static_cast<std::int32_t>(rng.next_below(2));
          t.store(random_id(), e);
          break;
        }
        case 2:  // a scheduler pass releases a predecessor
          if (const TaskId id = find([](const EntryStatus& st) {
                return st.ready > kReadyScheduling;
              })) {
            t.set_status(t.status(id).ready, {kReadyScheduling, 1});
            check();
            t.set_status(id, {kReadyParamsCopied, 0});
          }
          break;
        case 3:  // a claim clears the sched flag
          if (const TaskId id = find(
                  [](const EntryStatus& st) { return st.sched == 1; })) {
            t.set_status(id, {t.status(id).ready, 0});
          }
          break;
        case 4:  // the last warp completes a claimed task
          if (const TaskId id = find([](const EntryStatus& st) {
                return st.ready == kReadyScheduling && st.sched == 0;
              })) {
            t.set_status(id, {kReadyFree, 0});
          }
          break;
        default:  // a copy-back or revoke frees, a flush releases
          t.set_status(random_id(), rng.next_below(2) == 0
                                        ? EntryStatus{kReadyFree, 0}
                                        : EntryStatus{kReadyScheduling, 1});
          break;
      }
      check();
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TaskTable, ParamsBlobRoundTrips) {
  TaskParams p;
  struct Args {
    double a;
    int b;
  };
  p.set_args(Args{3.5, 42});
  EXPECT_EQ(p.args_size, static_cast<std::int32_t>(sizeof(Args)));
  Args back{};
  std::memcpy(&back, p.args.data(), sizeof(Args));
  EXPECT_EQ(back.a, 3.5);
  EXPECT_EQ(back.b, 42);
}

}  // namespace
}  // namespace pagoda::runtime
