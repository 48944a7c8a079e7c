// TaskTable protocol tests (paper §4.2, Fig 2): the pipelined release
// discipline, the flush path, lazy aggregate updates, and a randomized
// protocol fuzz asserting every task executes exactly once under arbitrary
// mixes of task shapes.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gpu/device.h"
#include "pagoda/runtime.h"
#include "sim/process.h"

namespace pagoda::runtime {
namespace {

using gpu::Device;
using gpu::GpuSpec;
using sim::Simulation;

struct CounterArgs {
  int* execution_count;  // one per task; incremented by warp 0
};

gpu::KernelCoro counting_kernel(gpu::WarpCtx& ctx) {
  if (ctx.warp_in_task == 0 && ctx.compute()) {
    ctx.args_as<CounterArgs>().execution_count[0] += 1;
  }
  ctx.charge(50.0);
  ctx.charge_stall(100.0);
  co_return;
}

TaskParams counting_task(int* slot, int threads, int blocks, bool sync,
                         std::int32_t shmem) {
  TaskParams p;
  p.fn = counting_kernel;
  p.threads_per_block = threads;
  p.num_blocks = blocks;
  p.needs_sync = sync;
  p.shared_mem_bytes = shmem;
  p.set_args(CounterArgs{slot});
  return p;
}

// --- the spawn search: next free entry, columns first --------------------

/// The spawn search as a plain walk: search position `pos` stands for the
/// entry of index (pos % columns) * rows + pos / columns.
int walk_for_free(const std::vector<bool>& free, int columns, int rows,
                  int& cursor) {
  const int n = columns * rows;
  for (int step = 0; step < n; ++step) {
    const int pos = (cursor + step) % n;
    const int idx = pos % columns * rows + pos / columns;
    if (free[static_cast<std::size_t>(idx)]) {
      cursor = (pos + 1) % n;
      return idx;
    }
  }
  return -1;
}

// FreeEntries returns the walk's sequence of entries (and leaves the cursor
// where the walk does) over random free/busy patterns, table shapes from one
// entry to the Titan X's 1536 and densities from nearly empty to full.
TEST(FreeEntries, MatchesTheColumnFirstWalk) {
  const std::pair<int, int> shapes[] = {{1, 1},  {1, 32}, {48, 1}, {3, 5},
                                        {7, 9},  {2, 32}, {48, 32}};
  SplitMix64 rng(7);
  for (const auto& [columns, rows] : shapes) {
    for (int trial = 0; trial < 20; ++trial) {
      const int n = columns * rows;
      const std::uint64_t busy_pct = rng.next_below(101);
      std::vector<bool> free(static_cast<std::size_t>(n), true);
      FreeEntries entries(columns, rows);
      for (int idx = 0; idx < n; ++idx) {
        if (rng.next_below(100) < busy_pct) {
          free[static_cast<std::size_t>(idx)] = false;
          entries.set(idx, false);
        }
      }
      int walk_cursor = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      int cursor = walk_cursor;
      for (int op = 0; op < 4 * n + 8; ++op) {
        if (rng.next_below(3) == 0) {
          // Free or take a random entry, as a copy-back or a spawn would.
          const int idx = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(n)));
          const bool now_free = rng.next_below(2) == 0;
          free[static_cast<std::size_t>(idx)] = now_free;
          entries.set(idx, now_free);
          continue;
        }
        const int want = walk_for_free(free, columns, rows, walk_cursor);
        ASSERT_EQ(entries.next(cursor), want)
            << columns << "x" << rows << " trial " << trial << " op " << op;
        ASSERT_EQ(cursor, walk_cursor);
        if (want >= 0) {
          free[static_cast<std::size_t>(want)] = false;  // spawned into
          entries.set(want, false);
        }
      }
    }
  }
}

// --- Fig 2: a task is not scheduled until its successor's copy arrives ----

sim::Process spawn_two_with_gap(Simulation& sim, Runtime& rt, int* counts,
                                sim::Duration gap, sim::Time& a_completed,
                                bool& done) {
  rt.set_completion_observer([&](TaskId, sim::Time t) {
    if (a_completed == 0) a_completed = t;
  });
  co_await rt.task_spawn(counting_task(&counts[0], 64, 1, false, 0));
  co_await sim.delay(gap);
  // Task A must NOT have executed during the gap: nothing released it.
  EXPECT_EQ(counts[0], 0) << "task ran before its successor's copy";
  EXPECT_EQ(a_completed, 0);
  co_await rt.task_spawn(counting_task(&counts[1], 64, 1, false, 0));
  co_await rt.wait_all();
  done = true;
}

TEST(TaskTableProtocol, PredecessorWaitsForSuccessorCopy) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  int counts[2] = {0, 0};
  sim::Time a_completed = 0;
  bool done = false;
  // A long gap between the two spawns: A sits in (-1, 0) the whole time.
  sim.spawn(spawn_two_with_gap(sim, rt, counts, sim::milliseconds(1.0),
                               a_completed, done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  // A completed only after B's spawn (t > gap).
  EXPECT_GT(a_completed, sim::milliseconds(1.0));
  rt.shutdown();
}

// --- the flush path releases a stranded last task --------------------------

sim::Process spawn_one_then_wait(Simulation&, Runtime& rt, int* count,
                                 bool& done) {
  const TaskHandle h =
      co_await rt.task_spawn(counting_task(count, 64, 1, false, 0));
  co_await rt.wait(h);  // wait() must flush, else this deadlocks
  done = true;
}

TEST(TaskTableProtocol, FlushReleasesTheLastTask) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  int count = 0;
  bool done = false;
  sim.spawn(spawn_one_then_wait(sim, rt, &count, done));
  sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(done);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(rt.stats().flushes, 1);
  rt.shutdown();
}

// --- steady state: exactly one entry copy per task --------------------------

sim::Process spawn_chain(Simulation&, Runtime& rt, std::vector<int>& c,
                         bool& done) {
  for (auto& slot : c) {
    co_await rt.task_spawn(counting_task(&slot, 96, 1, false, 0));
  }
  co_await rt.wait_all();
  done = true;
}

TEST(TaskTableProtocol, OneMemcpyPerTaskInSteadyState) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  Runtime rt(dev);
  rt.start();
  std::vector<int> counts(200, 0);
  bool done = false;
  sim.spawn(spawn_chain(sim, rt, counts, done));
  sim.run_until(sim::seconds(2.0));
  ASSERT_TRUE(done);
  // N spawn copies + 1 flush copy for the final task.
  EXPECT_EQ(rt.stats().entry_copies,
            static_cast<std::int64_t>(counts.size()) + rt.stats().flushes);
  EXPECT_EQ(rt.stats().flushes, 1);
  for (const int c : counts) EXPECT_EQ(c, 1);
  rt.shutdown();
}

// --- randomized protocol fuzz ------------------------------------------------

struct FuzzCase {
  std::uint64_t seed;
  int num_tasks;
};

class TaskTableFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

sim::Process fuzz_spawner(Simulation& sim, Runtime& rt, SplitMix64& rng,
                          std::vector<int>& counts, bool& done) {
  for (auto& slot : counts) {
    // Random shapes: threads 32..512, 1-3 blocks, random sync/shmem.
    const int threads = static_cast<int>(rng.next_in(1, 16)) * 32;
    const int blocks = static_cast<int>(rng.next_in(1, 3));
    const bool sync = threads <= 512 && (rng.next() & 1) != 0;
    const std::int32_t shmem =
        (rng.next() % 3 == 0)
            ? static_cast<std::int32_t>(rng.next_in(1, 16)) * 512
            : 0;
    co_await rt.task_spawn(counting_task(&slot, threads, blocks, sync, shmem));
    // Random pacing, including bursts.
    if (rng.next() % 4 == 0) {
      co_await sim.delay(sim::microseconds(rng.next_double() * 20.0));
    }
    // Occasionally interleave a wait_all mid-stream.
    if (rng.next() % 64 == 0) co_await rt.wait_all();
  }
  co_await rt.wait_all();
  done = true;
}

TEST_P(TaskTableFuzz, EveryTaskExecutesExactlyOnce) {
  const auto [seed, num_tasks] = GetParam();
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 4;  // small table -> heavy entry recycling
  Device dev(sim, spec);
  Runtime rt(dev);
  rt.start();
  SplitMix64 rng(seed);
  std::vector<int> counts(static_cast<std::size_t>(num_tasks), 0);
  bool done = false;
  sim.spawn(fuzz_spawner(sim, rt, rng, counts, done));
  sim.run_until(sim::seconds(10.0));
  ASSERT_TRUE(done) << "fuzz run did not complete (protocol deadlock?)";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i], 1) << "task " << i << " executed " << counts[i]
                            << " times";
  }
  EXPECT_EQ(rt.master_kernel().tasks_completed(), num_tasks);
  rt.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TaskTableFuzz,
    ::testing::Combine(::testing::Values(1u, 7u, 42u, 0xDEADBEEFu, 2026u),
                       ::testing::Values(300)));

// --- threadblock-granularity ablation with wide tasks --------------------------

TEST(TaskTableProtocol, ThreadblockGranularityHandlesWideTasks) {
  // A no-sync task wider than one MTB's 31 executor warps must stream in
  // groups rather than deadlock waiting for 32+ free slots.
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;
  Device dev(sim, spec);
  PagodaConfig cfg;
  cfg.threadblock_granularity = true;
  Runtime rt(dev, host::HostCosts{}, cfg);
  rt.start();
  std::vector<int> counts(8, 0);
  bool done = false;
  struct Wide {
    static sim::Process run(Runtime& rt, std::vector<int>& counts,
                            bool& done) {
      for (auto& slot : counts) {
        // 4 blocks x 512 threads = 64 warps, twice an MTB's executors.
        co_await rt.task_spawn(counting_task(&slot, 512, 4, false, 0));
      }
      co_await rt.wait_all();
      done = true;
    }
  };
  sim.spawn(Wide::run(rt, counts, done));
  sim.run_until(sim::seconds(5.0));
  ASSERT_TRUE(done) << "wide task deadlocked under threadblock granularity";
  for (const int c : counts) EXPECT_EQ(c, 1);
  rt.shutdown();
}

// --- two-copy ablation correctness -------------------------------------------

TEST(TaskTableProtocol, TwoCopySpawnExecutesEveryTaskOnce) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 2;
  Device dev(sim, spec);
  PagodaConfig cfg;
  cfg.two_copy_spawn = true;
  Runtime rt(dev, host::HostCosts{}, cfg);
  rt.start();
  std::vector<int> counts(300, 0);
  bool done = false;
  sim.spawn(spawn_chain(sim, rt, counts, done));
  sim.run_until(sim::seconds(5.0));
  ASSERT_TRUE(done);
  for (const int c : counts) EXPECT_EQ(c, 1);
  // Two copies per task, no flush needed (no pipelining chain).
  EXPECT_EQ(rt.stats().entry_copies, 600);
  EXPECT_EQ(rt.stats().flushes, 0);
  rt.shutdown();
}

}  // namespace
}  // namespace pagoda::runtime
