// Tests for workload configuration knobs: dynamic thread selection,
// blocks-per-task redistribution, input scaling, and the aggregate
// accounting methods the harness relies on.
#include <gtest/gtest.h>

#include <limits>
#include <string_view>

#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

// Whole-workload totals of the per-task copy volumes and CPU ops.
std::int64_t total_h2d_bytes(const Workload& wl) {
  std::int64_t total = 0;
  for (const TaskSpec& t : wl.tasks()) total += t.h2d_bytes;
  return total;
}

std::int64_t total_d2h_bytes(const Workload& wl) {
  std::int64_t total = 0;
  for (const TaskSpec& t : wl.tasks()) total += t.d2h_bytes;
  return total;
}

double total_cpu_ops(const Workload& wl) {
  double total = 0;
  for (const TaskSpec& t : wl.tasks()) total += t.cpu_ops;
  return total;
}

TEST(DynamicThreads, ProportionalWarpGranularClamped) {
  EXPECT_EQ(dynamic_thread_count(128, 1.0), 128);
  EXPECT_EQ(dynamic_thread_count(128, 0.5), 64);
  EXPECT_EQ(dynamic_thread_count(128, 0.01), 32);   // clamp low
  EXPECT_EQ(dynamic_thread_count(128, 10.0), 256);  // clamp high
  EXPECT_EQ(dynamic_thread_count(128, 0.7), 96);    // warp multiple
  EXPECT_EQ(dynamic_thread_count(100, 1.0), 128);   // rounds up to a warp
}

TEST(WorkloadConfig, DynamicThreadsVaryWithTaskSize) {
  auto wl = make_workload("3DES");
  WorkloadConfig cfg;
  cfg.num_tasks = 64;
  cfg.irregular_sizes = true;
  cfg.dynamic_threads = true;
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  int min_t = 1 << 20;
  int max_t = 0;
  for (const TaskSpec& t : wl->tasks()) {
    EXPECT_EQ(t.params.threads_per_block % 32, 0);
    EXPECT_GE(t.params.threads_per_block, 32);
    EXPECT_LE(t.params.threads_per_block, 256);
    min_t = std::min(min_t, t.params.threads_per_block);
    max_t = std::max(max_t, t.params.threads_per_block);
  }
  EXPECT_LT(min_t, max_t) << "thread counts should track packet sizes";
}

TEST(WorkloadConfig, BlocksPerTaskRedistributesConstantWork) {
  // Total charges must not change when the same work is spread over more
  // blocks (Fig 8's axis).
  auto count_cycles = [](int blocks) {
    auto wl = make_workload("CONV");
    WorkloadConfig cfg;
    cfg.num_tasks = 1;
    cfg.threads_per_task = 256;
    cfg.blocks_per_task = blocks;
    cfg.mode = gpu::ExecMode::Model;
    wl->generate(cfg);
    const TaskSpec& spec = wl->tasks()[0];
    EXPECT_EQ(spec.params.num_blocks, blocks);
    double total = 0.0;
    const int warps = spec.params.warps_total();
    for (int w = 0; w < warps; ++w) {
      gpu::WarpCtx ctx;
      ctx.warp_in_task = w;
      ctx.warp_in_block = w % spec.params.warps_per_block();
      ctx.block_index = w / spec.params.warps_per_block();
      ctx.threads_per_block = spec.params.threads_per_block;
      ctx.num_blocks = spec.params.num_blocks;
      ctx.mode = gpu::ExecMode::Model;
      ctx.args = spec.params.args.data();
      gpu::KernelCoro coro = spec.params.fn(ctx);
      while (!coro.done()) {
        const auto seg = gpu::run_segment(coro, ctx);
        total += seg.cycles;
        if (!seg.at_barrier) break;
      }
    }
    return total;
  };
  const double one = count_cycles(1);
  const double four = count_cycles(4);
  EXPECT_NEAR(one, four, one * 0.05);
}

TEST(WorkloadConfig, IrregularSizesComposeWithMultiBlockTasks) {
  // Fig 8 x Fig 9: irregular per-task sizes must survive blocks_per_task
  // redistribution — every task keeps its own size while spanning the
  // requested block count.
  auto wl = make_workload("3DES");
  WorkloadConfig cfg;
  cfg.num_tasks = 48;
  cfg.irregular_sizes = true;
  cfg.blocks_per_task = 4;
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  double min_ops = 1e300;
  double max_ops = 0.0;
  for (const TaskSpec& t : wl->tasks()) {
    EXPECT_EQ(t.params.num_blocks, 4);
    EXPECT_EQ(t.params.threads_per_block % 32, 0);
    min_ops = std::min(min_ops, t.cpu_ops);
    max_ops = std::max(max_ops, t.cpu_ops);
  }
  EXPECT_LT(min_ops, max_ops) << "irregular sizes must vary task weight";
}

TEST(WorkloadConfig, DynamicThreadsComposeWithMultiBlockTasks) {
  // Dynamic thread selection picks the per-BLOCK width; the block count
  // stays the configured blocks_per_task, so total threads vary with task
  // size while the grid shape is respected.
  auto wl = make_workload("3DES");
  WorkloadConfig cfg;
  cfg.num_tasks = 48;
  cfg.irregular_sizes = true;
  cfg.dynamic_threads = true;
  cfg.blocks_per_task = 2;
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  int min_t = 1 << 20;
  int max_t = 0;
  for (const TaskSpec& t : wl->tasks()) {
    EXPECT_EQ(t.params.num_blocks, 2);
    EXPECT_EQ(t.params.threads_per_block % 32, 0);
    EXPECT_GE(t.params.threads_per_block, 32);
    EXPECT_LE(t.params.threads_per_block, 256);
    min_t = std::min(min_t, t.params.threads_per_block);
    max_t = std::max(max_t, t.params.threads_per_block);
  }
  EXPECT_LT(min_t, max_t) << "thread counts should track irregular sizes";
}

TEST(WorkloadConfig, InputScaleChangesTaskWeight) {
  auto weigh = [](int scale) {
    auto wl = make_workload("MM");
    WorkloadConfig cfg;
    cfg.num_tasks = 1;
    cfg.input_scale = scale;
    cfg.mode = gpu::ExecMode::Model;
    wl->generate(cfg);
    return wl->tasks()[0].cpu_ops;
  };
  // Matmul ops grow ~cubically with the matrix dimension.
  EXPECT_GT(weigh(128), 7.0 * weigh(64));
  EXPECT_LT(weigh(128), 9.0 * weigh(64));
}

TEST(WorkloadConfig, TotalsAggregateAcrossTasks) {
  auto wl = make_workload("CONV");
  WorkloadConfig cfg;
  cfg.num_tasks = 10;
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  // Every CONV task has the default 128 x 128 frame.
  EXPECT_EQ(total_h2d_bytes(*wl), 10LL * 128 * 128 * 4);
  EXPECT_EQ(total_d2h_bytes(*wl), 10LL * 128 * 128 * 4);
  EXPECT_DOUBLE_EQ(total_cpu_ops(*wl), 10 * wl->tasks()[0].cpu_ops);
}

TEST(WorkloadConfig, InputBoundHoldsTheIntSizeArithmetic) {
  // At each workload's max_input every task's copy volume and op count is
  // non-negative with and without irregular sizes; one more is refused.
  for (const std::string_view name : all_workload_names()) {
    auto wl = make_workload(name);
    const int bound = wl->traits().max_input;
    for (const bool irregular : {false, true}) {
      WorkloadConfig cfg;
      cfg.num_tasks = 1;
      cfg.input_scale = bound;
      cfg.irregular_sizes = irregular;
      wl->generate(cfg);
      for (const TaskSpec& t : wl->tasks()) {
        EXPECT_GE(t.h2d_bytes, 0) << name;
        EXPECT_GE(t.d2h_bytes, 0) << name;
        EXPECT_GE(t.cpu_ops, 0.0) << name;
      }
    }
    if (bound < std::numeric_limits<int>::max()) {
      WorkloadConfig over;
      over.input_scale = bound + 1;
      EXPECT_DEATH(wl->generate(over), "max_input") << name;
    }
  }
}

}  // namespace
}  // namespace pagoda::workloads
