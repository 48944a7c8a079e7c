// Tests for the GPU device model: kernel coroutines, barriers, occupancy,
// the native threadblock dispatcher, streams, and the PCIe bus.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "gpu/device.h"
#include "gpu/kernel.h"
#include "gpu/occupancy.h"
#include "gpu/stream.h"
#include "sim/process.h"

namespace pagoda::gpu {
namespace {

using sim::Simulation;

// --- occupancy (paper §2 arithmetic) ----------------------------------------

TEST(Occupancy, SingleNarrowTaskIsHalfPercent) {
  const GpuSpec spec = GpuSpec::titan_x();
  // One 256-thread task = 8 warps; paper: (8/(64*24)) = 0.52%.
  const auto f = BlockFootprint::of(256, 32, 0);
  EXPECT_NEAR(device_occupancy(spec, f, 1) * 100.0, 0.52, 0.01);
}

TEST(Occupancy, HyperQThirtyTwoTasksIsSixteenPercent) {
  const GpuSpec spec = GpuSpec::titan_x();
  const auto f = BlockFootprint::of(256, 32, 0);
  // Paper: (8*32/(64*24)) = 16.67%.
  EXPECT_NEAR(device_occupancy(spec, f, 32) * 100.0, 16.67, 0.01);
}

TEST(Occupancy, MaxResidencyRespectsAllLimits) {
  const GpuSpec spec = GpuSpec::titan_x();
  // 1024-thread blocks: limited by 2048 threads/SMM -> 2 blocks.
  EXPECT_EQ(max_residency(spec, BlockFootprint::of(1024, 32, 0)).blocks_per_smm,
            2);
  // 32 regs * 1024 threads = 32K regs -> 2 blocks by registers too.
  // 33 regs * 1024 = 33792 -> 64K/33792 = 1 block.
  EXPECT_EQ(max_residency(spec, BlockFootprint::of(1024, 33, 0)).blocks_per_smm,
            1);
  // Shared memory: 48KB per block on a 96KB SMM -> 2 blocks.
  EXPECT_EQ(
      max_residency(spec, BlockFootprint::of(64, 32, 48 * 1024)).blocks_per_smm,
      2);
  // Tiny blocks: limited by the 32-block cap.
  EXPECT_EQ(max_residency(spec, BlockFootprint::of(32, 16, 0)).blocks_per_smm,
            32);
  // Full MasterKernel threadblock: 1024 threads, 32 regs, 32KB -> 2 blocks
  // (100% occupancy: 2 blocks * 32 warps = 64 warps).
  const auto mtb = max_residency(spec, BlockFootprint::of(1024, 32, 32 * 1024));
  EXPECT_EQ(mtb.blocks_per_smm, 2);
  EXPECT_NEAR(mtb.occupancy, 1.0, 1e-12);
}

// --- kernel coroutines -------------------------------------------------------

struct AxpyArgs {
  const float* x;
  float* y;
  float a;
  int n;
};

KernelCoro axpy_kernel(WarpCtx& ctx) {
  const auto& args = ctx.args_as<AxpyArgs>();
  for (int lane = 0; lane < ctx.active_lanes(); ++lane) {
    const int tid = ctx.tid(lane);
    if (tid < args.n && ctx.compute()) {
      args.y[tid] += args.a * args.x[tid];
    }
  }
  ctx.charge(2 * ctx.costs().global_access + ctx.costs().alu);
  ctx.charge_stall(2 * ctx.costs().global_stall);
  co_return;
}

TEST(KernelCoro, SegmentsAccumulateCharges) {
  WarpCtx ctx;
  ctx.threads_per_block = 32;
  ctx.num_blocks = 1;
  std::vector<float> x(32, 2.0f);
  std::vector<float> y(32, 1.0f);
  const AxpyArgs args{x.data(), y.data(), 3.0f, 32};
  ctx.args = &args;
  KernelCoro coro = axpy_kernel(ctx);
  const SegmentResult seg = run_segment(coro, ctx);
  EXPECT_FALSE(seg.at_barrier);
  EXPECT_DOUBLE_EQ(seg.cycles, 5.0);
  EXPECT_DOUBLE_EQ(seg.stall_cycles, 48.0);
  for (float v : y) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST(KernelCoro, ModelModeSkipsComputationButCharges) {
  WarpCtx ctx;
  ctx.threads_per_block = 32;
  ctx.num_blocks = 1;
  ctx.mode = ExecMode::Model;
  std::vector<float> y(32, 1.0f);
  const AxpyArgs args{nullptr, y.data(), 3.0f, 32};
  ctx.args = &args;
  KernelCoro coro = axpy_kernel(ctx);
  const SegmentResult seg = run_segment(coro, ctx);
  EXPECT_DOUBLE_EQ(seg.cycles, 5.0);
  EXPECT_DOUBLE_EQ(seg.stall_cycles, 48.0);
  for (float v : y) EXPECT_FLOAT_EQ(v, 1.0f);  // untouched
}

TEST(KernelCoro, ActiveLanesHandlesPartialWarps) {
  WarpCtx ctx;
  ctx.threads_per_block = 48;
  ctx.warp_in_block = 0;
  EXPECT_EQ(ctx.active_lanes(), 32);
  ctx.warp_in_block = 1;
  EXPECT_EQ(ctx.active_lanes(), 16);
  ctx.warp_in_block = 2;
  EXPECT_EQ(ctx.active_lanes(), 0);
}

// A two-phase kernel with a block barrier: phase 1 writes shared memory,
// phase 2 reads a neighbor warp's value. Catches barrier misbehavior
// functionally, not just in timing.
struct ShArgs {
  int* out;  // one per warp
};

KernelCoro barrier_kernel(WarpCtx& ctx) {
  auto sh = ctx.shared_as<int>();
  if (ctx.compute()) sh[static_cast<size_t>(ctx.warp_in_block)] = ctx.warp_in_block + 100;
  ctx.charge(1);
  co_await ctx.sync_block();
  const int warps = (ctx.threads_per_block + 31) / 32;
  const int neighbor = (ctx.warp_in_block + 1) % warps;
  if (ctx.compute()) {
    ctx.args_as<ShArgs>().out[ctx.warp_in_block] = sh[static_cast<size_t>(neighbor)];
  }
  ctx.charge(1);
  co_return;
}

sim::Process launch_and_wait(Device& dev, KernelLaunchParams params,
                             sim::Time& done_at) {
  KernelExecutionPtr exec = dev.dispatcher().launch(std::move(params));
  co_await exec->done.wait();
  done_at = dev.sim().now();
}

TEST(BlockDispatcher, BarrierKernelSeesNeighborWrites) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  std::vector<int> out(4, -1);
  const ShArgs args{out.data()};
  KernelLaunchParams p;
  p.fn = barrier_kernel;
  p.args = KernelLaunchParams::pack_args(args);
  p.threads_per_block = 128;  // 4 warps
  p.num_blocks = 1;
  p.shared_mem_bytes = 64;
  sim::Time done_at = -1;
  sim.spawn(launch_and_wait(dev, std::move(p), done_at));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{101, 102, 103, 100}));
  EXPECT_GT(done_at, 0);
}

// Charged cycles translate into pipeline time: 1 warp, C cycles, no
// contention -> C / clock seconds.
KernelCoro charge_kernel(WarpCtx& ctx) {
  ctx.charge(1000.0);
  co_return;
}

TEST(BlockDispatcher, LoneWarpRunsAtOneInstructionPerCycle) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  KernelLaunchParams p;
  p.fn = charge_kernel;
  p.threads_per_block = 32;
  p.num_blocks = 1;
  sim::Time done_at = -1;
  sim.spawn(launch_and_wait(dev, std::move(p), done_at));
  sim.run();
  EXPECT_EQ(done_at, sim::nanoseconds(1000));  // 1000 cycles at 1 GHz
}

TEST(BlockDispatcher, SaturatedSmmSharesIssueWidth) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;  // force contention on one SMM
  Device dev(sim, spec);
  // 8 warps of 1000 cycles each on issue width 4: total work 8000
  // warp-cycles at 4/cycle = 2000 cycles.
  KernelLaunchParams p;
  p.fn = charge_kernel;
  p.threads_per_block = 256;  // 8 warps
  p.num_blocks = 1;
  sim::Time done_at = -1;
  sim.spawn(launch_and_wait(dev, std::move(p), done_at));
  sim.run();
  EXPECT_EQ(done_at, sim::nanoseconds(2000));
}

TEST(BlockDispatcher, BlocksQueueWhenDeviceFull) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;
  Device dev(sim, spec);
  // 3 blocks of 1024 threads: only 2 fit (2048 threads/SMM); the third
  // waits for a whole block to retire (threadblock-level scheduling).
  KernelLaunchParams p;
  p.fn = charge_kernel;
  p.threads_per_block = 1024;
  p.num_blocks = 3;
  sim::Time done_at = -1;
  sim.spawn(launch_and_wait(dev, std::move(p), done_at));
  sim.run();
  // Phase 1: 64 warps of 1000 cycles at 4/cycle = 16000 cycles.
  // Phase 2: remaining 32 warps: 32*1000/4 = 8000 cycles.
  EXPECT_EQ(done_at, sim::nanoseconds(24000));
}

TEST(BlockDispatcher, ConcurrentKernelsBackfill) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;
  Device dev(sim, spec);
  // Kernel A occupies 32 warps; kernel B (32 warps) backfills concurrently.
  KernelLaunchParams a;
  a.fn = charge_kernel;
  a.threads_per_block = 1024;
  a.num_blocks = 1;
  KernelLaunchParams b = a;
  sim::Time a_done = -1;
  sim::Time b_done = -1;
  sim.spawn(launch_and_wait(dev, std::move(a), a_done));
  sim.spawn(launch_and_wait(dev, std::move(b), b_done));
  sim.run();
  // Both resident together: 64 warps * 1000 cycles / 4 = 16000 cycles.
  EXPECT_EQ(a_done, sim::nanoseconds(16000));
  EXPECT_EQ(b_done, sim::nanoseconds(16000));
}

TEST(Device, AchievedOccupancyTracksResidency) {
  Simulation sim;
  GpuSpec spec = GpuSpec::titan_x();
  spec.num_smms = 1;
  Device dev(sim, spec);
  KernelLaunchParams p;
  p.fn = charge_kernel;
  p.threads_per_block = 1024;  // 32 of 64 warp slots
  p.num_blocks = 1;
  sim::Time done_at = -1;
  sim.spawn(launch_and_wait(dev, std::move(p), done_at));
  sim.run();
  EXPECT_NEAR(dev.achieved_occupancy(), 0.5, 0.01);
}

// --- streams & PCIe ----------------------------------------------------------

sim::Process stream_user(Device& dev, sim::Time& copied_at,
                         sim::Time& kernel_at, std::vector<float>& host,
                         std::vector<float>& dst) {
  Stream s(dev);
  s.memcpy_async(pcie::Direction::HostToDevice, dst.data(), host.data(),
                 host.size() * sizeof(float));
  auto t1 = s.record_event();
  co_await t1->wait();
  copied_at = dev.sim().now();

  KernelLaunchParams p;
  p.fn = charge_kernel;
  p.threads_per_block = 32;
  p.num_blocks = 1;
  auto t2 = s.kernel_async(std::move(p));
  co_await s.synchronize();
  kernel_at = dev.sim().now();
  EXPECT_TRUE(t2->fired());
}

TEST(Stream, OrdersMemcpyThenKernel) {
  Simulation sim;
  Device dev(sim, GpuSpec::titan_x());
  std::vector<float> host(1024);
  std::iota(host.begin(), host.end(), 0.0f);
  std::vector<float> dst(host.size());
  sim::Time copied_at = -1;
  sim::Time kernel_at = -1;
  sim.spawn(stream_user(dev, copied_at, kernel_at, host, dst));
  sim.run();
  // Copy: 2us DMA latency + 4096B / 12GB/s ≈ 341ns.
  EXPECT_GT(copied_at, sim::microseconds(2));
  EXPECT_LT(copied_at, sim::microseconds(3));
  // Kernel runs after the copy: 1000 cycles more.
  EXPECT_EQ(kernel_at, copied_at + sim::nanoseconds(1000));
  // Data actually landed.
  EXPECT_EQ(dst, host);
}

}  // namespace
}  // namespace pagoda::gpu
