// Host model tests: the 20-core CPU cluster used by the PThreads baseline.
#include <gtest/gtest.h>

#include "host/host_api.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace pagoda::host {
namespace {

// Runs `ops` on one core of `cpu`, then calls `on_done` at the completion.
template <typename F>
sim::Process cpu_task(CpuCluster& cpu, double ops, F on_done) {
  co_await cpu.run(ops);
  on_done();
}

TEST(CpuCluster, SingleTaskRunsAtOneCoreSpeed) {
  sim::Simulation sim;
  CpuCluster cpu(sim, 20, 1e9);
  sim::Time done_at = -1;
  // 1M ops at 1Gops/s
  sim.spawn(cpu_task(cpu, 1e6, [&] { done_at = sim.now(); }));
  sim.run();
  EXPECT_EQ(done_at, sim::milliseconds(1.0));
}

TEST(CpuCluster, TwentyTasksUseTwentyCores) {
  sim::Simulation sim;
  CpuCluster cpu(sim, 20, 1e9);
  int done = 0;
  sim::Time last = 0;
  for (int i = 0; i < 20; ++i) {
    sim.spawn(cpu_task(cpu, 1e6, [&] {
      ++done;
      last = sim.now();
    }));
  }
  sim.run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(last, sim::milliseconds(1.0));  // perfectly parallel
}

TEST(CpuCluster, OversubscriptionShares) {
  sim::Simulation sim;
  CpuCluster cpu(sim, 20, 1e9);
  sim::Time last = 0;
  for (int i = 0; i < 40; ++i) {
    sim.spawn(cpu_task(cpu, 1e6, [&] { last = sim.now(); }));
  }
  sim.run();
  // 40 equal jobs on 20 cores: 2x the single-task time.
  EXPECT_NEAR(sim::to_milliseconds(last), 2.0, 1e-6);
  EXPECT_NEAR(cpu.busy_core_seconds(), 40e6 / 1e9, 1e-9);
}

TEST(HostCosts, DefaultsAreSane) {
  const HostCosts costs;
  EXPECT_GT(costs.kernel_launch, costs.task_spawn_fill);
  EXPECT_GT(costs.memcpy_setup, 0);
}

}  // namespace
}  // namespace pagoda::host
