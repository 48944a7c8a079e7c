// Host-side CUDA API cost model.
//
// The paper's workloads are dominated by many small API interactions
// (taskSpawn copies, cudaMemcpyAsync per task, kernel launches), so the
// host-side driver costs matter as much as the wire time. Values are the
// commonly measured CUDA 7.5-era overheads; they live here (and in
// harness/calibration.h) so EXPERIMENTS.md can discuss sensitivity.
#pragma once

#include "common/time_types.h"
#include "sim/ps_resource.h"
#include "sim/simulation.h"

namespace pagoda::host {

struct HostCosts {
  /// CPU time for one cudaLaunchKernel driver call.
  sim::Duration kernel_launch = sim::microseconds(5.0);
  /// CPU time to set up one cudaMemcpyAsync (independent of size).
  sim::Duration memcpy_setup = sim::microseconds(3.0);
  /// CPU time to poll a device flag / cudaEventQuery.
  sim::Duration event_query = sim::microseconds(1.0);
  /// CPU time for Pagoda's host-side taskSpawn bookkeeping (find a free
  /// TaskTable entry, fill parameters) — tens of nanoseconds of memory
  /// writes plus function-call overhead.
  sim::Duration task_spawn_fill = sim::nanoseconds(300.0);
};

/// Effective scalar-op throughput per core of the paper's Xeon, the speed
/// engine::Session builds every CpuCluster with. A counted "op" is a
/// multiply-accumulate plus its loads; scalar code on the 2.6 GHz Xeon
/// sustains ~1.3 of those per cycle on these kernels.
inline constexpr double kCoreOpsPerSec = 3.5e9;

/// A 20-core CPU for the PThreads baseline (2x Intel Xeon E5-2660, 10 cores
/// each at 2.6 GHz). Tasks execute serially on one core; the pool is a
/// processor-sharing resource with per-job cap = 1 core. A task is a
/// process that awaits run(): the pool resumes it when its ops are done.
class CpuCluster {
 public:
  CpuCluster(sim::Simulation& sim, int cores, double core_ops_per_sec)
      : cores_(cores),
        core_ops_per_sec_(core_ops_per_sec),
        pool_(sim, core_ops_per_sec * cores, core_ops_per_sec) {}

  /// Awaitable: runs `ops` scalar operations on one core of the pool.
  auto run(double ops) { return pool_.execute(ops); }

  int cores() const { return cores_; }
  double busy_core_seconds() const {
    return pool_.busy_work_seconds() / core_ops_per_sec_;
  }
  /// Tasks currently executing or queued on the pool (observability).
  int active_tasks() const { return pool_.active_jobs(); }

 private:
  int cores_;
  double core_ops_per_sec_;
  sim::PsResource pool_;
};

}  // namespace pagoda::host
