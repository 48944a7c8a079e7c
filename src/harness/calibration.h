// Calibration constants, gathered in one place so EXPERIMENTS.md can discuss
// sensitivity honestly.
//
// Anchors (all from the paper's §6.1 setup or common CUDA-7.5-era
// measurements):
//   * Titan X: 24 SMMs x 128 cores at 1 GHz; PCIe 3.0 x16 ≈ 12 GB/s
//     effective per direction.
//   * cudaMemcpyAsync setup ≈ 3 us of CPU time; DMA transaction latency
//     ≈ 2 us; kernel launch ≈ 5 us.
//   * Xeon E5-2660: 2.6 GHz, ~2.3 sustained scalar IPC -> ~6 Gops/s/core.
//
// Where the defaults live:
//   * gpu/cost_model.h     CostModel: per-instruction issue/stall cycles
//                          (gpu::kDefaultCostModel, the one model in use);
//   * host/host_api.h      HostCosts (driver call costs, swept by
//                          bench/sensitivity) and kCoreOpsPerSec, the
//                          speed of a simulated Xeon core;
//   * pcie/pcie_bus.h      PcieConfig: bandwidth, DMA latency and gap;
//   * pagoda/master_kernel.h  MasterKernel::k*Cycles, the scheduler-warp
//                          costs (scaled by PagodaConfig::sched_cost_scale);
//   * pagoda/runtime.h     Runtime::kWaitPoll, the lazy-update poll timeout;
//   * baselines/cpu_runtime.cpp  kDispatchOps, the pthread pool handoff.
// This header re-exports the experiment-wide bundle so benches share one
// source.
#pragma once

#include "baselines/task_runtime.h"

namespace pagoda::harness {

/// The paper's experimental platform (§6.1) as one RunConfig bundle.
inline baselines::RunConfig paper_platform() {
  baselines::RunConfig cfg;
  cfg.spec = gpu::GpuSpec::titan_x();
  cfg.spawner_threads = 2;  // Fig 1a
  return cfg;
}

}  // namespace pagoda::harness
