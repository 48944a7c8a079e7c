// Architectural parameters of the modeled GPU.
//
// Defaults describe the NVIDIA Maxwell Titan X used in the paper (§2):
// 24 SMMs, 128 CUDA cores each, 64 warp slots/SMM, 32 threads/warp, 96 KB
// shared memory/SMM, 64 K 32-bit registers/SMM, <= 32 resident threadblocks
// and <= 2048 resident threads per SMM, 1 GHz clock.
#pragma once

#include <cstdint>

namespace pagoda::gpu {

struct GpuSpec {
  int num_smms = 24;
  int warps_per_smm = 64;
  int lanes_per_warp = 32;
  int max_blocks_per_smm = 32;
  int max_threads_per_block = 1024;
  int max_threads_per_smm = 2048;
  std::int64_t shared_mem_per_smm = 96 * 1024;
  std::int64_t registers_per_smm = 64 * 1024;
  double clock_hz = 1.0e9;

  /// Warp-instructions issued per cycle per SMM (Maxwell: 4 warp schedulers).
  double issue_width = 4.0;

  /// Hardware work queues usable for concurrent kernels (HyperQ).
  int hyperq_connections = 32;

  /// The Titan X configuration the paper evaluates on.
  static GpuSpec titan_x() { return GpuSpec{}; }

  /// The Tesla K40 the paper cross-checked TaskTable visibility on
  /// (Kepler: 15 SMX, 48 KB default shared memory, 745 MHz boost clock).
  static GpuSpec tesla_k40() {
    GpuSpec s;
    s.num_smms = 15;
    s.shared_mem_per_smm = 48 * 1024;
    s.clock_hz = 0.745e9;
    s.max_blocks_per_smm = 16;
    return s;
  }

  int max_resident_warps() const { return num_smms * warps_per_smm; }
};

}  // namespace pagoda::gpu
