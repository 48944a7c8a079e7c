// Kernel launch descriptors and in-flight grid state for the native path.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "gpu/kernel.h"
#include "gpu/smm.h"
#include "sim/sync.h"

namespace pagoda::gpu {

/// Parameters of one native kernel launch (<<<grid, block, shmem>>> plus the
/// per-thread register count the compiler would have assigned).
struct KernelLaunchParams {
  KernelFn fn = nullptr;
  std::vector<std::byte> args;  // copied at launch, CUDA-style
  int threads_per_block = 0;
  int num_blocks = 1;
  int regs_per_thread = 32;
  std::int64_t shared_mem_bytes = 0;
  ExecMode mode = ExecMode::Compute;

  BlockFootprint footprint() const {
    return BlockFootprint::of(threads_per_block, regs_per_thread,
                              shared_mem_bytes);
  }
  int warps_per_block() const { return (threads_per_block + 31) / 32; }

  template <typename T>
  static std::vector<std::byte> pack_args(const T& value) {
    std::vector<std::byte> blob(sizeof(T));
    std::memcpy(blob.data(), &value, sizeof(T));
    return blob;
  }
};

/// One in-flight grid. Lives from launch until all threadblocks retire.
class KernelExecution {
 public:
  KernelExecution(sim::Simulation& sim, KernelLaunchParams p)
      : params(std::move(p)), done(sim) {}

  KernelLaunchParams params;
  sim::Trigger done;        // fires when the last threadblock retires
  int next_block = 0;       // next threadblock index to place
  int blocks_finished = 0;
  std::int64_t grid_id = 0;   // launch-order id (observability)
  sim::Time launched = 0;     // when the dispatcher accepted the grid

  bool all_placed() const { return next_block >= params.num_blocks; }
  bool finished() const { return blocks_finished >= params.num_blocks; }
};

using KernelExecutionPtr = std::shared_ptr<KernelExecution>;

}  // namespace pagoda::gpu
