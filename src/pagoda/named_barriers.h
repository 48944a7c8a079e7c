// Named-barrier pool for sub-threadblock synchronization (paper §5.2).
//
// CUDA's __syncthreads() cannot be used inside the MasterKernel because an
// MTB may host several unrelated threadblocks; Pagoda instead leases PTX
// named barriers (bar.sync N) to synchronizing threadblocks. PTX provides 16
// barrier ids per threadblock, so ids must be recycled when a threadblock
// finishes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "gpu/barrier.h"
#include "sim/simulation.h"

namespace pagoda::runtime {

class NamedBarrierPool {
 public:
  static constexpr int kNumBarriers = 16;  // PTX bar.sync id space

  /// Builds no barrier: each id's barrier is made on its first acquire().
  explicit NamedBarrierPool(sim::Simulation& sim) : sim_(&sim) {
    for (int i = 0; i < kNumBarriers; ++i) {
      free_ids_[static_cast<std::size_t>(i)] =
          static_cast<std::int8_t>(kNumBarriers - 1 - i);  // id 0 on top
    }
  }

  bool has_free() const { return free_count_ > 0; }
  int free_count() const { return free_count_; }

  /// Leases a barrier id for a threadblock of `participants` warps: the
  /// last one released (LIFO). Precondition: has_free().
  int acquire(int participants) {
    PAGODA_CHECK_MSG(has_free(), "named barrier pool exhausted");
    free_count_ -= 1;
    const int id = free_ids_[static_cast<std::size_t>(free_count_)];
    // Ids lease lowest-first, so barriers_ grows one id at a time.
    if (id >= static_cast<int>(barriers_.size())) {
      barriers_.resize(static_cast<std::size_t>(id) + 1);
    }
    auto& b = barriers_[static_cast<std::size_t>(id)];
    if (b == nullptr) b = std::make_unique<gpu::BlockBarrier>(*sim_);
    b->reset(participants);
    return id;
  }

  /// Returns a barrier id to the pool (last warp of the block).
  void release(int id) {
    PAGODA_CHECK(id >= 0 && id < kNumBarriers);
    PAGODA_CHECK_MSG(free_count_ < kNumBarriers,
                     "named barrier released more often than leased");
    free_ids_[static_cast<std::size_t>(free_count_)] =
        static_cast<std::int8_t>(id);
    free_count_ += 1;
  }

  /// The barrier of a leased id.
  gpu::BlockBarrier& barrier(int id) {
    PAGODA_CHECK(id >= 0 && id < kNumBarriers);
    PAGODA_CHECK_MSG(id < static_cast<int>(barriers_.size()) &&
                         barriers_[static_cast<std::size_t>(id)] != nullptr,
                     "named barrier used before its first lease");
    return *barriers_[static_cast<std::size_t>(id)];
  }

  /// Barriers built so far (one per id ever leased).
  int barriers_built() const {
    int n = 0;
    for (const auto& b : barriers_) n += b != nullptr ? 1 : 0;
    return n;
  }

 private:
  sim::Simulation* sim_;
  /// By id, grown to the highest id leased so far.
  std::vector<std::unique_ptr<gpu::BlockBarrier>> barriers_;
  std::array<std::int8_t, kNumBarriers> free_ids_{};  // stack; top at the end
  int free_count_ = kNumBarriers;
};

}  // namespace pagoda::runtime
