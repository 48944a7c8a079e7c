#include "vres/virtual_shmem.h"

#include <algorithm>

#include "common/check.h"

namespace pagoda::vres {

VirtualShmem::VirtualShmem(std::int32_t arena_bytes, double oversub,
                           std::int32_t granularity)
    : phys_(arena_bytes, granularity),
      virtualized_(oversub > 1.0),
      virtual_capacity_(static_cast<std::int64_t>(
          static_cast<double>(arena_bytes) * oversub)) {
  PAGODA_CHECK_MSG(oversub >= 1.0, "oversubscription factor must be >= 1.0");
}

std::optional<std::int32_t> VirtualShmem::allocate(std::int32_t declared_bytes,
                                                   std::int32_t used_bytes) {
  // Passthrough: the exact legacy call, declared bytes, used hint ignored.
  if (!virtualized_) return phys_.allocate(declared_bytes);

  PAGODA_CHECK(declared_bytes > 0);
  const std::int32_t declared_rounded = phys_.block_size_for(declared_bytes);
  // Virtual backpressure first: a full virtual arena is "arena full" at
  // factor oversub — the scheduler warp waits exactly as it does today.
  if (virtual_in_use_ + declared_rounded > virtual_capacity_) {
    return std::nullopt;
  }
  const std::int32_t used =
      used_bytes > 0 ? std::min(used_bytes, declared_bytes) : declared_bytes;
  const auto offset = phys_.allocate(used);
  if (offset.has_value()) virtual_in_use_ += declared_rounded;
  return offset;
}

void VirtualShmem::mark_for_deallocation(std::int32_t offset,
                                         std::int32_t declared_bytes) {
  phys_.mark_for_deallocation(offset);
  if (virtualized_) virtual_deferred_ += phys_.block_size_for(declared_bytes);
}

int VirtualShmem::sweep_deferred() {
  virtual_in_use_ -= virtual_deferred_;
  virtual_deferred_ = 0;
  PAGODA_CHECK(virtual_in_use_ >= 0);
  return phys_.sweep_deferred();
}

}  // namespace pagoda::vres
