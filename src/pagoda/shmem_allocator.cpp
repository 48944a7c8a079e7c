#include "pagoda/shmem_allocator.h"

#include <algorithm>
#include <bit>

namespace pagoda::runtime {

ShmemAllocator::ShmemAllocator(std::int32_t arena_bytes,
                               std::int32_t granularity)
    : arena_bytes_(arena_bytes), granularity_(granularity) {
  PAGODA_CHECK(arena_bytes > 0 && granularity > 0);
  PAGODA_CHECK_MSG(std::has_single_bit(static_cast<std::uint32_t>(arena_bytes)),
                   "arena must be a power of two");
  PAGODA_CHECK_MSG(
      std::has_single_bit(static_cast<std::uint32_t>(granularity)),
      "granularity must be a power of two");
  PAGODA_CHECK(arena_bytes >= granularity);
  levels_ = std::countr_zero(static_cast<std::uint32_t>(arena_bytes)) -
            std::countr_zero(static_cast<std::uint32_t>(granularity));
}

void ShmemAllocator::back_tree() {
  // Complete binary tree with levels_+1 levels: 2^(levels_+1) - 1 nodes.
  // For 32 KB / 512 B: levels_ = 6, 127 nodes — the paper's "128 nodes,
  // small enough to fit in the shared memory".
  marked_.assign(static_cast<std::size_t>(node_count()), false);
  alloc_size_at_offset_.assign(
      static_cast<std::size_t>(arena_bytes_ / granularity_), 0);
}

std::int32_t ShmemAllocator::block_size_for(std::int32_t bytes) const {
  PAGODA_CHECK(bytes > 0);
  const auto needed = static_cast<std::uint32_t>(
      bytes < granularity_ ? granularity_ : bytes);
  return static_cast<std::int32_t>(std::bit_ceil(needed));
}

int ShmemAllocator::level_of_size(std::int32_t block_size) const {
  PAGODA_CHECK(block_size <= arena_bytes_);
  return std::countr_zero(static_cast<std::uint32_t>(arena_bytes_)) -
         std::countr_zero(static_cast<std::uint32_t>(block_size));
}

void ShmemAllocator::mark_descendants(int node, bool mark) {
  const int n = static_cast<int>(marked_.size());
  const int left = 2 * node + 1;
  const int right = 2 * node + 2;
  if (left < n) {
    marked_[static_cast<std::size_t>(left)] = mark;
    mark_descendants(left, mark);
  }
  if (right < n) {
    marked_[static_cast<std::size_t>(right)] = mark;
    mark_descendants(right, mark);
  }
}

std::optional<std::int32_t> ShmemAllocator::allocate(std::int32_t bytes) {
  if (bytes > arena_bytes_) {
    alloc_failures_ += 1;
    return std::nullopt;
  }
  if (marked_.empty()) back_tree();
  const std::int32_t block = block_size_for(bytes);
  const int level = level_of_size(block);
  // Search the level for an unmarked node. (On the GPU the 32 threads of the
  // scheduler warp scan in parallel; here the linear scan is charged for by
  // the caller's cycle model.)
  const int first = first_node_of_level(level);
  for (int node = first; node < first + nodes_in_level(level); ++node) {
    if (marked_[static_cast<std::size_t>(node)]) continue;
    // Mark the node, its descendants, and its ancestors (paper Fig 3).
    marked_[static_cast<std::size_t>(node)] = true;
    mark_descendants(node, true);
    for (int up = node; up != 0;) {
      up = (up - 1) / 2;
      marked_[static_cast<std::size_t>(up)] = true;
    }
    const std::int32_t offset = offset_of_node(node, level);
    alloc_size_at_offset_[static_cast<std::size_t>(offset / granularity_)] =
        block;
    allocated_bytes_ += block;
    peak_allocated_bytes_ = std::max(peak_allocated_bytes_, allocated_bytes_);
    alloc_successes_ += 1;
    internal_frag_bytes_ += block - bytes;
    return offset;
  }
  alloc_failures_ += 1;
  return std::nullopt;
}

void ShmemAllocator::deallocate(std::int32_t offset) {
  PAGODA_CHECK(offset >= 0 && offset < arena_bytes_ &&
               offset % granularity_ == 0);
  const std::size_t slot = static_cast<std::size_t>(offset / granularity_);
  const std::int32_t block =
      alloc_size_at_offset_.empty() ? 0 : alloc_size_at_offset_[slot];
  PAGODA_CHECK_MSG(block > 0, "deallocating an unallocated offset");
  alloc_size_at_offset_[slot] = 0;
  allocated_bytes_ -= block;

  const int level = level_of_size(block);
  const int node =
      first_node_of_level(level) + offset / level_block_size(level);
  // Unmark descendants, then the node, then ancestors while the sibling is
  // free (paper Fig 4).
  mark_descendants(node, false);
  marked_[static_cast<std::size_t>(node)] = false;
  for (int cur = node; cur != 0;) {
    const int parent = (cur - 1) / 2;
    const int sibling = (cur % 2 == 1) ? cur + 1 : cur - 1;
    if (marked_[static_cast<std::size_t>(sibling)]) break;
    marked_[static_cast<std::size_t>(parent)] = false;
    cur = parent;
  }
}

bool ShmemAllocator::check_invariants() const {
  // Invariant 1 (paper §5.1): a marked node implies a marked parent.
  for (std::size_t node = 1; node < marked_.size(); ++node) {
    if (marked_[node] && !marked_[(node - 1) / 2]) return false;
  }
  // Invariant 2: the allocated byte count equals the sum of live blocks.
  std::int64_t live = 0;
  for (const std::int32_t size : alloc_size_at_offset_) live += size;
  if (live != allocated_bytes_) return false;
  // Invariant 3: every live block's node (and hence its ancestors, by
  // invariant 1) is marked.
  for (std::size_t slot = 0; slot < alloc_size_at_offset_.size(); ++slot) {
    const std::int32_t size = alloc_size_at_offset_[slot];
    if (size == 0) continue;
    const std::int32_t offset =
        static_cast<std::int32_t>(slot) * granularity_;
    const int level = level_of_size(size);
    const int node = first_node_of_level(level) + offset / size;
    if (!marked_[static_cast<std::size_t>(node)]) return false;
  }
  return true;
}

std::int32_t ShmemAllocator::largest_free_block() const {
  // Top-down: the first level holding any unmarked node holds the largest
  // allocatable block (an unmarked node's subtree is entirely free).
  if (marked_.empty()) return arena_bytes_;  // nothing ever allocated
  for (int level = 0; level <= levels_; ++level) {
    const int first = first_node_of_level(level);
    for (int node = first; node < first + nodes_in_level(level); ++node) {
      if (!marked_[static_cast<std::size_t>(node)]) {
        return level_block_size(level);
      }
    }
  }
  return 0;
}

double ShmemAllocator::external_fragmentation() const {
  const std::int32_t total_free = arena_bytes_ - allocated_bytes_;
  if (total_free == 0) return 1.0;
  return static_cast<double>(largest_free_block()) /
         static_cast<double>(total_free);
}

void ShmemAllocator::mark_for_deallocation(std::int32_t offset) {
  deferred_.push_back(offset);
}

int ShmemAllocator::sweep_deferred() {
  const int freed = static_cast<int>(deferred_.size());
  for (const std::int32_t offset : deferred_) deallocate(offset);
  deferred_.clear();
  sweeps_ += 1;
  blocks_swept_ += freed;
  return freed;
}

}  // namespace pagoda::runtime
