// Buddy-system shared-memory allocator (paper §5.1).
//
// Each MTB reserves a 32 KB shared-memory arena at startup and sub-allocates
// it to the threadblocks of tasks it schedules. Blocks are nodes of a
// complete binary tree stored as an array (itself small enough to live in
// shared memory on the real GPU): the root is the whole arena, each level
// halves the block size, leaves are 512-byte blocks. For the 32 KB arena
// that is 64 leaves and 127 nodes.
//
// Marking discipline (paper Figs 3–4): allocating a node marks it AND all of
// its ancestors and descendants; the data-structure invariant is that a
// marked node implies a marked parent. A node is allocatable iff it is
// unmarked. Deallocation unmarks the node and its descendants, then walks up
// unmarking each parent whose other child is also unmarked.
//
// Deallocation is deferred (Algorithm 1, line 22): executor warps cannot
// free shared memory themselves (they might race the scheduler warp's
// allocations), so the last warp of a threadblock *marks* its region for
// deallocation and the scheduler warp sweeps the marks before any new
// allocation attempt.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"

namespace pagoda::runtime {

class ShmemAllocator {
 public:
  /// arena_bytes must be a power-of-two multiple of granularity.
  explicit ShmemAllocator(std::int32_t arena_bytes = 32 * 1024,
                          std::int32_t granularity = 512);

  /// Attempts to allocate `bytes` (rounded up to a power-of-two block, min
  /// granularity). Returns the byte offset of the block, or nullopt when no
  /// free block of that size exists. Does NOT sweep deferred frees — call
  /// sweep_deferred() first, as the scheduler warp does.
  std::optional<std::int32_t> allocate(std::int32_t bytes);

  /// Immediately frees the block at `offset` (must be an allocated block's
  /// starting offset).
  void deallocate(std::int32_t offset);

  /// Defers freeing of the block at `offset` (executor-warp side).
  void mark_for_deallocation(std::int32_t offset);

  /// Frees every deferred block (scheduler-warp side). Returns how many
  /// blocks were freed.
  int sweep_deferred();

  bool has_deferred() const { return !deferred_.empty(); }

  std::int32_t arena_bytes() const { return arena_bytes_; }
  std::int32_t granularity() const { return granularity_; }
  std::int32_t allocated_bytes() const { return allocated_bytes_; }
  int node_count() const { return (1 << (levels_ + 1)) - 1; }

  // --- observability counters (buddy-arena pressure) ----------------------
  /// High-water mark of allocated_bytes() over the arena's lifetime.
  std::int32_t peak_allocated_bytes() const { return peak_allocated_bytes_; }
  /// allocate() calls that succeeded / returned nullopt (the scheduler warp
  /// retries after a sweep or a deferred free — each retry counts again).
  std::int64_t alloc_successes() const { return alloc_successes_; }
  std::int64_t alloc_failures() const { return alloc_failures_; }
  /// sweep_deferred() invocations and total blocks they freed.
  std::int64_t sweeps() const { return sweeps_; }
  std::int64_t blocks_swept() const { return blocks_swept_; }

  // --- fragmentation (the counters above can't tell "full" from
  // --- "fragmented") ------------------------------------------------------
  /// Internal fragmentation: total bytes lost to power-of-two rounding over
  /// every successful allocate() (requested vs block_size_for), cumulative.
  std::int64_t internal_frag_bytes() const { return internal_frag_bytes_; }
  /// Largest currently allocatable block (the biggest unmarked node), 0 when
  /// the arena is fully allocated.
  std::int32_t largest_free_block() const;
  /// External-fragmentation gauge: largest free block / total free bytes.
  /// 1.0 = all free space is one contiguous buddy block (or the arena is
  /// full, trivially unfragmented); lower values mean free space exists but
  /// is scattered across buddies.
  double external_fragmentation() const;

  /// Smallest power-of-two block size >= bytes (>= granularity).
  std::int32_t block_size_for(std::int32_t bytes) const;

  /// Verifies the paper's data-structure invariant — a marked node implies
  /// a marked parent — plus internal bookkeeping consistency. Used by
  /// property tests; returns false instead of aborting.
  bool check_invariants() const;

 private:
  std::int32_t level_block_size(int level) const {
    return arena_bytes_ >> level;
  }
  int level_of_size(std::int32_t block_size) const;
  int first_node_of_level(int level) const { return (1 << level) - 1; }
  int nodes_in_level(int level) const { return 1 << level; }
  std::int32_t offset_of_node(int node, int level) const {
    return (node - first_node_of_level(level)) * level_block_size(level);
  }

  void mark_descendants(int node, bool mark);
  /// Builds the (all-free) tree; allocate() calls it first, so an arena
  /// that never serves a block holds none.
  void back_tree();

  std::int32_t arena_bytes_;
  std::int32_t granularity_;
  int levels_;                 // tree has levels_ + 1 levels (root = level 0)
  std::vector<bool> marked_;   // node -> allocated? (empty until backed)
  std::vector<std::int32_t> alloc_size_at_offset_;  // per-leaf-offset block size
  std::vector<std::int32_t> deferred_;              // offsets awaiting free
  std::int32_t allocated_bytes_ = 0;
  std::int32_t peak_allocated_bytes_ = 0;
  std::int64_t alloc_successes_ = 0;
  std::int64_t alloc_failures_ = 0;
  std::int64_t sweeps_ = 0;
  std::int64_t blocks_swept_ = 0;
  std::int64_t internal_frag_bytes_ = 0;
};

}  // namespace pagoda::runtime
