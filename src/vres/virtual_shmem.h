// VirtualShmem: the virtual-resource facade over the buddy ShmemAllocator
// (DESIGN.md §16).
//
// Every MTB owns one VirtualShmem in front of its physical arena. Two modes:
//
//  * oversub == 1.0 (default) — pure passthrough. Every call delegates to
//    the unchanged buddy allocator with the *declared* byte count: identical
//    allocate/fail/sweep sequences, identical offsets, no extra state, no
//    events. Byte-identical behavior is by construction, not by testing.
//
//  * oversub > 1.0 — admission-only oversubscription. A task's threadblock
//    charges pow2(declared) bytes against a virtual arena of
//    `oversub x arena` bytes, but is physically backed with only pow2(used)
//    bytes (the TaskParams::shmem_used_256 hint; == declared when absent).
//    A full virtual arena or a full physical buddy both mean "no room": the
//    scheduler warp waits for a deferred free, exactly as it does on a full
//    arena at oversub == 1. Nothing is ever evicted.
//
// Why there is no spill path: each MTB has one scheduler warp, the only
// caller of allocate(). It allocates block j+1 only after it has placed
// every warp of block j, and a block's warps touch it as soon as they run.
// So when the physical buddy is full, every resident block is in use by
// executing warps (or about to be), and evicting one would only move its
// bytes out and straight back in. Waiting for the block-level deferred free
// is the right answer, and it is the one Pagoda already has.
#pragma once

#include <cstdint>
#include <optional>

#include "pagoda/shmem_allocator.h"

namespace pagoda::vres {

class VirtualShmem {
 public:
  /// The physical buddy manages exactly `arena_bytes` (the MTB arena's
  /// size; the facade never touches the bytes themselves). `oversub` >= 1.0
  /// scales the virtual arena.
  VirtualShmem(std::int32_t arena_bytes, double oversub,
               std::int32_t granularity = 512);

  bool virtualized() const { return virtualized_; }

  /// Allocates a threadblock's shared memory; returns its physical offset.
  /// Passthrough: exactly ShmemAllocator::allocate(declared). Virtualized:
  /// charges pow2(declared) virtually and pow2(used) physically. nullopt =
  /// no room (the scheduler warp waits, as it does today on a full arena).
  /// A full virtual arena returns before the buddy is asked, so at
  /// oversub > 1 alloc_failures() counts physical failures only.
  std::optional<std::int32_t> allocate(std::int32_t declared_bytes,
                                       std::int32_t used_bytes);

  /// Executor-side deferred free (Algorithm 1 line 22) of the block at
  /// `offset`, whose threadblock declared `declared_bytes`. The virtual
  /// charge is released by the next sweep, with the physical block.
  void mark_for_deallocation(std::int32_t offset, std::int32_t declared_bytes);

  /// Scheduler-side sweep of every deferred free; returns blocks freed.
  int sweep_deferred();
  bool has_deferred() const { return phys_.has_deferred(); }

  // --- forwarded physical-arena observability ----------------------------
  std::int32_t allocated_bytes() const { return phys_.allocated_bytes(); }
  std::int32_t peak_allocated_bytes() const {
    return phys_.peak_allocated_bytes();
  }
  std::int64_t alloc_successes() const { return phys_.alloc_successes(); }
  std::int64_t alloc_failures() const { return phys_.alloc_failures(); }
  std::int64_t sweeps() const { return phys_.sweeps(); }
  std::int64_t blocks_swept() const { return phys_.blocks_swept(); }
  /// The unchanged buddy backend (fragmentation gauges live there).
  const runtime::ShmemAllocator& physical() const { return phys_; }

  /// Declared bytes currently charged against the virtual arena (0 in
  /// passthrough mode).
  std::int64_t virtual_bytes_in_use() const { return virtual_in_use_; }

 private:
  runtime::ShmemAllocator phys_;
  bool virtualized_;
  std::int64_t virtual_capacity_;
  std::int64_t virtual_in_use_ = 0;
  /// Virtual charge of the blocks marked since the last sweep.
  std::int64_t virtual_deferred_ = 0;
};

}  // namespace pagoda::vres
