// The per-MTB WarpTable (paper Table 2) and per-task/threadblock
// bookkeeping.
#pragma once

#include <cstdint>

namespace pagoda::runtime {

/// Warps that finish together, counted down as each one ends: a claimed
/// task (its last warp clears the entry's ready field: the done counter of
/// Algorithm 1, lines 40-43) or a threadblock holding a shared-memory or
/// named-barrier lease (its last warp marks the shared memory for
/// deallocation and releases the barrier, lines 35-39). An MTB keeps these
/// in a reused pool; a record whose warps_remaining is 0 is free. At most
/// 32 tasks and 32 leased blocks are live per MTB (each has a warp in one
/// of the 31 slots, bar the one being placed), so a byte names a record.
struct WarpGroup {
  int warps_remaining = 0;
  std::int32_t sm_offset = -1;   // shared-memory block offset, -1 = none
  std::int32_t sm_bytes = 0;
  std::int32_t bar_id = -1;      // named barrier id, -1 = none
};

/// One executor-warp slot (paper Table 2).
struct WarpSlot {
  /// Warp ID within the current task; generates thread IDs in getTid().
  std::int32_t warp_id = 0;
  /// Row of the TaskTable entry (in this MTB's column) being executed.
  std::int32_t entry_row = -1;
  /// Shared-memory starting offset for the warp's threadblock.
  std::int32_t sm_index = -1;
  /// Named barrier ID to synchronize on (tasks with the sync flag only);
  /// one of an MTB's 16, so a byte suffices.
  std::int8_t bar_id = -1;
  /// Implementation bookkeeping (not part of the paper's table): the
  /// warp's task and, when it holds a lease, its threadblock, as records
  /// of the MTB's WarpGroup pool (-1 = none).
  std::int8_t task = -1;
  std::int8_t block = -1;
  /// Set by the scheduler warp to start execution; doubles as the
  /// free/busy query flag.
  bool exec = false;
};
static_assert(sizeof(WarpSlot) <= 16, "a WarpSlot is a quarter cache line");

}  // namespace pagoda::runtime
