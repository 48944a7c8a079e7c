// The per-MTB WarpTable (paper Table 2) and per-threadblock bookkeeping.
#pragma once

#include <cstdint>
#include <memory>

namespace pagoda::runtime {

/// State shared by the warps of one scheduled threadblock: used to detect
/// the "last warp in block" that marks shared memory for deallocation and
/// releases the named barrier (Algorithm 1, lines 35–39).
struct BlockState {
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
  /// one of an MTB's 16, so 16 bits keep the record at 32 bytes.
  std::int16_t bar_id = -1;
  /// Set by the scheduler warp to start execution; doubles as the
  /// free/busy query flag.
  bool exec = false;

  /// Implementation bookkeeping (not part of the paper's table): the
  /// threadblock this warp belongs to.
  std::shared_ptr<BlockState> block;
};
static_assert(sizeof(WarpSlot) <= 32, "a WarpSlot is one half cache line");

}  // namespace pagoda::runtime
