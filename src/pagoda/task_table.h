// The TaskTable (paper §4.2): the mirrored CPU/GPU structure through which
// tasks are spawned.
//
// Layout: one column per MTB (MasterKernel threadblock); 32 rows per column.
// Each entry holds the task descriptor fields of §4.2 — (1) #threadblocks,
// (2) threads per threadblock, (3) kernel pointer, (4) shared-memory bytes
// per threadblock, (5) sync flag, (6) task inputs (parameter blob),
// (7) ready field, (8) sched flag. The table stores them split by reader,
// each in an EntryRows store (pagoda/entry_rows.h): in the spawn search's
// order, one row block of columns() entries backed the first time a write
// reaches its row. Spawns fill columns first, so a lightly loaded table
// backs only its first rows, and an unbacked entry reads as a free, idle
// one. TaskIds stay column-major; only the storage follows the search.
//  * fields 7–8 (`EntryStatus`): the scheduler warps' scan, the copy-backs
//    and every host-side done check read only these. Beside them sit two
//    masks of one bit per entry, ceil(rows/64) words per column: the
//    actionable mask, set iff the entry gives a scheduler pass work
//    (`actionable()`), and the free mask, set iff its ready field is 0.
//    Status words are written only through set_status() or store(), which
//    keep both bits. next_actionable() finds a column's next set bit, so a
//    pass visits only the rows it acts on (DESIGN.md §4, item 10); an
//    aggregate copy-back lands and compares free masks, not status words;
//  * fields 1–6 (`TaskParams`): what a claim and an executor warp read.
// `TaskEntry` (all eight fields, 240 B) is the unit a PCIe copy charges and
// carries: load() gathers one, store() scatters one. The spawn copy lands
// both regions in one completion callback, so the GPU never sees the status
// words of an entry without its parameters (the §4.2.1 ordering argument:
// the bus orders transactions, not the writes inside one).
//
// Ready-field encodings (§4.2.2, Fig 2):
//    0  — entry free / task finished
//   -1  — parameters copied, awaiting release by a successor spawn or flush
//    1  — task is being considered for scheduling on the GPU
//   >1  — a taskID: the *previous* task (whose parameters are known complete
//         because its copy transaction preceded this one on the stream) can
//         be released for scheduling. This indirection is what lets Pagoda
//         pay exactly one cudaMemcpy per task despite PCIe's lack of
//         intra-transaction write ordering.
//
// The same TaskTable type instantiates both mirrors; the Runtime owns one
// CPU-side and one GPU-side instance and moves entries between them through
// the PCIe model.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "gpu/kernel.h"
#include "pagoda/entry_rows.h"

namespace pagoda::runtime {

/// Task identifier handed back by taskSpawn. Values >= 2 so the encodings
/// 0 / -1 / 1 of the ready field stay unambiguous.
using TaskId = std::int32_t;
inline constexpr TaskId kFirstTaskId = 2;

/// Maximum parameter-blob size copied into a TaskTable entry.
inline constexpr std::size_t kMaxArgBytes = 192;

/// Ready-field named states.
inline constexpr std::int32_t kReadyFree = 0;
inline constexpr std::int32_t kReadyParamsCopied = -1;
inline constexpr std::int32_t kReadyScheduling = 1;

/// Fields 1–6: what taskSpawn supplies, plus the QoS tags the sched layer
/// orders on. The tags live in what used to be padding holes (after
/// needs_sync and after args_size, before the alignas(16) blob), so
/// sizeof(TaskParams) — and therefore kEntryCopyBytes and every PCIe copy
/// charge — is unchanged from the untagged layout.
struct TaskParams {
  gpu::KernelFn fn = nullptr;
  std::int32_t num_blocks = 1;
  std::int32_t threads_per_block = 0;
  std::int32_t shared_mem_bytes = 0;
  bool needs_sync = false;
  /// QoS class (sched::Class numeric encoding; 1 = standard). Ordering
  /// decisions on this byte belong to sched::Policy, never to callers.
  std::uint8_t sched_class = 1;
  /// Virtual-resource hints (DESIGN.md §16), in the two remaining padding
  /// bytes so sizeof(TaskParams) is unchanged. Both are ignored unless the
  /// runtime runs oversubscribed (--oversub > 1):
  /// actually-used shared memory per threadblock in 256-byte units (0 =
  /// uses the full declared shared_mem_bytes), ...
  std::uint8_t shmem_used_256 = 0;
  /// ... and actually-used registers per thread (0 = the declared budget).
  std::uint8_t regs_used = 0;
  std::int32_t args_size = 0;
  /// Absolute deadline in microseconds of sim time (0 = none); encoded via
  /// sched::deadline_to_us. 32 bits outlast the 3600 s run cap.
  std::uint32_t deadline_us = 0;
  alignas(16) std::array<std::byte, kMaxArgBytes> args{};

  int warps_per_block() const { return (threads_per_block + 31) / 32; }
  int warps_total() const { return warps_per_block() * num_blocks; }

  /// Shared-memory bytes a threadblock actually touches (the physical
  /// backing under oversubscription); == declared when no hint is set.
  std::int32_t shmem_used_bytes() const {
    return shmem_used_256 > 0 ? static_cast<std::int32_t>(shmem_used_256) * 256
                              : shared_mem_bytes;
  }
  /// Registers per thread actually used; defaults to the MTB's 32-register
  /// budget when no hint is set.
  int regs_used_per_thread() const { return regs_used > 0 ? regs_used : 32; }

  template <typename T>
  void set_args(const T& value) {
    static_assert(sizeof(T) <= kMaxArgBytes,
                  "kernel arguments exceed the TaskTable parameter blob");
    static_assert(std::is_trivially_copyable_v<T>);
    args_size = sizeof(T);
    std::memcpy(args.data(), &value, sizeof(T));
  }
};

/// Fields 7–8: the two words the scheduler scan and the copy-backs read.
struct EntryStatus {
  std::int32_t ready = kReadyFree;
  std::int32_t sched = 0;
};

/// True when a scheduler pass acts on the entry: its ready field names a
/// predecessor to release (Algorithm 1, lines 5-13) or its sched flag is set
/// (lines 14-28). A pass skips every other entry without a cycle or a write.
constexpr bool actionable(const EntryStatus& st) {
  return st.ready > kReadyScheduling || st.sched == 1;
}

/// Fields 1–8: a full TaskTable entry, the unit copied over PCIe.
struct TaskEntry {
  TaskParams params;
  std::int32_t ready = kReadyFree;
  std::int32_t sched = 0;
};

/// The size charged for one entry copy over PCIe.
inline constexpr std::size_t kEntryCopyBytes = sizeof(TaskEntry);

class TaskTable {
 public:
  TaskTable(int columns, int rows)
      : columns_(columns),
        rows_(rows),
        words_per_column_((rows + 63) / 64),
        status_(columns, rows),
        actionable_(static_cast<std::size_t>(columns) *
                    static_cast<std::size_t>(words_per_column_)),
        free_(actionable_.size()),
        params_(columns, rows) {
    for (std::size_t w = 0; w < free_.size(); ++w) free_[w] = full_word(w);
  }

  int columns() const { return columns_; }
  int rows() const { return rows_; }
  int size() const { return columns_ * rows_; }

  /// TaskIds enumerate entries column-major, offset so that every id >= 2.
  TaskId id_of(int column, int row) const {
    PAGODA_CHECK(column >= 0 && column < columns_ && row >= 0 && row < rows_);
    return static_cast<TaskId>(column * rows_ + row) + kFirstTaskId;
  }
  int column_of(TaskId id) const {
    return status_.column_of(id - kFirstTaskId);
  }
  int row_of(TaskId id) const { return status_.row_of(id - kFirstTaskId); }
  bool valid_id(TaskId id) const {
    return id >= kFirstTaskId && id < kFirstTaskId + size();
  }

  const EntryStatus& status(TaskId id) const {
    PAGODA_CHECK_MSG(valid_id(id), "bad task id");
    return status_[id - kFirstTaskId];
  }
  /// The one writer of the status words besides store(); keeps the entry's
  /// actionable and free bits.
  void set_status(TaskId id, EntryStatus st) {
    PAGODA_CHECK_MSG(valid_id(id), "bad task id");
    const int idx = id - kFirstTaskId;
    status_.at(idx) = st;
    const int column = status_.column_of(idx);
    const int row = idx - column * rows_;
    const auto w =
        static_cast<std::size_t>(column * words_per_column_ + row / 64);
    const std::uint64_t bit = std::uint64_t{1} << (row % 64);
    actionable_[w] = actionable(st) ? actionable_[w] | bit
                                    : actionable_[w] & ~bit;
    free_[w] = st.ready == kReadyFree ? free_[w] | bit : free_[w] & ~bit;
  }

  /// The lowest row at or after `row` in `column` whose entry is
  /// actionable(), or -1 when there is none.
  int next_actionable(int column, int row) const {
    if (row >= rows_) return -1;
    const std::uint64_t* words =
        &actionable_[static_cast<std::size_t>(column * words_per_column_)];
    int w = row / 64;
    std::uint64_t word = words[w] & (~std::uint64_t{0} << (row % 64));
    while (word == 0) {
      if (++w == words_per_column_) return -1;
      word = words[w];
    }
    return w * 64 + std::countr_zero(word);
  }

  /// Backs the entry's parameter row on first use.
  TaskParams& params(TaskId id) {
    PAGODA_CHECK_MSG(valid_id(id), "bad task id");
    return params_.at(id - kFirstTaskId);
  }
  /// An entry on an unbacked row reads as idle default parameters.
  const TaskParams& params(TaskId id) const {
    PAGODA_CHECK_MSG(valid_id(id), "bad task id");
    return params_[id - kFirstTaskId];
  }

  TaskEntry load(TaskId id) const {
    const EntryStatus& st = status(id);
    return TaskEntry{params(id), st.ready, st.sched};
  }
  void store(TaskId id, const TaskEntry& entry) {
    params(id) = entry.params;
    set_status(id, {entry.ready, entry.sched});
  }

  /// The free mask: bit `row % 64` of word `column * words_per_column() +
  /// row / 64` is set iff (column, row)'s ready field is kReadyFree. Words
  /// ascend in TaskId order.
  const std::vector<std::uint64_t>& free_words() const { return free_; }
  int words_per_column() const { return words_per_column_; }
  bool all_free() const {
    for (std::size_t w = 0; w < free_.size(); ++w) {
      if (free_[w] != full_word(w)) return false;
    }
    return true;
  }

  /// Row blocks backed so far (host-memory observability).
  int rows_backed() const { return params_.rows_backed(); }
  int status_rows_backed() const { return status_.rows_backed(); }

 private:
  /// Mask word `w` with every row it covers set.
  std::uint64_t full_word(std::size_t w) const {
    const int first_row =
        static_cast<int>(w % static_cast<std::size_t>(words_per_column_)) * 64;
    const int n = rows_ - first_row < 64 ? rows_ - first_row : 64;
    return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  }

  int columns_;
  int rows_;
  int words_per_column_;
  EntryRows<EntryStatus> status_;
  /// Bit `row % 64` of word `column * words_per_column_ + row / 64` is
  /// actionable(status of (column, row)) ...
  std::vector<std::uint64_t> actionable_;
  /// ... and, in the same layout, whether its ready field is kReadyFree.
  std::vector<std::uint64_t> free_;
  EntryRows<TaskParams> params_;
};

/// The free entries of a table, in the spawn search's order: round-robin
/// across columns first, so consecutive spawns land in different MTBs and
/// their scheduler warps work concurrently (§4.3). Search position
/// `row * columns + column` holds the entry of index `column * rows + row`
/// (its TaskId minus kFirstTaskId); one bit per position, set when free.
class FreeEntries {
 public:
  /// Every entry starts free.
  FreeEntries(int columns, int rows)
      : columns_(columns),
        rows_(rows),
        words_(static_cast<std::size_t>(columns * rows + 63) / 64,
               ~std::uint64_t{0}) {
    if (const int tail = columns * rows % 64; tail != 0) {
      words_.back() = (std::uint64_t{1} << tail) - 1;
    }
  }

  void set(int idx, bool free) {
    const int pos = idx % rows_ * columns_ + idx / rows_;
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    std::uint64_t& word = words_[static_cast<std::size_t>(pos / 64)];
    word = free ? word | bit : word & ~bit;
  }

  /// Index of the first free entry at or after search position `cursor`,
  /// wrapping around, and moves `cursor` past it; -1 (cursor unchanged)
  /// when no entry is free.
  int next(int& cursor) const {
    int pos = first_from(cursor);
    if (pos < 0) pos = first_from(0);
    if (pos < 0) return -1;
    cursor = pos + 1 == columns_ * rows_ ? 0 : pos + 1;
    return pos % columns_ * rows_ + pos / columns_;
  }

 private:
  /// First free search position at or after `pos`, or -1.
  int first_from(int pos) const {
    std::size_t w = static_cast<std::size_t>(pos / 64);
    if (w == words_.size()) return -1;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (pos % 64));
    while (word == 0) {
      if (++w == words_.size()) return -1;
      word = words_[w];
    }
    return static_cast<int>(w) * 64 + std::countr_zero(word);
  }

  int columns_;
  int rows_;
  std::vector<std::uint64_t> words_;
};

}  // namespace pagoda::runtime
