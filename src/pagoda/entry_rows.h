// Per-entry state of a TaskTable-shaped table, stored in the spawn search's
// order and backed one row at a time.
//
// Entries are named by index `idx` (a TaskId minus kFirstTaskId), which is
// column-major: idx = column * rows + row. Storage is not: the value of
// entry (column, row) sits at search position row * columns + column, in
// the block of row `row`, beside the same row of every other column. The
// spawn search (FreeEntries) hands out entries in exactly that order, so
// consecutive spawns share a row block, and a table that has seen n spawns
// touches only its first ceil(n / columns) rows.
//
// A row block is allocated, every value set to T{}, the first time a
// mutable at() reaches one of its entries. A const read of an entry on an
// unbacked row returns T{} itself. So every read sees what an eagerly
// value-initialised column-major array would hold; only the memory behind it
// differs. Row blocks never move once backed, so a reference
// stays valid for the store's lifetime.
//
// for_each() visits the entries of the backed rows in index (TaskId) order,
// re-reading which rows are backed after every visit: an entry a visit
// backs is visited later in the same walk exactly when a walk over a flat
// array would have reached it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"

namespace pagoda::runtime {

template <typename T>
class EntryRows {
 public:
  /// An empty store (no entries); assign a sized one before use.
  EntryRows() = default;
  /// Every entry reads T{} until written.
  EntryRows(int columns, int rows)
      : columns_(columns),
        rows_(rows),
        // ceil(2^32 / rows): column_of() is one multiply and one shift.
        magic_(((std::uint64_t{1} << 32) + static_cast<std::uint64_t>(rows) -
                1) /
               static_cast<std::uint64_t>(rows)),
        blocks_(static_cast<std::size_t>(rows)),
        backed_(static_cast<std::size_t>(rows + 63) / 64) {
    PAGODA_CHECK(columns > 0 && rows > 0);
    // column_of() is exact while idx * (rows - 1) < 2^32 for every idx.
    PAGODA_CHECK(static_cast<std::uint64_t>(columns) *
                     static_cast<std::uint64_t>(rows) *
                     static_cast<std::uint64_t>(rows) <
                 (std::uint64_t{1} << 32));
  }

  /// Capacity in entries, backed or not.
  int size() const { return columns_ * rows_; }

  /// The column of entry `idx`, without a hardware divide.
  int column_of(int idx) const {
    return static_cast<int>((static_cast<std::uint64_t>(idx) * magic_) >> 32);
  }
  int row_of(int idx) const { return idx - column_of(idx) * rows_; }

  /// The entry's value; T{} when its row is unbacked.
  const T& operator[](int idx) const {
    const int column = column_of(idx);
    const T* block =
        blocks_[static_cast<std::size_t>(idx - column * rows_)].get();
    return block == nullptr ? kDefault : block[column];
  }

  /// The entry's value, backing its row on first use.
  T& at(int idx) {
    const int column = column_of(idx);
    const int row = idx - column * rows_;
    std::unique_ptr<T[]>& block = blocks_[static_cast<std::size_t>(row)];
    if (block == nullptr) back(row);
    return block[static_cast<std::size_t>(column)];
  }

  bool row_backed(int row) const {
    return blocks_[static_cast<std::size_t>(row)] != nullptr;
  }
  int rows_backed() const {
    int n = 0;
    for (const std::uint64_t word : backed_) n += std::popcount(word);
    return n;
  }

  /// Calls f(idx, value) for every entry of a backed row, in index order.
  template <typename F>
  void for_each(F&& f) {
    const std::size_t words = backed_.size();
    for (int column = 0; column < columns_; ++column) {
      const int base = column * rows_;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word = backed_[w];
        while (word != 0) {
          const int bit = std::countr_zero(word);
          const int row = static_cast<int>(w) * 64 + bit;
          f(base + row, blocks_[static_cast<std::size_t>(row)][column]);
          // Re-read: f may have backed a later row of this word.
          word = backed_[w] & ((~std::uint64_t{0} << bit) << 1);
        }
      }
    }
  }

 private:
  [[gnu::noinline]] void back(int row) {
    blocks_[static_cast<std::size_t>(row)] =
        std::make_unique<T[]>(static_cast<std::size_t>(columns_));
    backed_[static_cast<std::size_t>(row / 64)] |= std::uint64_t{1}
                                                   << (row % 64);
  }

  int columns_ = 0;
  int rows_ = 0;
  std::uint64_t magic_ = 0;
  static inline const T kDefault{};  // what an unbacked entry reads
  std::vector<std::unique_ptr<T[]>> blocks_;  // [row], null until backed
  std::vector<std::uint64_t> backed_;         // bit `row` set once backed
};

}  // namespace pagoda::runtime
