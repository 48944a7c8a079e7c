// The virtual-resource ledger (Zorua-style decoupling; see DESIGN.md §16).
//
// One ResourceLedger tracks a single resource dimension (TaskTable slots of
// one node, register budget of one MTB) as a population of live *virtual*
// allocations, each of which is in exactly one of two states:
//
//   resident — backed by the physical resource right now;
//   spilled  — admitted on virtual capacity, not (or no longer) backed.
//
// The load-bearing invariant, asserted by the 50-seed soak in
// tests/vres_test.cpp at every transition:
//
//     virtual_allocated() == physical_allocated() + spilled()
//
// i.e. every virtual unit is either physically backed or spilled — never
// both, never neither. The ledger is pure bookkeeping: it never touches the
// buddy tree or the simulation clock. The cluster Dispatcher drives one per
// node for TaskTable slots (where "spilled" means admitted-on-virtual-
// capacity but not yet holding a physical table entry); each MTB drives one
// for its register budget, resident-only.
//
// Shared memory does not use a ledger: VirtualShmem charges pow2(declared)
// against the oversubscribed arena (`oversub x physical`) while the buddy
// backs only pow2(used), because declared and backed bytes differ by design;
// mixing them into one counter would break the invariant above.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace pagoda::vres {

class ResourceLedger {
 public:
  /// `virtual_capacity` bounds virtual_allocated(); `physical_capacity`
  /// bounds physical_allocated(). Capacities <= 0 mean "unbounded" (the
  /// caller enforces its own limit, as VirtualShmem does via the buddy).
  explicit ResourceLedger(std::int64_t virtual_capacity = 0,
                          std::int64_t physical_capacity = 0)
      : virtual_capacity_(virtual_capacity),
        physical_capacity_(physical_capacity) {}

  // --- transitions --------------------------------------------------------
  /// New virtual allocation, born resident (the normal allocate path).
  void allocate_resident(std::int64_t amount) {
    check_amount(amount);
    virtual_allocated_ += amount;
    physical_allocated_ += amount;
    check_caps();
    peaks();
  }

  /// New virtual allocation, born spilled (e.g. a slot admitted on virtual
  /// capacity before any physical table entry backs it).
  void allocate_spilled(std::int64_t amount) {
    check_amount(amount);
    virtual_allocated_ += amount;
    spilled_ += amount;
    check_caps();
    peaks();
  }

  /// resident -> spilled (eviction to the backing store).
  void spill(std::int64_t amount) {
    check_amount(amount);
    PAGODA_CHECK_MSG(physical_allocated_ >= amount,
                     "vres ledger: spilling more than is resident");
    physical_allocated_ -= amount;
    spilled_ += amount;
    spills_ += 1;
    spill_amount_total_ += amount;
    peaks();
  }

  /// spilled -> resident (reclaim on next touch).
  void reclaim(std::int64_t amount) {
    check_amount(amount);
    PAGODA_CHECK_MSG(spilled_ >= amount,
                     "vres ledger: reclaiming more than is spilled");
    spilled_ -= amount;
    physical_allocated_ += amount;
    reclaims_ += 1;
    reclaim_amount_total_ += amount;
    check_caps();
    peaks();
  }

  /// Frees a resident allocation (the sweep path).
  void free_resident(std::int64_t amount) {
    check_amount(amount);
    PAGODA_CHECK_MSG(physical_allocated_ >= amount,
                     "vres ledger: freeing more than is resident");
    physical_allocated_ -= amount;
    virtual_allocated_ -= amount;
    PAGODA_CHECK(virtual_allocated_ >= 0);
  }

  /// Frees a spilled allocation without reclaiming it first (a block that
  /// dies in the backing store, or a shed slot that never went physical).
  void free_spilled(std::int64_t amount) {
    check_amount(amount);
    PAGODA_CHECK_MSG(spilled_ >= amount,
                     "vres ledger: freeing more spilled than exists");
    spilled_ -= amount;
    virtual_allocated_ -= amount;
    PAGODA_CHECK(virtual_allocated_ >= 0);
  }

  // --- admission queries --------------------------------------------------
  bool fits_virtual(std::int64_t amount) const {
    return virtual_capacity_ <= 0 ||
           virtual_allocated_ + amount <= virtual_capacity_;
  }
  bool fits_physical(std::int64_t amount) const {
    return physical_capacity_ <= 0 ||
           physical_allocated_ + amount <= physical_capacity_;
  }

  // --- state --------------------------------------------------------------
  std::int64_t virtual_allocated() const { return virtual_allocated_; }
  std::int64_t physical_allocated() const { return physical_allocated_; }
  std::int64_t spilled() const { return spilled_; }
  std::int64_t virtual_capacity() const { return virtual_capacity_; }
  std::int64_t physical_capacity() const { return physical_capacity_; }

  /// The invariant every transition must preserve; property tests call this
  /// after each step. Returns false instead of aborting.
  bool check_invariant() const {
    return virtual_allocated_ == physical_allocated_ + spilled_ &&
           virtual_allocated_ >= 0 && physical_allocated_ >= 0 &&
           spilled_ >= 0 &&
           (virtual_capacity_ <= 0 ||
            virtual_allocated_ <= virtual_capacity_) &&
           (physical_capacity_ <= 0 ||
            physical_allocated_ <= physical_capacity_);
  }

  // --- lifetime counters (observability) ----------------------------------
  std::int64_t spills() const { return spills_; }
  std::int64_t reclaims() const { return reclaims_; }
  std::int64_t spill_amount_total() const { return spill_amount_total_; }
  std::int64_t reclaim_amount_total() const { return reclaim_amount_total_; }
  std::int64_t peak_virtual() const { return peak_virtual_; }
  std::int64_t peak_spilled() const { return peak_spilled_; }

 private:
  static void check_amount(std::int64_t amount) {
    PAGODA_CHECK_MSG(amount > 0, "vres ledger: non-positive amount");
  }
  void check_caps() const {
    PAGODA_CHECK_MSG(virtual_capacity_ <= 0 ||
                         virtual_allocated_ <= virtual_capacity_,
                     "vres ledger: virtual capacity exceeded");
    PAGODA_CHECK_MSG(physical_capacity_ <= 0 ||
                         physical_allocated_ <= physical_capacity_,
                     "vres ledger: physical capacity exceeded");
  }
  void peaks() {
    peak_virtual_ = std::max(peak_virtual_, virtual_allocated_);
    peak_spilled_ = std::max(peak_spilled_, spilled_);
  }

  std::int64_t virtual_capacity_;
  std::int64_t physical_capacity_;
  std::int64_t virtual_allocated_ = 0;
  std::int64_t physical_allocated_ = 0;
  std::int64_t spilled_ = 0;
  std::int64_t spills_ = 0;
  std::int64_t reclaims_ = 0;
  std::int64_t spill_amount_total_ = 0;
  std::int64_t reclaim_amount_total_ = 0;
  std::int64_t peak_virtual_ = 0;
  std::int64_t peak_spilled_ = 0;
};

}  // namespace pagoda::vres
