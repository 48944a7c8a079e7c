// PCIe bus model: two directed links (H2D / D2H) plus a memcpy engine with
// real byte transport.
//
// Properties the Pagoda TaskTable design depends on (paper §4.2):
//  * Per-transaction setup latency dominates small copies — aggregated bulk
//    copies achieve far better effective bandwidth.
//  * The bus offers no atomics and no write-ordering guarantee *within* one
//    transaction: two fields copied in a single cudaMemcpy may become visible
//    to the GPU in any order. Transactions issued on the same CUDA stream
//    complete in order.
//
// The engine honors both: bytes land (and the copy's landing continuation
// runs) only when a transfer's time cost has elapsed, and
// copy_two_regions_unordered() exposes the intra-transaction hazard by
// making one region's bytes visible at an intermediate time, which
// PcieBus.IntraTransactionWriteOrderIsNotGuaranteed (tests/pcie_test.cpp)
// exercises.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "sim/link.h"
#include "sim/simulation.h"

namespace pagoda::pcie {

enum class Direction { HostToDevice, DeviceToHost };

struct PcieConfig {
  /// Effective bandwidth per direction (PCIe 3.0 x16 ≈ 12 GB/s achievable).
  double bandwidth_bytes_per_sec = 12.0e9;
  /// Completion latency after a transfer's wire slot (DMA round trip).
  sim::Duration latency = sim::microseconds(2.0);
  /// Minimum wire occupancy per transaction (engine issue overhead);
  /// back-to-back small copies pipeline at this spacing.
  sim::Duration transaction_gap = sim::nanoseconds(500.0);
};

class PcieBus {
 public:
  PcieBus(sim::Simulation& sim, const PcieConfig& cfg)
      : sim_(&sim),
        h2d_(sim, cfg.bandwidth_bytes_per_sec, cfg.latency,
             cfg.transaction_gap),
        d2h_(sim, cfg.bandwidth_bytes_per_sec, cfg.latency,
             cfg.transaction_gap) {}

  sim::Link& link(Direction d) {
    return d == Direction::HostToDevice ? h2d_ : d2h_;
  }

  /// Fault-injection hook for *payload* transfers (the serving layer's data
  /// copies — never the TaskTable protocol stream): consulted once per
  /// checked copy at issue time; returning true marks that copy corrupt.
  /// The corrupt transfer still occupies its full wire slot (the bytes
  /// crossed the bus; the end-to-end CRC just failed), but the payload does
  /// NOT land, exactly like a DMA engine dropping a poisoned TLP.
  using TransferFaultFn = std::function<bool(Direction, std::int64_t bytes)>;
  void set_transfer_fault_fn(TransferFaultFn fn) { fault_fn_ = std::move(fn); }

  std::int64_t transfer_faults() const { return transfer_faults_; }

  /// Timed copy with real byte transport: dst/src may be null (model mode,
  /// no data movement) or point to `bytes` valid bytes. Bytes land when the
  /// transfer completes, then `landed` (if set) runs. A `checked` copy first
  /// asks the fault hook: a corrupt one keeps its wire slot and landing but
  /// lands no bytes. Returns the verdict, true unless the hook judged the
  /// copy corrupt, so with no hook armed fault-free runs are byte-identical.
  bool copy(Direction dir, void* dst, const void* src, std::size_t bytes,
            sim::Continuation landed, bool checked = false) {
    const auto n = static_cast<std::int64_t>(bytes);
    const bool ok = !checked || !fault_fn_ || !fault_fn_(dir, n);
    if (!ok) transfer_faults_ += 1;
    link(dir).transfer(n, landed, ok ? dst : nullptr, src);
    return ok;
  }

  /// Copy that models the *absence* of intra-transaction write ordering: the
  /// second region's bytes may land before the first region's. Used by tests
  /// to demonstrate why a task's parameters and its ready flag cannot ride
  /// the same transaction (§4.2.1).
  void copy_two_regions_unordered(Direction dir, void* dst_a,
                                  const void* src_a, std::size_t bytes_a,
                                  void* dst_b, const void* src_b,
                                  std::size_t bytes_b, std::uint64_t seed) {
    const std::size_t total = bytes_a + bytes_b;
    // Deterministically pick which region becomes visible first.
    const bool b_first = (hash_index(seed, reorder_counter_++) & 1) != 0;
    // Both regions land by completion; visibility order differed mid-flight.
    link(dir).transfer(static_cast<std::int64_t>(total),
                       {&Write::land, new Write{dst_a, src_a, bytes_a,
                                                new Write{dst_b, src_b,
                                                          bytes_b}}});
    // Mid-flight visibility: expose one region at half the wire time.
    const auto early = static_cast<sim::Duration>(
        link(dir).latency() +
        static_cast<sim::Duration>(1e12 * static_cast<double>(total) / 2.0 /
                                   link(dir).bandwidth()));
    auto* w = b_first ? new Write{dst_b, src_b, bytes_b}
                      : new Write{dst_a, src_a, bytes_a};
    sim_->after(early, {&Write::land, w});
  }

 private:
  /// A region an unordered copy writes at one event, then the chained one,
  /// if any; each frees itself once written.
  struct Write {
    void* dst;
    const void* src;
    std::size_t bytes;
    Write* then = nullptr;
    static void land(void* p) {
      for (auto* w = static_cast<Write*>(p); w != nullptr;) {
        if (w->dst && w->src) std::memcpy(w->dst, w->src, w->bytes);
        delete std::exchange(w, w->then);
      }
    }
  };

  sim::Simulation* sim_;
  sim::Link h2d_;
  sim::Link d2h_;
  std::uint64_t reorder_counter_ = 0;
  TransferFaultFn fault_fn_;
  std::int64_t transfer_faults_ = 0;
};

}  // namespace pagoda::pcie
