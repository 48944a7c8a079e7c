// MigrationManager: configuration and accounting for migrate-not-shed
// drains.
//
// PR 4's drain lifecycle stops placing new work on a node and lets in-flight
// work finish. With the migration plane armed, drain_node() instead walks
// the node's safe points — kicks parked slot waiters ungranted, revokes
// unclaimed TaskTable entries host-side — and every captured attempt is
// checkpointed (see checkpoint.h), its node-resident state pulled back over
// the source's D2H link (charged to the requests as the migrate_xfer trace
// phase), and re-placed through the ordinary placement policy as the SAME
// request: same uid, same arrival, same attempt count, so the exactly-once
// ledger and the per-class ClassStats never notice the move.
//
// The capture/restore mechanics live in the dispatcher (it owns the
// attempts); this class owns the decision inputs and the migrate.* counters,
// so src/cluster stays the only layer that touches request state and
// src/migrate stays free of cluster types.
#pragma once

#include <cstdint>

#include "migrate/checkpoint.h"

namespace pagoda::migrate {

struct MigrationConfig {
  /// Arms migrate-not-shed drains. Off by default: drain keeps its PR 4
  /// finish-in-place semantics and every existing output stays
  /// byte-identical.
  bool enabled = false;
};

class MigrationManager {
 public:
  struct Stats {
    std::int64_t checkpoints = 0;  // attempts captured at any safe point
    std::int64_t queued = 0;
    std::int64_t staged = 0;
    std::int64_t table_parked = 0;
    std::int64_t restores = 0;  // checkpoints re-entered dispatch
    /// Revokes that lost the race to a scheduler-warp claim: the attempt
    /// runs to completion on the draining node instead.
    std::int64_t declined = 0;
    std::int64_t xfer_bytes = 0;       // total migrate_xfer wire bytes
    std::int64_t image_bytes = 0;      // total checkpoint image bytes
    std::uint64_t image_digest = 0;    // XOR of per-image digests
  };

  explicit MigrationManager(MigrationConfig cfg) : cfg_(cfg) {}

  const Stats& stats() const { return stats_; }

  /// One attempt captured: counts the safe point and the transfer charge.
  void record_checkpoint(const TaskCheckpoint& cp,
                         std::span<const std::byte> image) {
    stats_.checkpoints += 1;
    switch (cp.point) {
      case SafePoint::kQueued: stats_.queued += 1; break;
      case SafePoint::kStaged: stats_.staged += 1; break;
      case SafePoint::kTableParked: stats_.table_parked += 1; break;
    }
    stats_.xfer_bytes += transfer_bytes(cp);
    stats_.image_bytes += static_cast<std::int64_t>(image.size());
    stats_.image_digest ^= migrate::image_digest(image);
  }

  void record_restore() { stats_.restores += 1; }
  void record_declined() { stats_.declined += 1; }

 private:
  MigrationConfig cfg_;
  Stats stats_;
};

}  // namespace pagoda::migrate
