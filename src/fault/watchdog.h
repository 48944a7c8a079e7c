// Host-side node watchdog: a pure detection state machine.
//
// The dispatcher probes each node at a fixed cadence while it has work in
// flight. A probe samples the node's liveness signature — the MasterKernel
// heartbeat counter, its completion count (see MasterKernel::heartbeats())
// and the node's landed PCIe transfers — and feeds it to observe(). A node
// whose signature freezes across miss_threshold consecutive probes *while
// it holds in-flight work* is declared dead; the transition is reported
// exactly once so the dispatcher can run node-failure recovery exactly once.
//
// The state machine holds no reference to the simulation: probing cadence
// and sampling live in the dispatcher, which keeps this unit-testable with
// hand-fed signatures and guarantees observation itself emits no events.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time_types.h"

namespace pagoda::fault {

/// Liveness signature sampled from a node at probe time.
struct NodeSig {
  std::int64_t heartbeat = 0;
  std::int64_t completed = 0;
  /// H2D + D2H transfers landed. A PCIe-bound node makes progress the GPU
  /// counters cannot see: its scheduler warps idle while TaskTable entry
  /// copies queue behind input copies, yet the link keeps completing.
  std::int64_t pcie_transfers = 0;

  bool operator==(const NodeSig&) const = default;
};

struct WatchdogConfig {
  sim::Duration probe_period = sim::microseconds(200.0);
  /// Consecutive frozen probes (with work in flight) before declaring death.
  int miss_threshold = 3;
};

class Watchdog {
 public:
  Watchdog(const WatchdogConfig& cfg, int num_nodes);

  /// Feed one probe of `node`. `has_work` is whether the dispatcher has
  /// attempts in flight on the node — an idle node's frozen signature is
  /// healthy, not dead. Returns true exactly on the transition to dead.
  bool observe(int node, const NodeSig& sig, bool has_work);

  /// Reinstates a node (recovery / drain-undo): clears dead state + misses.
  void reset(int node);

  bool dead(int node) const { return nodes_[idx(node)].dead; }
  int misses(int node) const { return nodes_[idx(node)].misses; }
  std::int64_t probes() const { return probes_; }
  std::int64_t deaths_detected() const { return deaths_; }

 private:
  struct NodeState {
    NodeSig last;
    int misses = 0;
    bool dead = false;
    bool seen = false;
  };

  std::size_t idx(int node) const {
    PAGODA_CHECK(node >= 0 && node < static_cast<int>(nodes_.size()));
    return static_cast<std::size_t>(node);
  }

  WatchdogConfig cfg_;
  std::vector<NodeState> nodes_;
  std::int64_t probes_ = 0;
  std::int64_t deaths_ = 0;
};

}  // namespace pagoda::fault
