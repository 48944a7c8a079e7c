// Fault-plane vocabulary shared by injection, detection and recovery.
//
// Design rule (enforced by a grep gate in tools/check.sh): recovery paths
// never throw. An attempt that fails produces a FailureCause routed through
// the dispatcher's retry/shed machinery; PAGODA_CHECK remains reserved for
// genuine invariant violations (simulator bugs), not injected faults.
#pragma once

namespace pagoda::fault {

/// Why an attempt (one placement of a request on one node) did not complete.
enum class FailureCause {
  kNone = 0,       // attempt succeeded
  kTaskFault,      // task kernel produced a poisoned result (ECC-style)
  kTransferFault,  // PCIe payload copy failed end-to-end integrity
  kTimeout,        // per-task execution deadline expired (wedge or crash)
  kNodeCrash,      // node declared dead while the attempt was in flight
  kEvicted,        // displaced from the admission queue by a more urgent
                   // arrival under a non-FIFO scheduling policy
};

constexpr const char* to_string(FailureCause c) {
  switch (c) {
    case FailureCause::kNone: return "none";
    case FailureCause::kTaskFault: return "task_fault";
    case FailureCause::kTransferFault: return "transfer_fault";
    case FailureCause::kTimeout: return "timeout";
    case FailureCause::kNodeCrash: return "node_crash";
    case FailureCause::kEvicted: return "evicted";
  }
  return "?";
}

/// Detected health of a node, as maintained by the dispatcher's watchdog.
/// Distinct from the injection-side ground truth (GpuNode::alive): between a
/// crash being injected and the watchdog noticing, a node is !alive yet
/// still kHealthy — requests placed in that window fail via their deadline.
enum class NodeHealth {
  kHealthy = 0,
  kDraining,  // administratively draining: finishes in-flight, takes no new
  kDead,      // watchdog-declared failed; in-flight work was redispatched
};

}  // namespace pagoda::fault
