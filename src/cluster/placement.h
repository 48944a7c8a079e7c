// Pluggable placement policies: given the cluster's current load, pick the
// GPU a request runs on. Decisions happen at admission time (arrival order),
// are purely functions of simulation state, and therefore replay
// byte-identically for a fixed seed — the policy-determinism test pins this.
//
//   round-robin        — rotate over nodes, blind to load. The baseline.
//   least-outstanding  — fewest placed-but-unfinished requests; ties break
//                        to the lowest node index.
//   least-loaded       — occupancy-aware: executor-warp busy fraction plus
//                        outstanding work normalized by the node's executor
//                        capacity (so a Tesla K40 absorbs proportionally
//                        less than a Titan X). Reads the same passive
//                        MasterKernel signals the obs::Collector samples.
//   data-affinity      — route keyed requests to the node already holding
//                        their input (else a stable home node), avoiding
//                        redundant H2D copies; falls back to
//                        least-outstanding when the target saturates or the
//                        request is unkeyed.
//   power-cap          — least-loaded, but refuses admission outright (-1,
//                        a deterministic drop) while instantaneous fleet
//                        power sits at/above the configured watt budget:
//                        admission backpressure as the cap enforcement of
//                        last resort. Uncapped (or with the power plane
//                        off) it behaves exactly like least-loaded.
//   energy-min         — pack onto the fewest awake nodes: lowest-index
//                        eligible node with TaskTable headroom wins, so the
//                        governor can drain + sleep the idle tail of the
//                        fleet. Reduces to lowest-index packing when the
//                        power plane is off.
//   vres-aware         — virtual-resource headroom: maximize virtual slot
//                        headroom (floor(oversub x TaskTable) minus
//                        outstanding), so oversubscribed nodes absorb extra
//                        work past their physical tables. Reduces to
//                        least-outstanding headroom at oversub == 1.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "cluster/cluster.h"
#include "cluster/request.h"

namespace pagoda::cluster {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string_view name() const = 0;
  /// Node index for this request, or -1 when no eligible (healthy) node
  /// exists — the dispatcher then drops/sheds. Must not mutate the cluster.
  virtual int pick(const Cluster& cluster, const Request& r) = 0;
  /// Fleet-watt budget for power-aware policies (0 = uncapped). The
  /// dispatcher forwards --power-cap-watts here; a no-op for every policy
  /// that doesn't read fleet power.
  virtual void set_power_cap(double) {}
};

/// Factory by policy name; nullptr for an unknown name.
std::unique_ptr<PlacementPolicy> make_policy(std::string_view name);

/// Every valid `make_policy` name (for CLI help and sweeps).
std::span<const std::string_view> all_policy_names();

/// One line on how policy `name` places requests; empty for an unknown name.
std::string_view policy_description(std::string_view name);

}  // namespace pagoda::cluster
