#include "cluster/placement.h"

#include <array>

#include "common/rng.h"

namespace pagoda::cluster {
namespace {

/// Lowest-index *eligible* node minimizing outstanding requests; -1 when the
/// whole fleet is dead/draining. With every node healthy (the fault-free
/// case) this reduces exactly to the original scan from node 0.
int least_outstanding_node(const Cluster& cluster) {
  int best = -1;
  for (int i = 0; i < cluster.size(); ++i) {
    if (!cluster.node(i).eligible()) continue;
    if (best < 0 ||
        cluster.node(i).outstanding() < cluster.node(best).outstanding()) {
      best = i;
    }
  }
  return best;
}

class RoundRobin final : public PlacementPolicy {
 public:
  std::string_view name() const override { return "round-robin"; }
  int pick(const Cluster& cluster, const Request&) override {
    // Skip ineligible nodes, at most one full rotation. The cursor advances
    // once per probe so a fault-free pick is byte-identical to the original.
    for (int probes = 0; probes < cluster.size(); ++probes) {
      const int n = next_++ % cluster.size();
      if (cluster.node(n).eligible()) return n;
    }
    return -1;
  }

 private:
  int next_ = 0;
};

class LeastOutstanding final : public PlacementPolicy {
 public:
  std::string_view name() const override { return "least-outstanding"; }
  int pick(const Cluster& cluster, const Request&) override {
    return least_outstanding_node(cluster);
  }
};

/// Current executor occupancy plus outstanding service demand per unit of
/// executor capacity. Demand uses the requests' cost estimates, not their
/// count: under a skewed workload a node stuck behind one 100x-wide
/// request scores far above a peer holding the same number of small ones,
/// which a pure count (least-outstanding) cannot see.
double loaded_score(const GpuNode& node) {
  return node.busy_executor_fraction() +
         node.outstanding_work() /
             static_cast<double>(node.executor_warp_capacity());
}

/// Lowest-index eligible node minimizing loaded_score; -1 when none.
int least_loaded_node(const Cluster& cluster) {
  int best = -1;
  double best_score = 0.0;
  for (int i = 0; i < cluster.size(); ++i) {
    if (!cluster.node(i).eligible()) continue;
    const double s = loaded_score(cluster.node(i));
    if (best < 0 || s < best_score) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

class LeastLoaded final : public PlacementPolicy {
 public:
  std::string_view name() const override { return "least-loaded"; }
  int pick(const Cluster& cluster, const Request&) override {
    return least_loaded_node(cluster);
  }
};

class DataAffinity final : public PlacementPolicy {
 public:
  std::string_view name() const override { return "data-affinity"; }
  int pick(const Cluster& cluster, const Request& r) override {
    if (r.data_key == 0) return least_outstanding_node(cluster);
    // A node already holding the data wins outright (no copy at all).
    for (int i = 0; i < cluster.size(); ++i) {
      if (cluster.node(i).eligible() &&
          cluster.node(i).cache_contains(r.data_key)) {
        return i;
      }
    }
    // Cold key: a stable home node, so future requests for the same key hit.
    const int home =
        static_cast<int>(hash_index(0xAFF1D17AULL, r.data_key) %
                         static_cast<std::uint64_t>(cluster.size()));
    // Saturated or unhealthy home: spill to the least-outstanding node
    // rather than queue behind a full TaskTable or target a dead device (the
    // spill target caches the key, so the key's home effectively migrates).
    if (!cluster.node(home).eligible() ||
        cluster.node(home).outstanding() >= cluster.node(home).capacity()) {
      return least_outstanding_node(cluster);
    }
    return home;
  }
};

class PowerCapPolicy final : public PlacementPolicy {
 public:
  std::string_view name() const override { return "power-cap"; }
  void set_power_cap(double watts) override { cap_watts_ = watts; }
  int pick(const Cluster& cluster, const Request&) override {
    // Admission backpressure: while instantaneous fleet power sits at or
    // above the budget, refuse the request outright (a deterministic drop)
    // rather than add load the cap cannot absorb. Pure read — watts() is
    // an extrapolating accessor, so probing never perturbs the run.
    if (cap_watts_ > 0.0) {
      const sim::Time now = cluster.sim().now();
      double fleet_watts = 0.0;
      bool metered = false;
      for (int i = 0; i < cluster.size(); ++i) {
        if (const power::NodePower* np = cluster.node(i).power()) {
          fleet_watts += np->watts(now);
          metered = true;
        }
      }
      if (metered && fleet_watts >= cap_watts_) return -1;
    }
    return least_loaded_node(cluster);
  }

 private:
  double cap_watts_ = 0.0;  // 0 = uncapped: behaves like least-loaded
};

class EnergyMin final : public PlacementPolicy {
 public:
  std::string_view name() const override { return "energy-min"; }
  int pick(const Cluster& cluster, const Request&) override {
    // Pack onto the fewest awake nodes: the lowest-index eligible node with
    // TaskTable headroom wins, leaving the fleet's tail idle so the
    // governor can drain + sleep it. Sleeping nodes are draining and thus
    // ineligible until the governor reinstates them.
    for (int i = 0; i < cluster.size(); ++i) {
      const GpuNode& node = cluster.node(i);
      if (!node.eligible()) continue;
      if (node.outstanding() < node.capacity()) return i;
    }
    // Every eligible node is saturated: queue on the least backed-up one.
    return least_outstanding_node(cluster);
  }
};

class VresAware final : public PlacementPolicy {
 public:
  std::string_view name() const override { return "vres-aware"; }
  int pick(const Cluster& cluster, const Request&) override {
    // Maximum virtual slot headroom. Headroom is measured against VIRTUAL
    // capacity (floor(oversub x TaskTable)), so an oversubscribed node keeps
    // absorbing work past its physical table. At oversub == 1 this reduces
    // to least-outstanding headroom (ties to the lowest index, like every
    // other scan here).
    int best = -1;
    int best_headroom = 0;
    for (int i = 0; i < cluster.size(); ++i) {
      const GpuNode& node = cluster.node(i);
      if (!node.eligible()) continue;
      const int headroom = node.virtual_capacity() - node.outstanding();
      if (best < 0 || headroom > best_headroom) {
        best = i;
        best_headroom = headroom;
      }
    }
    return best;
  }
};

constexpr std::array<std::string_view, 7> kPolicyNames = {
    "round-robin", "least-outstanding", "least-loaded",
    "data-affinity", "power-cap",        "energy-min",
    "vres-aware"};

}  // namespace

std::unique_ptr<PlacementPolicy> make_policy(std::string_view name) {
  if (name == "round-robin") return std::make_unique<RoundRobin>();
  if (name == "least-outstanding") return std::make_unique<LeastOutstanding>();
  if (name == "least-loaded") return std::make_unique<LeastLoaded>();
  if (name == "data-affinity") return std::make_unique<DataAffinity>();
  if (name == "power-cap") return std::make_unique<PowerCapPolicy>();
  if (name == "energy-min") return std::make_unique<EnergyMin>();
  if (name == "vres-aware") return std::make_unique<VresAware>();
  return nullptr;
}

std::span<const std::string_view> all_policy_names() { return kPolicyNames; }

}  // namespace pagoda::cluster
