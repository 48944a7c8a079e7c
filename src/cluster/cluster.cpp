#include "cluster/cluster.h"

#include "common/check.h"

namespace pagoda::cluster {

GpuNode::GpuNode(sim::Simulation& sim, const NodeConfig& cfg)
    : cfg_(cfg),
      session_(sim,
               [&] {
                 engine::SessionConfig sc;
                 sc.spec = cfg.spec;
                 sc.pcie = cfg.pcie;
                 sc.host = cfg.host;
                 sc.pagoda_runtime = true;
                 sc.pagoda = cfg.pagoda;
                 return sc;
               }()),
      h2d_(session_.device()),
      d2h_(session_.device()) {}

fault::NodeSig GpuNode::live_sig() const {
  const runtime::MasterKernel& mk = session_.rt().master_kernel();
  pcie::PcieBus& bus = session_.pcie();
  return {mk.heartbeats(), mk.tasks_completed(),
          bus.link(pcie::Direction::HostToDevice).transfers_completed() +
              bus.link(pcie::Direction::DeviceToHost).transfers_completed()};
}

void GpuNode::cache_insert(std::uint64_t key) {
  if (cfg_.cache_keys <= 0) return;
  if (const auto it = resident_index_.find(key);
      it != resident_index_.end()) {
    // Re-inserting resident data is a use: promote to most-recently-used.
    resident_lru_.splice(resident_lru_.end(), resident_lru_, it->second);
    return;
  }
  if (static_cast<int>(resident_lru_.size()) >= cfg_.cache_keys) {
    resident_index_.erase(resident_lru_.front());
    resident_lru_.pop_front();
  }
  resident_lru_.push_back(key);
  resident_index_.emplace(key, std::prev(resident_lru_.end()));
}

void GpuNode::cache_touch(std::uint64_t key) {
  if (const auto it = resident_index_.find(key);
      it != resident_index_.end()) {
    resident_lru_.splice(resident_lru_.end(), resident_lru_, it->second);
  }
}

void GpuNode::cache_clear() {
  resident_lru_.clear();
  resident_index_.clear();
}

Cluster::Cluster(sim::Simulation& sim, const std::vector<NodeConfig>& nodes)
    : sim_(&sim) {
  PAGODA_CHECK_MSG(!nodes.empty(), "a cluster needs at least one GPU");
  nodes_.reserve(nodes.size());
  for (const NodeConfig& node : nodes) {
    nodes_.push_back(std::make_unique<GpuNode>(sim, node));
  }
}

void Cluster::start() {
  for (auto& n : nodes_) n->session().start();
}

void Cluster::shutdown() {
  for (auto& n : nodes_) n->session().shutdown();
}

double Cluster::executor_busy_warp_seconds() const {
  double total = 0.0;
  for (const auto& n : nodes_) {
    total += n->rt().master_kernel().executor_busy_warp_seconds();
  }
  return total;
}

std::vector<NodeConfig> Cluster::homogeneous(int n, NodeConfig proto) {
  PAGODA_CHECK(n >= 1);
  return std::vector<NodeConfig>(static_cast<std::size_t>(n), proto);
}

}  // namespace pagoda::cluster
