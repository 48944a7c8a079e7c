// Multi-GPU cluster: N simulated devices — possibly heterogeneous — each
// with its own PCIe link, MasterKernel and Pagoda runtime, all driven by ONE
// Simulation so cross-device timing stays globally ordered and deterministic.
//
// A GpuNode is the dispatcher's unit of placement. Besides the device and
// runtime it carries:
//  * dedicated H2D/D2H data streams (task inputs/outputs never contend with
//    the runtime's TaskTable stream for issue order, only for wire time);
//  * load counters the placement policies read (outstanding request count,
//    outstanding service demand, executor-warp busy fraction — the same
//    passive signals the obs::Collector samplers record);
//  * a bounded LRU cache of resident data keys, the substrate for the
//    data-affinity policy (a hit skips the request's H2D input copy).
//
// The Cluster owns the nodes and nothing else: arrival processes, placement
// and SLO accounting live in dispatcher.h / traffic.h / placement.h.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/session.h"
#include "fault/fault.h"
#include "fault/watchdog.h"
#include "gpu/device.h"
#include "gpu/stream.h"
#include "host/host_api.h"
#include "pagoda/master_kernel.h"
#include "pagoda/runtime.h"
#include "pcie/pcie_bus.h"
#include "power/power_model.h"
#include "sim/simulation.h"

namespace pagoda::cluster {

/// Per-device configuration. Each node gets its own PCIe link (its own
/// slot), so a copy bound on one device never steals wire time from another.
struct NodeConfig {
  gpu::GpuSpec spec = gpu::GpuSpec::titan_x();
  pcie::PcieConfig pcie{};
  host::HostCosts host{};
  runtime::PagodaConfig pagoda{};
  /// Data keys the node can hold resident (LRU eviction); 0 disables the
  /// affinity cache entirely.
  int cache_keys = 64;
};

class GpuNode {
 public:
  GpuNode(sim::Simulation& sim, const NodeConfig& cfg);
  GpuNode(const GpuNode&) = delete;
  GpuNode& operator=(const GpuNode&) = delete;

  /// The node's engine session (shares the cluster-wide Simulation). The
  /// cluster driver attaches observability through it, per node prefix.
  engine::Session& session() { return session_; }
  gpu::Device& device() { return session_.device(); }
  runtime::Runtime& rt() { return session_.rt(); }
  gpu::Stream& h2d_stream() { return h2d_; }
  gpu::Stream& d2h_stream() { return d2h_; }

  // --- load signals for placement policies ------------------------------
  /// Requests placed on this node and not yet finalized (queued for a
  /// TaskTable slot, copying, executing, or draining their output copy).
  int outstanding() const { return outstanding_; }
  /// TaskTable entries on this device — the node's physical admission
  /// capacity. Routed through the runtime's capacity accessor: layers above
  /// src/pagoda never read the table structure directly.
  int capacity() const { return session_.rt().table_capacity(); }
  /// Admission capacity the dispatcher is allowed to oversubscribe: virtual
  /// TaskTable slots = floor(oversub x physical entries). Equals capacity()
  /// at oversub == 1, so un-virtualized runs are untouched.
  int virtual_capacity() const {
    return static_cast<int>(static_cast<double>(capacity()) *
                            session_.rt().config().oversub);
  }
  /// Executor warps across all MTBs (relative device muscle; a Tesla K40
  /// node has fewer than a Titan X node).
  int executor_warp_capacity() const {
    return session_.rt().master_kernel().num_mtbs() *
           runtime::MasterKernel::kExecutorWarps;
  }
  /// Fraction of executor warps currently running task work — the same
  /// passive read the obs sampler records as `pagoda.executors.busy`.
  double busy_executor_fraction() const {
    return static_cast<double>(
               session_.rt().master_kernel().busy_executor_warps()) /
           static_cast<double>(executor_warp_capacity());
  }

  /// Sum of the service-demand estimates (Request::cost) of outstanding
  /// requests — the work-aware companion to outstanding().
  double outstanding_work() const { return outstanding_work_; }

  // --- dispatcher bookkeeping -------------------------------------------
  void add_outstanding(double cost) {
    outstanding_ += 1;
    outstanding_work_ += cost;
  }
  void remove_outstanding(double cost) {
    outstanding_ -= 1;
    outstanding_work_ -= cost;
    completed_ += 1;
  }
  /// Un-counts an attempt that failed (fault/timeout/crash) without
  /// recording a completion — load signals shrink, completed() does not grow.
  void abandon_outstanding(double cost) {
    outstanding_ -= 1;
    outstanding_work_ -= cost;
  }
  std::int64_t completed() const { return completed_; }

  // --- fault plane ------------------------------------------------------
  /// Injection-side ground truth: false once a crash fault fired. A dead
  /// device keeps simulating internally (the MasterKernel is unreachable,
  /// not paused) but nothing it produces reaches the host — the dispatcher
  /// swallows its completions until the watchdog notices and recovery runs.
  bool alive() const { return alive_; }
  void set_alive(bool v) {
    if (!v && alive_) {
      // Crash: snapshot the host-visible liveness signature. The device
      // keeps simulating, but the host's reads of its counters freeze here
      // — exactly the flatline the watchdog detects.
      frozen_sig_ = live_sig();
    }
    alive_ = v;
  }

  /// Detection-side view maintained by the dispatcher (watchdog verdicts +
  /// administrative drain). Placement only uses this: between crash and
  /// detection a node still *looks* healthy and keeps receiving requests,
  /// which then fail via their task deadline — exactly the real-world gap.
  fault::NodeHealth health() const { return health_; }
  void set_health(fault::NodeHealth h) { health_ = h; }
  /// Whether placement may target this node.
  bool eligible() const { return health_ == fault::NodeHealth::kHealthy; }

  /// Liveness signature for the watchdog (pure host-side reads; frozen at
  /// the crash instant while the node is down).
  fault::NodeSig liveness() const { return alive_ ? live_sig() : frozen_sig_; }
  /// Its MasterKernel heartbeat term (the sampler's per-node signal).
  std::int64_t heartbeat() const { return liveness().heartbeat; }

  // --- power plane (attached by the dispatcher when --power is set) ------
  /// The node's power model; nullptr when the power plane is off. All state
  /// transitions go through src/power (the governor) — everything here and
  /// in placement only READS watts/energy/residency and wake latencies.
  power::NodePower* power() { return power_.get(); }
  const power::NodePower* power() const { return power_.get(); }
  void attach_power(std::unique_ptr<power::NodePower> p) {
    power_ = std::move(p);
  }

  // --- data-affinity cache ----------------------------------------------
  /// Whether `key` is resident. Pure read (placement probes every node per
  /// request; observation must not mutate recency).
  bool cache_contains(std::uint64_t key) const {
    return resident_index_.count(key) > 0;
  }
  /// Marks `key` resident; when full, evicts the least-recently-used key in
  /// O(1) via the intrusive list index. Inserting a resident key promotes
  /// it to most-recently-used. No-op when the cache is disabled.
  void cache_insert(std::uint64_t key);
  /// Promotes a resident key to most-recently-used (called on a read hit).
  /// No-op when absent.
  void cache_touch(std::uint64_t key);
  /// Drops every resident key (node-death recovery: the data died with it).
  void cache_clear();

 private:
  fault::NodeSig live_sig() const;

  NodeConfig cfg_;
  engine::Session session_;
  gpu::Stream h2d_;  // the node's dedicated data streams
  gpu::Stream d2h_;
  std::unique_ptr<power::NodePower> power_;  // nullptr = power plane off
  bool alive_ = true;
  fault::NodeHealth health_ = fault::NodeHealth::kHealthy;
  fault::NodeSig frozen_sig_;  // liveness() at the crash instant
  int outstanding_ = 0;
  double outstanding_work_ = 0.0;
  std::int64_t completed_ = 0;
  /// LRU order, front = least recently used; resident_index_ holds each
  /// key's list position so promotion and eviction are O(1) splices.
  std::list<std::uint64_t> resident_lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      resident_index_;
};

class Cluster {
 public:
  Cluster(sim::Simulation& sim, const std::vector<NodeConfig>& nodes);

  /// Launches every node's MasterKernel / terminates them all.
  void start();
  void shutdown();

  sim::Simulation& sim() { return *sim_; }
  const sim::Simulation& sim() const { return *sim_; }
  int size() const { return static_cast<int>(nodes_.size()); }
  GpuNode& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  const GpuNode& node(int i) const {
    return *nodes_[static_cast<std::size_t>(i)];
  }

  /// Sum of per-node executor-warp busy integrals (warp·seconds); cluster
  /// occupancy is this / (elapsed · Σ executor capacity).
  double executor_busy_warp_seconds() const;

  /// n identical nodes (the homogeneous scaling-sweep configuration).
  static std::vector<NodeConfig> homogeneous(int n, NodeConfig proto = {});

 private:
  sim::Simulation* sim_;
  std::vector<std::unique_ptr<GpuNode>> nodes_;
};

}  // namespace pagoda::cluster
