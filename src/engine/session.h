// engine::Session — the one construction path for a simulated run.
//
// Every execution scheme in the reproduction needs the same bring-up:
// a Simulation (the virtual clock), usually a Device on it, optionally the
// Pagoda Runtime on the device, optionally a host CPU pool, and — when the
// run is observed — the obs::Collector attachments, in a fixed order.
// Before this layer existed each driver in src/baselines re-implemented that
// lifecycle by hand (and src/cluster a third way); a Session owns it once.
//
// Construction order is part of the determinism contract: the Session builds
// Device -> Runtime -> CpuCluster and attaches the collector as
// device, then runtime, then cpu — the order the original drivers used — so
// a ported driver schedules byte-for-byte the same event sequence.
//
// Two ownership modes:
//  * Session(cfg)        — owns its Simulation (single-device drivers).
//  * Session(sim, cfg)   — shares an external Simulation (cluster GpuNodes,
//    examples that co-schedule several sessions on one clock).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "gpu/device.h"
#include "gpu/gpu_spec.h"
#include "host/host_api.h"
#include "pagoda/runtime.h"
#include "pcie/pcie_bus.h"
#include "sim/simulation.h"

namespace pagoda::obs {
class Collector;
}

namespace pagoda::engine {

struct SessionConfig {
  gpu::GpuSpec spec = gpu::GpuSpec::titan_x();
  pcie::PcieConfig pcie{};
  host::HostCosts host{};
  /// Build a gpu::Device. Off for CPU-only or clock-only sessions.
  bool device = true;
  /// Build the Pagoda runtime::Runtime on the device (implies device).
  bool pagoda_runtime = false;
  /// Runtime configuration; PagodaConfig::mode carries the ExecMode.
  runtime::PagodaConfig pagoda{};
  /// Build a host::CpuCluster with this many cores (0 = none).
  int cpu_cores = 0;
  /// When set, the constructor attaches everything it builds, unprefixed
  /// (see attach_collector). Multi-session drivers leave this null and
  /// attach later, at the point their pre-port code did.
  obs::Collector* collector = nullptr;
};

class Session {
 public:
  explicit Session(const SessionConfig& cfg);
  Session(sim::Simulation& sim, const SessionConfig& cfg);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  sim::Simulation& sim() { return *sim_; }
  const SessionConfig& config() const { return cfg_; }

  // Accessors are const-qualified but hand out mutable references, like
  // unique_ptr: constness of the Session means "the component set is fixed",
  // not "the components are immutable".
  bool has_device() const { return dev_ != nullptr; }
  gpu::Device& device() const;
  runtime::Runtime& rt() const;
  /// The device's PCIe bus (requires a device); used by the fault layer to
  /// arm per-node transfer-fault hooks and bandwidth-degradation windows.
  pcie::PcieBus& pcie() const { return device().pcie(); }
  host::CpuCluster& cpu() const;

  /// Attaches whatever this session built to `c` (device, then runtime,
  /// then cpu — the canonical order), naming metrics and tracks with
  /// `prefix` ("" single device, "dev00." cluster nodes). Called by the
  /// constructor when the config carries a collector; callable exactly once
  /// per session.
  void attach_collector(obs::Collector& c, const std::string& prefix = "");

  /// Launches the Pagoda MasterKernel (no-op without a runtime).
  void start();
  /// Terminates the MasterKernel; idempotent, implied by destruction.
  void shutdown();

  /// Runs the virtual clock up to `cap` and returns it.
  sim::Simulation& run_until(sim::Duration cap) {
    sim_->run_until(cap);
    return *sim_;
  }

 private:
  void build(const SessionConfig& cfg);

  SessionConfig cfg_;
  std::unique_ptr<sim::Simulation> owned_sim_;
  sim::Simulation* sim_ = nullptr;
  std::unique_ptr<gpu::Device> dev_;
  std::unique_ptr<runtime::Runtime> rt_;
  std::unique_ptr<host::CpuCluster> cpu_;
  obs::Collector* collector_ = nullptr;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace pagoda::engine
