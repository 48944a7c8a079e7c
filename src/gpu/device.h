// The modeled GPU: SMMs, PCIe endpoints and the native threadblock
// dispatcher, all driven by one Simulation.
#pragma once

#include <memory>
#include <vector>

#include "gpu/block_scheduler.h"
#include "gpu/gpu_spec.h"
#include "gpu/smm.h"
#include "pcie/pcie_bus.h"
#include "sim/simulation.h"

namespace pagoda::gpu {

class Device {
 public:
  Device(sim::Simulation& sim, GpuSpec spec,
         pcie::PcieConfig pcie_cfg = pcie::PcieConfig{})
      : sim_(&sim),
        spec_(spec),
        bus_(sim, pcie_cfg),
        dispatcher_(sim, spec) {
    smms_.reserve(static_cast<std::size_t>(spec_.num_smms));
    for (int i = 0; i < spec_.num_smms; ++i) {
      smms_.push_back(std::make_unique<Smm>(sim, spec_));
    }
    dispatcher_.attach(smms_);
  }
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  sim::Simulation& sim() { return *sim_; }
  const GpuSpec& spec() const { return spec_; }
  Smm& smm(int i) { return *smms_[static_cast<std::size_t>(i)]; }
  int num_smms() const { return spec_.num_smms; }
  pcie::PcieBus& pcie() { return bus_; }
  BlockDispatcher& dispatcher() { return dispatcher_; }

  /// Achieved occupancy over [0, now]: time-averaged resident warps divided
  /// by the device's warp capacity.
  double achieved_occupancy() {
    double resident_seconds = 0.0;
    for (auto& s : smms_) {
      s->touch_occupancy(sim_->now());
      resident_seconds += s->resident_warp_seconds();
    }
    const double elapsed = sim::to_seconds(sim_->now());
    if (elapsed <= 0.0) return 0.0;
    return resident_seconds /
           (elapsed * static_cast<double>(spec_.max_resident_warps()));
  }

 private:
  sim::Simulation* sim_;
  GpuSpec spec_;
  std::vector<std::unique_ptr<Smm>> smms_;
  pcie::PcieBus bus_;
  BlockDispatcher dispatcher_;
};

}  // namespace pagoda::gpu
