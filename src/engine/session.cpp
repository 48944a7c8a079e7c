#include "engine/session.h"

#include "common/check.h"
#include "obs/collector.h"

namespace pagoda::engine {

Session::Session(const SessionConfig& cfg)
    : cfg_(cfg), owned_sim_(std::make_unique<sim::Simulation>()) {
  sim_ = owned_sim_.get();
  build(cfg);
}

Session::Session(sim::Simulation& sim, const SessionConfig& cfg)
    : cfg_(cfg), sim_(&sim) {
  build(cfg);
}

Session::~Session() { shutdown(); }

void Session::build(const SessionConfig& cfg) {
  if (cfg.device || cfg.pagoda_runtime) {
    dev_ = std::make_unique<gpu::Device>(*sim_, cfg.spec, cfg.pcie);
  }
  if (cfg.pagoda_runtime) {
    rt_ = std::make_unique<runtime::Runtime>(*dev_, cfg.host, cfg.pagoda);
  }
  if (cfg.cpu_cores > 0) {
    cpu_ = std::make_unique<host::CpuCluster>(*sim_, cfg.cpu_cores,
                                              host::kCoreOpsPerSec);
  }
  if (cfg.collector != nullptr) attach_collector(*cfg.collector);
}

gpu::Device& Session::device() const {
  PAGODA_CHECK_MSG(dev_ != nullptr, "session built without a device");
  return *dev_;
}

runtime::Runtime& Session::rt() const {
  PAGODA_CHECK_MSG(rt_ != nullptr, "session built without a Pagoda runtime");
  return *rt_;
}

host::CpuCluster& Session::cpu() const {
  PAGODA_CHECK_MSG(cpu_ != nullptr, "session built without a CPU pool");
  return *cpu_;
}

void Session::attach_collector(obs::Collector& c, const std::string& prefix) {
  PAGODA_CHECK_MSG(collector_ == nullptr,
                   "session already attached to a collector");
  collector_ = &c;
  if (dev_ != nullptr) c.attach_device(*dev_, prefix);
  if (rt_ != nullptr) c.attach_pagoda(*rt_, prefix);
  if (cpu_ != nullptr) c.attach_cpu(*sim_, *cpu_);
}

void Session::start() {
  if (rt_ == nullptr || started_) return;
  started_ = true;
  rt_->start();
}

void Session::shutdown() {
  if (rt_ == nullptr || !started_ || shut_down_) return;
  shut_down_ = true;
  rt_->shutdown();
}

}  // namespace pagoda::engine
