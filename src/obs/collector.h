// The Collector ties the metrics registry and the timeline to a running
// simulation: drivers attach the structures they own (Device, Pagoda
// Runtime, CpuCluster) and the Collector installs read-only observers plus a
// periodic sampler process that rides the virtual clock. That tick is the
// only sampling path: nothing samples between ticks, power transitions
// included, so every sampled series has one value per tick.
//
// Invariants the whole observability layer depends on:
//  * Sampling is PASSIVE. The sampler event and every observer only read
//    simulation state; they never signal, allocate simulated resources or
//    advance any process. A run with a Collector attached is event-for-event
//    identical to the same run without one.
//  * Everything recorded derives from virtual time, so two identically
//    seeded runs produce byte-identical snapshots (the determinism test
//    pins this).
//
// Multi-GPU runs attach each device/runtime pair with a distinct name
// prefix ("dev00." ...): per-device series and counters keep their usual
// names under that prefix, so one registry snapshot covers a whole cluster.
// The empty prefix is the single-GPU spelling and keeps the historical
// metric names unchanged.
//
// Lifecycle: construct -> attach_*() while the drivers build their run state
// -> (simulation runs; sampler ticks) -> finish(end_time, tasks) BEFORE the
// Simulation is destroyed. A Collector serves exactly one run.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace_span.h"
#include "pagoda/trace.h"
#include "sim/simulation.h"

namespace pagoda::gpu {
class Device;
}
namespace pagoda::host {
class CpuCluster;
}
namespace pagoda::runtime {
class Runtime;
}

namespace pagoda::obs {

struct CollectorConfig {
  /// Sampler cadence (virtual time) for occupancy/utilization/queue-depth
  /// series. The sampler stops by itself when the event queue drains.
  sim::Duration sample_period = sim::microseconds(20.0);
  /// Record spans + counter tracks for a Chrome/Perfetto profile.
  bool timeline = false;
  /// Record the Pagoda protocol event trace (implied by `timeline` for
  /// Pagoda runs; also used standalone by `pagoda_cli --trace`).
  bool trace = false;
  /// Record per-request causal span trees (cluster runs only; armed by
  /// `pagoda_cli --trace-spans`). Costs nothing when off: the dispatcher
  /// never sees a tracer and every existing output stays byte-identical.
  bool spans = false;
};

class Collector {
 public:
  explicit Collector(CollectorConfig cfg = {});
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }
  bool timeline_enabled() const { return cfg_.timeline; }
  bool trace_enabled() const { return cfg_.trace || cfg_.timeline; }
  bool spans_enabled() const { return cfg_.spans; }
  /// The per-request causal tracer armed by `spans`. The cluster driver
  /// hands it to the Dispatcher; finish() folds it into the timeline when
  /// both are enabled.
  RequestTracer& request_tracer() { return tracer_; }
  const RequestTracer& request_tracer() const { return tracer_; }
  /// The Pagoda protocol trace recorded when trace_enabled(). Valid for the
  /// Collector's lifetime. Only the default-prefix ("") runtime feeds it —
  /// TaskIds from different devices would collide in one recorder.
  const runtime::TraceRecorder& trace() const { return trace_; }

  // --- driver hooks --------------------------------------------------------
  /// Installs SMM/PCIe/dispatcher samplers and observers for one device.
  /// Call before the workload starts (time 0); once per (device, prefix).
  /// Metric and track names gain `prefix` verbatim ("" for single-GPU runs,
  /// "dev00." etc. for cluster nodes).
  void attach_device(gpu::Device& dev, std::string prefix = "");

  /// Adds TaskTable / MasterKernel / shmem sampling for one runtime, under
  /// `prefix`; wires the protocol trace recorder into the runtime when
  /// tracing is on (default prefix only).
  void attach_pagoda(runtime::Runtime& rt, std::string prefix = "");

  /// CPU-pool sampling for the host-only baselines.
  void attach_cpu(sim::Simulation& sim, const host::CpuCluster& cpu);

  /// Extension hook: `fn(now)` runs on every sampler tick, after the
  /// built-in samplers. Must observe only (the passivity invariant applies).
  /// Higher layers (the cluster dispatcher) record their own series here
  /// without obs depending on them.
  void add_sampler(sim::Simulation& sim, std::function<void(sim::Time)> fn);

  /// One executed task interval on the generic "tasks" track (timeline
  /// only). Ignores incomplete intervals (start or end unset).
  void task_span(sim::Time start, sim::Time end);

  /// Finalizes the run: stops the sampler, snapshots the end-of-run gauges
  /// and counters and converts the protocol trace into timeline spans. Must
  /// run before the attached Simulation is destroyed; `end_time` is the
  /// driver's recorded completion time (virtual).
  void finish(sim::Time end_time, std::int64_t tasks);
  bool finished() const { return finished_; }

 private:
  struct DeviceSlot {
    gpu::Device* dev = nullptr;
    std::string prefix;
    // Windowed-delta state for rate series.
    std::vector<double> prev_smm_busy;  // busy_work_seconds per SMM
    // Per SMM: its resident_warps and issue_utilization stats, looked up at
    // the first sample (map nodes stay put unless metrics_ is cleared).
    std::vector<std::array<Stat*, 2>> smm_stats;
    std::int64_t prev_h2d_bytes = 0;
    std::int64_t prev_d2h_bytes = 0;
    // Interned timeline handles (valid when timeline_enabled()).
    Timeline::TrackId track_h2d = 0;
    Timeline::TrackId track_d2h = 0;
    Timeline::TrackId track_grids = 0;
  };
  struct RuntimeSlot {
    runtime::Runtime* rt = nullptr;
    std::string prefix;
  };

  void ensure_sampler(sim::Simulation& sim);
  void schedule_tick();
  void tick();
  void sample_device(DeviceSlot& slot, sim::Time now, double window);
  void sample_runtime(RuntimeSlot& slot, sim::Time now);
  void finish_device(DeviceSlot& slot, double elapsed, sim::Time end_time);
  void finish_runtime(RuntimeSlot& slot, double elapsed);
  const RuntimeSlot* runtime_for_prefix(const std::string& prefix) const;
  std::string key(const std::string& prefix, const char* name) const {
    return prefix + name;
  }

  CollectorConfig cfg_;
  MetricsRegistry metrics_;
  Timeline timeline_;
  runtime::TraceRecorder trace_;
  RequestTracer tracer_;

  sim::Simulation* sim_ = nullptr;
  std::vector<DeviceSlot> devices_;
  std::vector<RuntimeSlot> runtimes_;
  const host::CpuCluster* cpu_ = nullptr;
  std::vector<std::function<void(sim::Time)>> extra_samplers_;

  sim::EventId tick_event_ = 0;
  bool finished_ = false;

  Timeline::TrackId track_tasks_ = 0;
};

}  // namespace pagoda::obs
