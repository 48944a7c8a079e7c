// engine::ResultBuilder — uniform RunResult assembly.
//
// Drivers record per-task start/end marks while the simulation runs, then
// hand the builder their completion state; assemble() derives latencies,
// emits the collector task spans and finalizes the collector — the ~40 lines
// every pre-port driver duplicated. The assembly order is fixed (wire-busy,
// occupancy, latencies, spans, collector finish) and matches the original
// drivers, so observed runs stay byte-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "engine/run_result.h"
#include "engine/session.h"

namespace pagoda::engine {

class ResultBuilder {
 public:
  /// `num_tasks` sizes the per-task mark arrays (0 for drivers that supply
  /// latencies wholesale, like the cluster dispatcher).
  explicit ResultBuilder(int num_tasks);

  // --- during the run ----------------------------------------------------
  void mark_start(int idx, sim::Time t) {
    starts_[static_cast<std::size_t>(idx)] = t;
  }
  void mark_end(int idx, sim::Time t) {
    ends_[static_cast<std::size_t>(idx)] = t;
  }
  sim::Time start_of(int idx) const {
    return starts_[static_cast<std::size_t>(idx)];
  }
  sim::Time end_of(int idx) const {
    return ends_[static_cast<std::size_t>(idx)];
  }

  // --- after the run -----------------------------------------------------
  /// Completion state: whether the driver finished before the time cap, and
  /// its recorded end time.
  void complete(bool done, sim::Time end_time);

  /// Accumulates both PCIe wire-busy integrals from a device (call once per
  /// device; cluster drivers call it per node).
  void wires_from(gpu::Device& dev);

  /// Occupancy sources — call exactly one.
  /// Whole-device resident-warp occupancy (HyperQ, Fusion).
  void occupancy_device(gpu::Device& dev);
  /// Pagoda executor-warp occupancy over [0, end_time].
  void occupancy_executors(runtime::Runtime& rt, const gpu::GpuSpec& spec);
  /// Precomputed busy-warp integral (GeMTC's in-driver accounting, cluster
  /// fleet sums): busy warp-seconds over end_time * warp_capacity.
  void occupancy_integral(double busy_warp_seconds, double warp_capacity);

  /// Every task shares one interval (static fusion: a task's result is only
  /// available when the whole fused kernel retires). Emits a single span.
  void uniform_interval(sim::Time start, sim::Time end);

  /// Wholesale latencies (cluster dispatcher) — replaces the mark arrays.
  void set_latencies(std::vector<double> latency_us);
  /// Extra span emitted ahead of the per-task marks (cluster request spans).
  void add_span(sim::Time start, sim::Time end);

  /// Overrides RunResult::tasks (default: the mark-array size).
  void set_tasks(std::int64_t tasks);

  /// Assembles the RunResult: latencies (when collected), collector task
  /// spans and Collector::finish. Call once, after the marks are final and
  /// before the Session's Simulation dies.
  RunResult assemble(bool collect_latencies, obs::Collector* collector);

 private:
  std::vector<sim::Time> starts_;
  std::vector<sim::Time> ends_;
  std::vector<std::pair<sim::Time, sim::Time>> extra_spans_;
  std::vector<double> latencies_;
  bool wholesale_latencies_ = false;
  bool uniform_ = false;
  sim::Time uniform_start_ = 0;
  sim::Time uniform_end_ = 0;
  std::int64_t tasks_override_ = -1;
  sim::Time end_time_ = 0;
  RunResult res_;
};

}  // namespace pagoda::engine
