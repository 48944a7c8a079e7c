#include "obs/collector.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "gpu/device.h"
#include "host/host_api.h"
#include "pagoda/runtime.h"

namespace pagoda::obs {

namespace {

std::string smm_key(const std::string& prefix, int index, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "gpu.smm%02d.%s", index, suffix);
  return prefix + buf;
}

/// TaskTable entries by ready state.
struct TableCensus {
  int free = 0;
  int params_copied = 0;
  int scheduling = 0;
  int chained = 0;  // carries a predecessor TaskId (spawn pipeline)
};

TableCensus census(const runtime::TaskTable& table) {
  TableCensus n;
  for (int i = 0; i < table.size(); ++i) {
    const std::int32_t ready = table.status(runtime::kFirstTaskId + i).ready;
    if (ready == runtime::kReadyFree) {
      n.free += 1;
    } else if (ready == runtime::kReadyParamsCopied) {
      n.params_copied += 1;
    } else if (ready == runtime::kReadyScheduling) {
      n.scheduling += 1;
    } else {
      n.chained += 1;
    }
  }
  return n;
}

}  // namespace

Collector::Collector(CollectorConfig cfg) : cfg_(cfg) {
  PAGODA_CHECK(cfg_.sample_period > 0);
}

void Collector::ensure_sampler(sim::Simulation& sim) {
  if (sim_ != nullptr) {
    PAGODA_CHECK_MSG(sim_ == &sim, "Collector attached to two simulations");
    return;
  }
  sim_ = &sim;
  if (cfg_.timeline) track_tasks_ = timeline_.track("tasks");
  schedule_tick();
}

void Collector::schedule_tick() {
  tick_event_ = sim_->after(cfg_.sample_period, [this] { tick(); });
}

void Collector::tick() {
  tick_event_ = 0;
  if (finished_) return;
  // The tick was the last pending event: the run has drained (no process can
  // wake without an event), so stop sampling instead of ticking forever.
  // Skipping the sample keeps every recorded time <= the run's end time.
  if (sim_->pending_events() == 0) return;
  const sim::Time now = sim_->now();
  // Ticks are the only samples, so every rate window is one period long.
  const double window = sim::to_seconds(cfg_.sample_period);
  for (DeviceSlot& slot : devices_) sample_device(slot, now, window);
  for (RuntimeSlot& slot : runtimes_) sample_runtime(slot, now);

  if (cpu_ != nullptr) {
    metrics_.stat("cpu.active_tasks")
        .add(static_cast<double>(cpu_->active_tasks()));
    if (cfg_.timeline) {
      timeline_.counter("cpu.active_tasks", now,
                        static_cast<double>(cpu_->active_tasks()));
    }
  }

  for (const auto& fn : extra_samplers_) fn(now);
  schedule_tick();
}

void Collector::sample_device(DeviceSlot& slot, sim::Time now, double window) {
  gpu::Device& dev = *slot.dev;
  if (slot.smm_stats.empty()) {
    for (int i = 0; i < dev.num_smms(); ++i) {
      slot.smm_stats.push_back(
          {&metrics_.stat(smm_key(slot.prefix, i, "resident_warps")),
           &metrics_.stat(smm_key(slot.prefix, i, "issue_utilization"))});
    }
  }
  int resident_total = 0;
  double util_sum = 0.0;
  for (int i = 0; i < dev.num_smms(); ++i) {
    gpu::Smm& smm = dev.smm(i);
    const auto u = static_cast<std::size_t>(i);
    const int resident = smm.resident_warps();
    resident_total += resident;
    slot.smm_stats[u][0]->add(static_cast<double>(resident));
    const double busy = smm.pipeline().busy_work_seconds();
    const double util =
        (busy - slot.prev_smm_busy[u]) / (smm.pipeline().capacity() * window);
    slot.prev_smm_busy[u] = busy;
    slot.smm_stats[u][1]->add(util);
    util_sum += util;
  }
  const double util_mean = util_sum / static_cast<double>(dev.num_smms());
  metrics_.stat(key(slot.prefix, "gpu.resident_warps"))
      .add(static_cast<double>(resident_total));
  metrics_.stat(key(slot.prefix, "gpu.issue_utilization")).add(util_mean);

  const auto unplaced = dev.dispatcher().unplaced_blocks();
  metrics_.stat(key(slot.prefix, "gpu.launch_queue.unplaced_blocks"))
      .add(static_cast<double>(unplaced));

  sim::Link& h2d = dev.pcie().link(pcie::Direction::HostToDevice);
  sim::Link& d2h = dev.pcie().link(pcie::Direction::DeviceToHost);
  const double h2d_gbps =
      static_cast<double>(h2d.bytes_transferred() - slot.prev_h2d_bytes) /
      window / 1e9;
  const double d2h_gbps =
      static_cast<double>(d2h.bytes_transferred() - slot.prev_d2h_bytes) /
      window / 1e9;
  slot.prev_h2d_bytes = h2d.bytes_transferred();
  slot.prev_d2h_bytes = d2h.bytes_transferred();
  metrics_.stat(key(slot.prefix, "pcie.h2d.gbps")).add(h2d_gbps);
  metrics_.stat(key(slot.prefix, "pcie.d2h.gbps")).add(d2h_gbps);

  if (cfg_.timeline) {
    timeline_.counter(key(slot.prefix, "gpu.resident_warps"), now,
                      static_cast<double>(resident_total));
    timeline_.counter(key(slot.prefix, "gpu.issue_utilization"), now,
                      util_mean);
    timeline_.counter(key(slot.prefix, "gpu.launch_queue.unplaced_blocks"),
                      now, static_cast<double>(unplaced));
    timeline_.counter(key(slot.prefix, "pcie.h2d.gbps"), now, h2d_gbps);
    timeline_.counter(key(slot.prefix, "pcie.d2h.gbps"), now, d2h_gbps);
  }
}

void Collector::sample_runtime(RuntimeSlot& slot, sim::Time now) {
  runtime::Runtime& rt = *slot.rt;
  const TableCensus n = census(rt.gpu_table());
  const int fill = rt.gpu_table().size() - n.free;
  metrics_.stat(key(slot.prefix, "pagoda.tasktable.fill"))
      .add(static_cast<double>(fill));
  metrics_.stat(key(slot.prefix, "pagoda.tasktable.free"))
      .add(static_cast<double>(n.free));
  metrics_.stat(key(slot.prefix, "pagoda.tasktable.params_copied"))
      .add(static_cast<double>(n.params_copied));
  metrics_.stat(key(slot.prefix, "pagoda.tasktable.scheduling"))
      .add(static_cast<double>(n.scheduling));
  metrics_.stat(key(slot.prefix, "pagoda.tasktable.chained"))
      .add(static_cast<double>(n.chained));

  const runtime::MasterKernel& mk = rt.master_kernel();
  metrics_.stat(key(slot.prefix, "pagoda.executors.busy"))
      .add(static_cast<double>(mk.busy_executor_warps()));
  metrics_.stat(key(slot.prefix, "pagoda.shmem.bytes_in_use"))
      .add(static_cast<double>(mk.shmem_bytes_in_use()));

  if (cfg_.timeline) {
    timeline_.counter(key(slot.prefix, "pagoda.tasktable.fill"), now,
                      static_cast<double>(fill));
    timeline_.counter(key(slot.prefix, "pagoda.executors.busy"), now,
                      static_cast<double>(mk.busy_executor_warps()));
    timeline_.counter(key(slot.prefix, "pagoda.shmem.bytes_in_use"), now,
                      static_cast<double>(mk.shmem_bytes_in_use()));
  }
}

void Collector::attach_device(gpu::Device& dev, std::string prefix) {
  for (const DeviceSlot& s : devices_) {
    PAGODA_CHECK_MSG(s.dev != &dev, "device attached twice");
    PAGODA_CHECK_MSG(s.prefix != prefix, "device prefix attached twice");
  }
  ensure_sampler(dev.sim());
  DeviceSlot slot;
  slot.dev = &dev;
  slot.prefix = std::move(prefix);
  slot.prev_smm_busy.assign(static_cast<std::size_t>(dev.num_smms()), 0.0);
  slot.prev_h2d_bytes =
      dev.pcie().link(pcie::Direction::HostToDevice).bytes_transferred();
  slot.prev_d2h_bytes =
      dev.pcie().link(pcie::Direction::DeviceToHost).bytes_transferred();

  if (cfg_.timeline) {
    slot.track_h2d = timeline_.track(key(slot.prefix, "pcie.h2d"));
    slot.track_d2h = timeline_.track(key(slot.prefix, "pcie.d2h"));
    slot.track_grids = timeline_.track(key(slot.prefix, "gpu.grids"));
    const Timeline::TrackId track_h2d = slot.track_h2d;
    const Timeline::TrackId track_d2h = slot.track_d2h;
    const Timeline::TrackId track_grids = slot.track_grids;
    dev.pcie()
        .link(pcie::Direction::HostToDevice)
        .set_observer([this, track_h2d](const sim::Link::TransferRecord& t) {
          timeline_.span(track_h2d, "copy", t.wire_start, t.wire_end);
        });
    dev.pcie()
        .link(pcie::Direction::DeviceToHost)
        .set_observer([this, track_d2h](const sim::Link::TransferRecord& t) {
          timeline_.span(track_d2h, "copy", t.wire_start, t.wire_end);
        });
    dev.dispatcher().set_grid_observer(
        [this, track_grids](const gpu::BlockDispatcher::GridRecord& g) {
          timeline_.span(track_grids, "grid", g.launched, g.completed);
        });
  }
  devices_.push_back(std::move(slot));
}

void Collector::attach_pagoda(runtime::Runtime& rt, std::string prefix) {
  for (const RuntimeSlot& s : runtimes_) {
    PAGODA_CHECK_MSG(s.rt != &rt, "Pagoda runtime attached twice");
    PAGODA_CHECK_MSG(s.prefix != prefix, "runtime prefix attached twice");
  }
  ensure_sampler(rt.device().sim());
  if (trace_enabled() && prefix.empty()) rt.set_trace_recorder(&trace_);
  runtimes_.push_back(RuntimeSlot{&rt, std::move(prefix)});
}

void Collector::attach_cpu(sim::Simulation& sim, const host::CpuCluster& cpu) {
  PAGODA_CHECK_MSG(cpu_ == nullptr, "CPU cluster attached twice");
  ensure_sampler(sim);
  cpu_ = &cpu;
}

void Collector::add_sampler(sim::Simulation& sim,
                            std::function<void(sim::Time)> fn) {
  ensure_sampler(sim);
  extra_samplers_.push_back(std::move(fn));
}

void Collector::task_span(sim::Time start, sim::Time end) {
  if (!cfg_.timeline) return;
  if (start < 0 || end < start) return;
  timeline_.span(track_tasks_, "task", start, end);
}

const Collector::RuntimeSlot* Collector::runtime_for_prefix(
    const std::string& prefix) const {
  for (const RuntimeSlot& s : runtimes_) {
    if (s.prefix == prefix) return &s;
  }
  return nullptr;
}

void Collector::finish_device(DeviceSlot& slot, double elapsed,
                              sim::Time end_time) {
  gpu::Device& dev = *slot.dev;
  sim::Link& h2d = dev.pcie().link(pcie::Direction::HostToDevice);
  sim::Link& d2h = dev.pcie().link(pcie::Direction::DeviceToHost);
  metrics_.counter(key(slot.prefix, "pcie.h2d.bytes"))
      .set(h2d.bytes_transferred());
  metrics_.counter(key(slot.prefix, "pcie.h2d.transfers"))
      .set(h2d.transfers_completed());
  metrics_.counter(key(slot.prefix, "pcie.d2h.bytes"))
      .set(d2h.bytes_transferred());
  metrics_.counter(key(slot.prefix, "pcie.d2h.transfers"))
      .set(d2h.transfers_completed());
  if (elapsed > 0.0) {
    metrics_.gauge(key(slot.prefix, "pcie.h2d.achieved_gbps"))
        .set(static_cast<double>(h2d.bytes_transferred()) / elapsed / 1e9);
    metrics_.gauge(key(slot.prefix, "pcie.d2h.achieved_gbps"))
        .set(static_cast<double>(d2h.bytes_transferred()) / elapsed / 1e9);
    metrics_.gauge(key(slot.prefix, "pcie.h2d.wire_utilization"))
        .set(sim::to_seconds(h2d.busy_time()) / elapsed);
    metrics_.gauge(key(slot.prefix, "pcie.d2h.wire_utilization"))
        .set(sim::to_seconds(d2h.busy_time()) / elapsed);
  }
  metrics_.counter(key(slot.prefix, "gpu.grids_launched"))
      .set(dev.dispatcher().grids_launched());
  metrics_.counter(key(slot.prefix, "gpu.blocks_started"))
      .set(dev.dispatcher().blocks_started());

  // Achieved occupancy over [0, end_time]. For Pagoda the MasterKernel owns
  // every warp slot, so residency is meaningless — use the executor-warp
  // busy integral instead, as the paper's occupancy numbers do.
  if (elapsed > 0.0) {
    const double capacity =
        static_cast<double>(dev.spec().max_resident_warps());
    double occupancy = 0.0;
    const RuntimeSlot* rt_slot = runtime_for_prefix(slot.prefix);
    if (rt_slot != nullptr) {
      occupancy = rt_slot->rt->master_kernel().executor_busy_warp_seconds() /
                  (elapsed * capacity);
    } else {
      // Extrapolate residency to end_time, not sim.now(): after the event
      // queue drains the clock sits at the run's time cap, and runtimes
      // whose warps are still resident at the end (GeMTC's persistent
      // workers) would integrate residency across the whole cap.
      double resident_seconds = 0.0;
      for (int i = 0; i < dev.num_smms(); ++i) {
        resident_seconds += dev.smm(i).resident_warp_seconds_at(end_time);
      }
      occupancy = resident_seconds / (elapsed * capacity);
    }
    metrics_.gauge(key(slot.prefix, "gpu.occupancy.achieved")).set(occupancy);
  }
}

void Collector::finish_runtime(RuntimeSlot& slot, double elapsed) {
  runtime::Runtime& rt = *slot.rt;
  const runtime::Runtime::Stats& st = rt.stats();
  metrics_.counter(key(slot.prefix, "pagoda.tasks_spawned"))
      .set(st.tasks_spawned);
  metrics_.counter(key(slot.prefix, "pagoda.entry_copies"))
      .set(st.entry_copies);
  metrics_.counter(key(slot.prefix, "pagoda.aggregate_copybacks"))
      .set(st.aggregate_copybacks);
  metrics_.counter(key(slot.prefix, "pagoda.single_copybacks"))
      .set(st.single_copybacks);
  metrics_.counter(key(slot.prefix, "pagoda.flushes")).set(st.flushes);

  const runtime::MasterKernel& mk = rt.master_kernel();
  metrics_.counter(key(slot.prefix, "pagoda.tasks_scheduled"))
      .set(mk.tasks_scheduled());
  metrics_.counter(key(slot.prefix, "pagoda.tasks_completed"))
      .set(mk.tasks_completed());
  metrics_.counter(key(slot.prefix, "pagoda.warps_dispatched"))
      .set(mk.warps_dispatched());
  metrics_.counter(key(slot.prefix, "pagoda.shmem.allocs"))
      .set(mk.shmem_alloc_successes());
  metrics_.counter(key(slot.prefix, "pagoda.shmem.alloc_failures"))
      .set(mk.shmem_alloc_failures());
  metrics_.counter(key(slot.prefix, "pagoda.shmem.sweeps"))
      .set(mk.shmem_sweeps());
  metrics_.counter(key(slot.prefix, "pagoda.shmem.blocks_swept"))
      .set(mk.shmem_blocks_swept());
  metrics_.gauge(key(slot.prefix, "pagoda.shmem.peak_bytes"))
      .set(static_cast<double>(mk.shmem_peak_arena_bytes()));
  if (rt.config().oversub > 1.0) {
    // Virtual-resource plane. The fragmentation gauges are armed with it:
    // un-virtualized runs emit no new metric keys, so every pinned golden
    // stays byte-identical.
    metrics_.gauge(key(slot.prefix, "pagoda.shmem.external_frag"))
        .set(mk.shmem_external_frag());
    metrics_.counter(key(slot.prefix, "pagoda.shmem.internal_frag_bytes"))
        .set(mk.shmem_internal_frag_bytes());
  }
  if (elapsed > 0.0) {
    metrics_.gauge(key(slot.prefix, "pagoda.sched.busy_fraction"))
        .set(mk.scheduler_busy_seconds() /
             (elapsed * static_cast<double>(mk.num_mtbs())));
    const double per_mtb_capacity =
        elapsed * static_cast<double>(runtime::MasterKernel::kExecutorWarps);
    double total_busy = 0.0;
    for (int m = 0; m < mk.num_mtbs(); ++m) {
      const double busy = mk.executor_busy_warp_seconds(m);
      total_busy += busy;
      metrics_.stat(key(slot.prefix, "pagoda.mtb.executor_utilization"))
          .add(busy / per_mtb_capacity);
    }
    metrics_.gauge(key(slot.prefix, "pagoda.executors.utilization"))
        .set(total_busy /
             (per_mtb_capacity * static_cast<double>(mk.num_mtbs())));
  }

  // Final TaskTable state census (usually all free on a completed run).
  const TableCensus n = census(rt.gpu_table());
  metrics_.counter(key(slot.prefix, "pagoda.tasktable.final.free"))
      .set(n.free);
  metrics_.counter(key(slot.prefix, "pagoda.tasktable.final.params_copied"))
      .set(n.params_copied);
  metrics_.counter(key(slot.prefix, "pagoda.tasktable.final.scheduling"))
      .set(n.scheduling);
  metrics_.counter(key(slot.prefix, "pagoda.tasktable.final.chained"))
      .set(n.chained);

  if (cfg_.timeline && slot.prefix.empty()) {
    const Timeline::TrackId spawn_track = timeline_.track("pagoda.spawn");
    const Timeline::TrackId exec_track = timeline_.track("pagoda.tasks");
    for (const runtime::TraceRecorder::TaskTimeline& t : trace_.timelines()) {
      if (!t.complete()) continue;
      timeline_.span(spawn_track, "spawn", t.spawned, t.entry_copied);
      timeline_.span(exec_track, "task", t.scheduled, t.completed);
    }
  }
}

void Collector::finish(sim::Time end_time, std::int64_t tasks) {
  PAGODA_CHECK_MSG(!finished_, "Collector finished twice");
  finished_ = true;
  if (sim_ != nullptr && tick_event_ != 0) {
    sim_->cancel(tick_event_);
    tick_event_ = 0;
  }

  const double elapsed = sim::to_seconds(end_time);
  metrics_.gauge("run.elapsed_ms").set(sim::to_milliseconds(end_time));
  metrics_.counter("run.tasks").set(tasks);

  for (DeviceSlot& slot : devices_) finish_device(slot, elapsed, end_time);
  for (RuntimeSlot& slot : runtimes_) finish_runtime(slot, elapsed);

  if (cfg_.spans && cfg_.timeline) tracer_.export_to_timeline(timeline_);
  if (cfg_.timeline) {
    // Buffer-cap accounting: dropped events are counted, never silent. Only
    // timeline runs emit the key, so metric goldens stay byte-identical.
    metrics_.counter("timeline.dropped_events")
        .set(timeline_.dropped_events());
  }

  if (cpu_ != nullptr && elapsed > 0.0) {
    metrics_.gauge("cpu.busy_fraction")
        .set(cpu_->busy_core_seconds() /
             (elapsed * static_cast<double>(cpu_->cores())));
  }
}

}  // namespace pagoda::obs
