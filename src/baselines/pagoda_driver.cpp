// Drivers for the Pagoda runtime itself: the full scheme (continuous
// spawning + concurrent pipelined scheduling) and the Fig 11 ablation
// "Pagoda-Batching" (same GPU scheduler, but the CPU withholds the next
// batch until the previous one drains, like GeMTC).
//
// Host-side structure mirrors the paper's Fig 1a: N spawner threads copy a
// task's input to the device (synchronously, on their own data stream) and
// then taskSpawn it; a completion observer plays the nested wait()-then-
// copy-output task, issuing the D2H transfer as soon as the task finishes.
#include <memory>
#include <unordered_map>

#include "baselines/factories.h"
#include "engine/result_builder.h"
#include "engine/stage_pipeline.h"
#include "gpu/stream.h"
#include "sched/policy.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace pagoda::baselines {
namespace {

using workloads::TaskSpec;

struct RunState {
  engine::Session session;
  engine::StagePipeline pipe;
  engine::ResultBuilder marks;  // spawn -> completion times
  std::unordered_map<runtime::TaskId, int> entry_to_idx;
  int outstanding_d2h = 0;
  bool draining = false;
  sim::Trigger drained;
  int pending_spawns = 0;
  sim::Condition spawns_cv;
  /// Bounds concurrently in-flight input copies, like the paper's Fig 1a
  /// OpenMP task pool whose tasks block in a synchronous cudaMemcpy: without
  /// a bound, queued bulk inputs would starve the (FIFO) DMA engine of the
  /// small TaskTable entry copies that drive scheduling.
  sim::Semaphore data_slots;
  /// Host-side spawn-order policy (persists across batch slices so WFQ's
  /// virtual time carries over); fifo leaves slices untouched.
  sched::Policy sched_policy;
  bool done = false;
  sim::Time end_time = 0;

  RunState(const RunConfig& cfg, int num_tasks)
      : session(pagoda_session(cfg)),
        // Stream pools: the Fig 1a OpenMP task pool keeps many copies in
        // flight, hiding per-transaction DMA latency (as HyperQ's 32 streams
        // do).
        pipe(session, {.h2d_streams = 8,
                       .d2h_streams = 4,
                       .spawner_threads = cfg.spawner_threads}),
        marks(num_tasks),
        drained(session.sim()),
        spawns_cv(session.sim()),
        data_slots(session.sim(), 8),
        sched_policy(cfg.pagoda.sched) {}

  sim::Simulation& sim() { return session.sim(); }
  runtime::Runtime& rt() { return session.rt(); }
};

/// Performs the taskSpawn for one task (invoked once its input copy has
/// landed). Runs as its own tiny process, modelling the paper's Fig 1a
/// OpenMP task pool where copies and spawns of different tasks overlap.
/// Takes the (possibly class-tagged) params by value: the copy-completion
/// callback outlives the spawner's loop iteration.
sim::Process spawn_one(RunState& st, runtime::TaskParams p, int idx) {
  const runtime::TaskHandle h = co_await st.rt().task_spawn(p);
  st.entry_to_idx[h.id] = idx;
  st.marks.mark_start(idx, st.sim().now());
  st.pending_spawns -= 1;
  if (st.pending_spawns == 0) st.spawns_cv.notify_all();
}

/// The spec's params with the driver-wide QoS class applied. kStandard (the
/// default) leaves pre-tagged specs alone, so programmatic mixed-class task
/// lists survive the stamp.
runtime::TaskParams tagged_params(const RunConfig& cfg, const TaskSpec& t) {
  runtime::TaskParams p = t.params;
  if (cfg.task_class != sched::Class::kStandard) {
    p.sched_class = static_cast<std::uint8_t>(cfg.task_class);
  }
  return p;
}

sim::Process spawner(RunState& st, const RunConfig& cfg,
                     std::span<const TaskSpec> tasks,
                     std::span<const int> indices) {
  // The spawn stream is the first point where arrival order can be
  // overridden (the scheduler warps' claim pass is the second): under a
  // non-fifo policy the slice is reordered by the policy comparator over
  // each task's QoS tags, slice position breaking ties. fifo takes the
  // slice verbatim — byte-identical to the pre-QoS driver.
  std::vector<int> reordered;
  std::span<const int> order = indices;
  if (!st.sched_policy.fifo()) {
    std::vector<sched::SchedKey> keys(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const runtime::TaskParams p =
          tagged_params(cfg, tasks[static_cast<std::size_t>(indices[i])]);
      sched::SchedKey& k = keys[i];
      k.cls = sched::class_from_raw(p.sched_class);
      k.deadline = sched::deadline_from_us(p.deadline_us);
      k.cost = static_cast<double>(p.warps_total());
      k.seq = static_cast<std::uint64_t>(i);
    }
    reordered.reserve(indices.size());
    for (const int pos : st.sched_policy.order(keys)) {
      st.sched_policy.served(keys[static_cast<std::size_t>(pos)]);
      reordered.push_back(indices[static_cast<std::size_t>(pos)]);
    }
    order = reordered;
  }
  for (const int idx : order) {
    const TaskSpec& t = tasks[static_cast<std::size_t>(idx)];
    const runtime::TaskParams p = tagged_params(cfg, t);
    st.pending_spawns += 1;
    if (cfg.include_data_copies && t.h2d_bytes > 0) {
      // Fig 1a copies a task's input before spawning it; with the OpenMP
      // task pool, copies and spawns of *different* tasks overlap (the
      // spawn rides the copy's completion), but only ~pool-size copies are
      // ever in flight (each pool task blocks in its synchronous copy).
      co_await st.data_slots.acquire();
      co_await st.pipe.copy_staged(
          st.pipe.h2d_stream(static_cast<std::size_t>(idx)),
          pcie::Direction::HostToDevice, t.h2d_bytes, [&st, p, idx] {
            st.data_slots.release();
            st.sim().spawn(spawn_one(st, p, idx));
          });
    } else {
      st.sim().spawn(spawn_one(st, p, idx));
      co_await st.sim().delay(cfg.host.task_spawn_fill);
    }
  }
}

sim::Process controller(RunState& st, const RunConfig& cfg,
                        workloads::Workload& w, int batch, bool batching) {
  const std::span<const TaskSpec> tasks = w.tasks();

  // Completion observer: record latency and issue the output copy.
  st.rt().set_completion_observer(
      [&st, &cfg, tasks](runtime::TaskId id, sim::Time t) {
        const auto it = st.entry_to_idx.find(id);
        if (it == st.entry_to_idx.end()) return;
        const int idx = it->second;
        st.marks.mark_end(idx, t);
        const TaskSpec& spec = tasks[static_cast<std::size_t>(idx)];
        if (cfg.include_data_copies && spec.d2h_bytes > 0) {
          st.outstanding_d2h += 1;
          st.pipe.d2h_stream(static_cast<std::size_t>(idx))
              .memcpy_async(pcie::Direction::DeviceToHost, nullptr, nullptr,
                            static_cast<std::size_t>(spec.d2h_bytes), [&st] {
                              st.outstanding_d2h -= 1;
                              if (st.outstanding_d2h == 0 && st.draining) {
                                st.drained.fire();
                              }
                            });
        }
      });

  engine::StagePipeline::WavePlan plan;
  plan.slice = [&st, &cfg, tasks](std::span<const int> slice) {
    return spawner(st, cfg, tasks, slice);
  };
  plan.chunk_size = batching ? std::max(1, batch) : 0;
  plan.after_chunk = [&st, batching]() -> sim::Task<> {
    while (st.pending_spawns > 0) co_await st.spawns_cv.wait();
    if (batching) co_await st.rt().wait_all();  // batch gate (Fig 11)
  };
  plan.after_wave = [&st]() -> sim::Task<> {
    while (st.pending_spawns > 0) co_await st.spawns_cv.wait();
    co_await st.rt().wait_all();  // wave gate (SLUD dependencies)
  };
  co_await st.pipe.run_waves(tasks, max_wave(w) + 1, plan);

  // Drain outstanding output copies.
  st.draining = true;
  if (st.outstanding_d2h > 0) co_await st.drained.wait();
  st.end_time = st.sim().now();
  st.done = true;
}

class PagodaDriver final : public TaskRuntime {
 public:
  explicit PagodaDriver(bool batching) : batching_(batching) {}

  std::string_view name() const override {
    return batching_ ? "PagodaBatching" : "Pagoda";
  }

  RunResult do_run(workloads::Workload& w, const RunConfig& cfg) override {
    const auto num_tasks = static_cast<int>(w.tasks().size());
    RunState st(cfg, num_tasks);
    st.session.start();
    const int batch =
        cfg.batch_size > 0 ? cfg.batch_size : gemtc_worker_count(cfg.spec, w);
    st.sim().spawn(controller(st, cfg, w, batch, batching_));
    st.session.run_until(cfg.time_cap);

    st.marks.complete(st.done, st.end_time);
    st.marks.wires_from(st.session.device());
    st.marks.occupancy_executors(st.rt(), cfg.spec);
    RunResult res = st.marks.assemble(cfg.collect_latencies, cfg.collector);
    st.session.shutdown();
    return res;
  }

 private:
  bool batching_;
};

}  // namespace

std::unique_ptr<TaskRuntime> make_pagoda_runtime(bool batching) {
  return std::make_unique<PagodaDriver>(batching);
}

}  // namespace pagoda::baselines
