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
#include <vector>

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
  /// A task's input copy. Its landing releases the copy's data slot and
  /// spawns the task.
  struct InputCopy {
    RunState* st;
    int idx;
    void land();
  };

  const RunConfig& cfg;
  std::span<const TaskSpec> tasks;
  engine::Session session;
  engine::StagePipeline pipe;
  engine::ResultBuilder marks;  // spawn -> completion times
  /// Task index of the last spawn into each TaskTable entry, indexed by
  /// id - kFirstTaskId; -1 before the entry's first spawn.
  std::vector<int> entry_to_idx;
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
  std::vector<InputCopy> input_copies;  // by task index
  /// Host-side spawn-order policy (persists across batch slices so WFQ's
  /// virtual time carries over); fifo leaves slices untouched.
  sched::Policy sched_policy;
  bool done = false;
  sim::Time end_time = 0;

  RunState(const RunConfig& config, std::span<const TaskSpec> specs)
      : cfg(config),
        tasks(specs),
        session(pagoda_session(cfg)),
        // Stream pools: the Fig 1a OpenMP task pool keeps many copies in
        // flight, hiding per-transaction DMA latency (as HyperQ's 32 streams
        // do).
        pipe(session, {.h2d_streams = 8,
                       .d2h_streams = 4,
                       .spawner_threads = cfg.spawner_threads}),
        marks(static_cast<int>(tasks.size())),
        drained(session.sim()),
        spawns_cv(session.sim()),
        data_slots(session.sim(), 8),
        input_copies(tasks.size()),
        sched_policy(cfg.pagoda.sched) {
    entry_to_idx.assign(static_cast<std::size_t>(rt().table_capacity()), -1);
  }

  sim::Simulation& sim() { return session.sim(); }
  runtime::Runtime& rt() { return session.rt(); }

  void output_landed() {
    outstanding_d2h -= 1;
    if (outstanding_d2h == 0 && draining) drained.fire();
  }
};

/// Task `idx`'s params with the driver-wide QoS class applied. kStandard
/// (the default) leaves pre-tagged specs alone, so programmatic mixed-class
/// task lists survive the stamp.
runtime::TaskParams tagged_params(const RunState& st, int idx) {
  runtime::TaskParams p = st.tasks[static_cast<std::size_t>(idx)].params;
  if (st.cfg.task_class != sched::Class::kStandard) {
    p.sched_class = static_cast<std::uint8_t>(st.cfg.task_class);
  }
  return p;
}

/// Performs the taskSpawn for one task (invoked once its input copy has
/// landed). Runs as its own tiny process, modelling the paper's Fig 1a
/// OpenMP task pool where copies and spawns of different tasks overlap.
sim::Process spawn_one(RunState& st, int idx) {
  const runtime::TaskHandle h =
      co_await st.rt().task_spawn(tagged_params(st, idx));
  st.entry_to_idx[static_cast<std::size_t>(h.id - runtime::kFirstTaskId)] =
      idx;
  st.marks.mark_start(idx, st.sim().now());
  st.pending_spawns -= 1;
  if (st.pending_spawns == 0) st.spawns_cv.notify_all();
}

void RunState::InputCopy::land() {
  st->data_slots.release();
  st->sim().spawn(spawn_one(*st, idx));
}

sim::Process spawner(RunState& st, std::span<const int> indices) {
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
      const runtime::TaskParams p = tagged_params(st, indices[i]);
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
    const TaskSpec& t = st.tasks[static_cast<std::size_t>(idx)];
    st.pending_spawns += 1;
    if (st.cfg.include_data_copies && t.h2d_bytes > 0) {
      // Fig 1a copies a task's input before spawning it; with the OpenMP
      // task pool, copies and spawns of *different* tasks overlap (the
      // spawn rides the copy's completion), but only ~pool-size copies are
      // ever in flight (each pool task blocks in its synchronous copy).
      co_await st.data_slots.acquire();
      const auto i = static_cast<std::size_t>(idx);
      st.input_copies[i] = {&st, idx};
      co_await st.pipe.copy_staged(
          st.pipe.h2d_stream(i), pcie::Direction::HostToDevice, t.h2d_bytes,
          sim::Continuation::member<&RunState::InputCopy::land>(
              &st.input_copies[i]));
    } else {
      st.sim().spawn(spawn_one(st, idx));
      co_await st.sim().delay(st.cfg.host.task_spawn_fill);
    }
  }
}

sim::Process controller(RunState& st, workloads::Workload& w, int batch,
                        bool batching) {
  // Completion observer: record latency and issue the output copy.
  st.rt().set_completion_observer(
      [&st](runtime::TaskId id, sim::Time t) {
        const int idx = st.entry_to_idx[static_cast<std::size_t>(
            id - runtime::kFirstTaskId)];
        if (idx < 0) return;
        st.marks.mark_end(idx, t);
        const TaskSpec& spec = st.tasks[static_cast<std::size_t>(idx)];
        if (st.cfg.include_data_copies && spec.d2h_bytes > 0) {
          st.outstanding_d2h += 1;
          st.pipe.d2h_stream(static_cast<std::size_t>(idx))
              .memcpy_async(
                  pcie::Direction::DeviceToHost, nullptr, nullptr,
                  static_cast<std::size_t>(spec.d2h_bytes),
                  sim::Continuation::member<&RunState::output_landed>(&st));
        }
      });

  engine::StagePipeline::WavePlan plan;
  plan.slice = [&st](std::span<const int> slice) {
    return spawner(st, slice);
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
  co_await st.pipe.run_waves(st.tasks, max_wave(w) + 1, plan);

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
    RunState st(cfg, w.tasks());
    st.session.start();
    const int batch =
        cfg.batch_size > 0 ? cfg.batch_size : gemtc_worker_count(cfg.spec, w);
    st.sim().spawn(controller(st, w, batch, batching_));
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
