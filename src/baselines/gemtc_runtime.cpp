// GeMTC baseline (Krieder et al., HPDC'14), re-implemented from its
// paper-level description and the properties §6 of the Pagoda paper relies
// on:
//  * A persistent SuperKernel whose workers are threadblocks; one task runs
//    entirely inside one worker threadblock.
//  * A single FIFO queue feeds all workers — every pull is a serialized
//    atomic on device memory.
//  * Batch-based launching: the CPU ships a batch of tasks and waits for
//    the whole batch before sending the next, so a batch's completion time
//    is its longest task (load imbalance) and there is no spawn/execute
//    overlap.
//  * No shared-memory support; tasks must fit one threadblock; the task
//    count must be known upfront (no dependency waves -> no SLUD).
#include <deque>
#include <memory>
#include <vector>

#include "baselines/factories.h"
#include "common/check.h"
#include "engine/result_builder.h"
#include "engine/stage_pipeline.h"
#include "gpu/barrier.h"
#include "gpu/occupancy.h"
#include "gpu/stream.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace pagoda::baselines {
namespace {

using workloads::TaskSpec;

/// Serialized device-memory atomic for a queue pull.
constexpr sim::Duration kQueuePullCost = sim::nanoseconds(400.0);

struct Worker {
  gpu::Smm* smm = nullptr;
};

struct GemtcState {
  engine::Session session;
  engine::StagePipeline pipe;
  engine::ResultBuilder marks;  // batch issue -> batch finish times
  std::vector<Worker> workers;
  std::deque<int> queue;  // task indices of the current batch
  sim::Semaphore queue_lock;
  int batch_tasks_left = 0;
  sim::Trigger* batch_done = nullptr;
  bool done = false;
  sim::Time end_time = 0;
  // busy-warp occupancy accounting
  double busy_integral = 0.0;
  int busy_warps = 0;
  sim::Time busy_touch = 0;

  GemtcState(const RunConfig& cfg, int num_tasks)
      : session(device_session(cfg)),
        pipe(session, {.h2d_streams = 1, .d2h_streams = 0}),
        marks(num_tasks),
        queue_lock(session.sim(), 1) {}

  sim::Simulation& sim() { return session.sim(); }

  void touch_busy(int delta) {
    busy_integral += static_cast<double>(busy_warps) *
                     sim::to_seconds(sim().now() - busy_touch);
    busy_touch = sim().now();
    busy_warps += delta;
  }
};

/// Runs one warp of a task inside a worker threadblock.
sim::Process task_warp(GemtcState& st, const RunConfig& cfg, gpu::Smm& smm,
                       const runtime::TaskParams& p, int warp,
                       std::span<std::byte> shmem, gpu::BlockBarrier& barrier,
                       int* warps_left, sim::Trigger* block_done) {
  gpu::WarpCtx ctx;
  ctx.warp_in_task = warp;
  ctx.block_index = 0;
  ctx.warp_in_block = warp;
  ctx.threads_per_block = p.threads_per_block;
  ctx.num_blocks = 1;
  ctx.mode = cfg.mode;
  ctx.args = p.args.data();
  ctx.shared_mem = shmem;
  st.touch_busy(+1);
  gpu::KernelCoro coro = p.fn(ctx);
  while (true) {
    const gpu::SegmentResult seg = gpu::run_segment(coro, ctx);
    if (seg.stall_cycles > 0.0) {
      co_await st.sim().delay(static_cast<sim::Duration>(
          seg.stall_cycles * 1e12 / cfg.spec.clock_hz));
    }
    if (seg.cycles > 0.0) co_await smm.execute(seg.cycles);
    if (!seg.at_barrier) break;
    co_await barrier.arrive_and_wait();
  }
  st.touch_busy(-1);
  if (--*warps_left == 0) block_done->fire();
}

/// One SuperKernel worker: pull tasks from the FIFO queue until empty.
sim::Process worker_proc(GemtcState& st, const RunConfig& cfg,
                         std::span<const TaskSpec> tasks, gpu::Smm& smm) {
  while (true) {
    co_await st.queue_lock.acquire();
    if (st.queue.empty()) {
      st.queue_lock.release();
      break;
    }
    const int idx = st.queue.front();
    st.queue.pop_front();
    // Serialized atomic pull on the single queue (the contention Pagoda's
    // multi-column TaskTable avoids).
    co_await st.sim().delay(kQueuePullCost);
    st.queue_lock.release();

    const TaskSpec& t = tasks[static_cast<std::size_t>(idx)];
    const runtime::TaskParams& p = t.params;
    const int warps = p.warps_per_block();
    gpu::BlockBarrier barrier(st.sim(), warps);
    sim::Trigger block_done(st.sim());
    int warps_left = warps;
    for (int wv = 0; wv < warps; ++wv) {
      st.sim().spawn(task_warp(st, cfg, smm, p, wv, {}, barrier, &warps_left,
                               &block_done));
    }
    co_await block_done.wait();
    if (--st.batch_tasks_left == 0) st.batch_done->fire();
  }
}

sim::Process controller(GemtcState& st, const RunConfig& cfg,
                        workloads::Workload& w, int batch_size) {
  const std::span<const TaskSpec> tasks = w.tasks();
  const auto total = static_cast<int>(tasks.size());
  for (int batch_start = 0; batch_start < total; batch_start += batch_size) {
    const int batch_end = std::min(total, batch_start + batch_size);
    // Ship the batch: descriptors + inputs in one bulk H2D.
    std::int64_t in_bytes = 256;  // task descriptors
    std::int64_t out_bytes = 0;
    for (int i = batch_start; i < batch_end; ++i) {
      in_bytes += cfg.include_data_copies
                      ? tasks[static_cast<std::size_t>(i)].h2d_bytes
                      : 0;
      out_bytes += cfg.include_data_copies
                       ? tasks[static_cast<std::size_t>(i)].d2h_bytes
                       : 0;
    }
    co_await st.pipe.copy_sync(st.pipe.h2d_stream(0),
                               pcie::Direction::HostToDevice, in_bytes);
    co_await st.pipe.launch_cost();  // SuperKernel launch

    const sim::Time batch_issue = st.sim().now();
    for (int i = batch_start; i < batch_end; ++i) {
      st.queue.push_back(i);
      st.marks.mark_start(i, batch_issue);
    }
    st.batch_tasks_left = batch_end - batch_start;
    sim::Trigger batch_done(st.sim());
    st.batch_done = &batch_done;
    std::vector<sim::Joinable> joins;
    joins.reserve(st.workers.size());
    for (Worker& wk : st.workers) {
      joins.push_back(st.sim().spawn(worker_proc(st, cfg, tasks, *wk.smm)));
    }
    co_await batch_done.wait();
    for (const sim::Joinable& j : joins) co_await j.join();
    st.batch_done = nullptr;
    // Batch results land together (batch semantics).
    const sim::Time batch_finish = st.sim().now();
    for (int i = batch_start; i < batch_end; ++i) {
      st.marks.mark_end(i, batch_finish);
    }
    if (out_bytes > 0) {
      co_await st.pipe.copy_sync(st.pipe.h2d_stream(0),
                                 pcie::Direction::DeviceToHost, out_bytes);
    }
  }
  st.end_time = st.sim().now();
  st.done = true;
}

class GemtcRuntime final : public TaskRuntime {
 public:
  std::string_view name() const override { return "GeMTC"; }

  bool supports(const workloads::Workload& w) const override {
    if (max_wave(w) > 0) return false;  // task count must be predefined
    for (const TaskSpec& t : w.tasks()) {
      if (t.params.num_blocks != 1) return false;      // task == 1 threadblock
      if (t.params.shared_mem_bytes > 0) return false;  // no shmem support
    }
    return true;
  }

  RunResult do_run(workloads::Workload& w, const RunConfig& cfg) override {
    PAGODA_CHECK_MSG(supports(w), "GeMTC cannot run this workload");
    const auto num_tasks = static_cast<int>(w.tasks().size());
    GemtcState st(cfg, num_tasks);

    // The SuperKernel: as many worker threadblocks as fit at maximum
    // occupancy for this threadblock size.
    const int tpb = w.tasks().empty()
                        ? 128
                        : w.tasks()[0].params.threads_per_block;
    const auto fp = gpu::BlockFootprint::of(tpb, 32, 0);
    const auto residency = gpu::max_residency(cfg.spec, fp);
    gpu::Device& dev = st.session.device();
    for (int s = 0; s < cfg.spec.num_smms; ++s) {
      for (int b = 0; b < residency.blocks_per_smm; ++b) {
        dev.smm(s).reserve(fp);
        st.workers.push_back(Worker{&dev.smm(s)});
      }
    }
    const int batch =
        cfg.batch_size > 0 ? cfg.batch_size
                           : static_cast<int>(st.workers.size());
    st.sim().spawn(controller(st, cfg, w, std::max(1, batch)));
    st.session.run_until(cfg.time_cap);

    st.marks.complete(st.done, st.end_time);
    st.marks.wires_from(dev);
    st.touch_busy(0);
    st.marks.occupancy_integral(
        st.busy_integral,
        static_cast<double>(cfg.spec.max_resident_warps()));
    return st.marks.assemble(cfg.collect_latencies, cfg.collector);
  }
};

}  // namespace

int gemtc_worker_count(const gpu::GpuSpec& spec,
                       const workloads::Workload& w) {
  const int tpb =
      w.tasks().empty() ? 128 : w.tasks()[0].params.threads_per_block;
  const auto residency =
      gpu::max_residency(spec, gpu::BlockFootprint::of(tpb, 32, 0));
  return std::max(1, residency.blocks_per_smm * spec.num_smms);
}

std::unique_ptr<TaskRuntime> make_gemtc_runtime() {
  return std::make_unique<GemtcRuntime>();
}

}  // namespace pagoda::baselines
