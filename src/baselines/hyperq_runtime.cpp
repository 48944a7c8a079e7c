// CUDA-HyperQ baseline: one kernel per task, issued round-robin over 32
// streams (the paper sets CUDA_DEVICE_MAX_CONNECTIONS=32), so at most 32
// narrow kernels are concurrently resident — the §2 arithmetic that caps
// occupancy at e.g. 16.67% for 256-thread tasks.
//
// Per task, on its stream: H2D input copy, kernel, D2H output copy. The host
// threads pay the driver costs (memcpy setup, kernel launch) for every
// enqueue, which is itself a first-order cost at 32K tasks.
#include <memory>

#include "baselines/factories.h"
#include "engine/result_builder.h"
#include "engine/stage_pipeline.h"
#include "gpu/stream.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace pagoda::baselines {
namespace {

using workloads::TaskSpec;

constexpr int kStreams = 32;

struct HqState {
  engine::Session session;
  engine::StagePipeline pipe;
  engine::ResultBuilder marks;  // issue -> completion times
  /// CUDA launches serialize on the driver's per-context lock; two host
  /// threads do not double kernel-launch throughput.
  sim::Semaphore launch_lock;
  bool done = false;
  sim::Time end_time = 0;

  HqState(const RunConfig& cfg, int num_tasks)
      : session(device_session(cfg)),
        // A task's input copy, kernel and output copy share one stream
        // (d2h_streams = 0 aliases the pool).
        pipe(session, {.h2d_streams = kStreams,
                       .d2h_streams = 0,
                       .spawner_threads = cfg.spawner_threads}),
        marks(num_tasks),
        launch_lock(session.sim(), 1) {}

  sim::Simulation& sim() { return session.sim(); }
};

gpu::KernelLaunchParams to_launch(const TaskSpec& t, const RunConfig& cfg) {
  gpu::KernelLaunchParams p;
  p.fn = t.params.fn;
  p.args.assign(t.params.args.begin(),
                t.params.args.begin() + t.params.args_size);
  p.threads_per_block = t.params.threads_per_block;
  p.num_blocks = t.params.num_blocks;
  p.regs_per_thread = t.regs_per_thread;
  p.shared_mem_bytes = t.params.shared_mem_bytes;
  p.mode = cfg.mode;
  return p;
}

/// Marks task `idx`'s end when its kernel's trigger fires.
sim::Process mark_end(HqState& st, std::shared_ptr<sim::Trigger> done,
                      int idx) {
  co_await done->wait();
  st.marks.mark_end(idx, st.sim().now());
}

sim::Process enqueuer(HqState& st, const RunConfig& cfg,
                      std::span<const TaskSpec> tasks,
                      std::span<const int> indices) {
  for (const int idx : indices) {
    const TaskSpec& t = tasks[static_cast<std::size_t>(idx)];
    gpu::Stream& stream = st.pipe.h2d_stream(static_cast<std::size_t>(idx));
    if (cfg.include_data_copies && t.h2d_bytes > 0) {
      co_await st.pipe.copy_staged(stream, pcie::Direction::HostToDevice,
                                   t.h2d_bytes);
    }
    co_await st.launch_lock.acquire();
    co_await st.pipe.launch_cost();
    st.launch_lock.release();
    st.marks.mark_start(idx, st.sim().now());
    st.sim().spawn(mark_end(st, stream.kernel_async(to_launch(t, cfg)), idx));
    if (cfg.include_data_copies && t.d2h_bytes > 0) {
      co_await st.pipe.copy_staged(stream, pcie::Direction::DeviceToHost,
                                   t.d2h_bytes);
    }
  }
}

sim::Process controller(HqState& st, const RunConfig& cfg,
                        workloads::Workload& w) {
  const std::span<const TaskSpec> tasks = w.tasks();
  engine::StagePipeline::WavePlan plan;
  plan.slice = [&st, &cfg, tasks](std::span<const int> slice) {
    return enqueuer(st, cfg, tasks, slice);
  };
  plan.after_wave = [&st]() -> sim::Task<> {
    for (int s = 0; s < kStreams; ++s) {
      co_await st.pipe.h2d_stream(static_cast<std::size_t>(s)).synchronize();
    }
  };
  co_await st.pipe.run_waves(tasks, max_wave(w) + 1, plan);
  st.end_time = st.sim().now();
  st.done = true;
}

class HyperQRuntime final : public TaskRuntime {
 public:
  std::string_view name() const override { return "HyperQ"; }

  RunResult do_run(workloads::Workload& w, const RunConfig& cfg) override {
    const auto num_tasks = static_cast<int>(w.tasks().size());
    HqState st(cfg, num_tasks);
    st.sim().spawn(controller(st, cfg, w));
    st.session.run_until(cfg.time_cap);

    st.marks.complete(st.done, st.end_time);
    st.marks.wires_from(st.session.device());
    st.marks.occupancy_device(st.session.device());
    return st.marks.assemble(cfg.collect_latencies, cfg.collector);
  }
};

}  // namespace

std::unique_ptr<TaskRuntime> make_hyperq_runtime() {
  return std::make_unique<HyperQRuntime>();
}

}  // namespace pagoda::baselines
