// Static task fusion baseline (§6.3): all tasks are fused into one
// monolithic kernel — one threadblock per sub-task, 256 threads each (the
// paper's heuristic choice, since per-task thread tuning is infeasible in
// static fusion). Every sub-task receives the SAME resource allocation,
// sized for the most resource-hungry task (the CUDA programming model's
// uniform per-block resources), and the fused kernel finishes only when its
// longest sub-task does — both drawbacks §1/§6.3 call out.
#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/factories.h"
#include "common/check.h"
#include "engine/result_builder.h"
#include "engine/stage_pipeline.h"
#include "gpu/stream.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace pagoda::baselines {
namespace {

using workloads::TaskSpec;

constexpr int kFusedThreadsPerSubTask = 256;

struct FusedArgs {
  const runtime::TaskParams* tasks;
  std::int32_t num_tasks;
};

/// The fused kernel: block b runs sub-task b as a nested warp coroutine,
/// forwarding its barriers to the fused block's native barrier and its cycle
/// charges to the fused warp.
gpu::KernelCoro fused_kernel(gpu::WarpCtx& ctx) {
  const FusedArgs& fa = ctx.args_as<FusedArgs>();
  PAGODA_CHECK(ctx.block_index < fa.num_tasks);
  const runtime::TaskParams& tp = fa.tasks[ctx.block_index];

  gpu::WarpCtx sub;
  sub.warp_in_task = ctx.warp_in_block;
  sub.block_index = 0;
  sub.warp_in_block = ctx.warp_in_block;
  sub.threads_per_block = ctx.threads_per_block;  // 256, redistributed work
  sub.num_blocks = 1;
  sub.mode = ctx.mode;
  sub.args = tp.args.data();
  sub.shared_mem = ctx.shared_mem;

  gpu::KernelCoro inner = tp.fn(sub);
  while (true) {
    inner.resume();
    ctx.charge(sub.take_charge());
    ctx.charge_stall(sub.take_stall());
    if (inner.done()) break;
    co_await ctx.sync_block();
  }
}

struct FusionState {
  engine::Session session;
  engine::StagePipeline pipe;
  std::vector<runtime::TaskParams> fused_tasks;
  bool done = false;
  sim::Time end_time = 0;
  sim::Time kernel_issue = 0;
  sim::Time kernel_complete = 0;

  explicit FusionState(const RunConfig& cfg)
      : session(device_session(cfg)),
        pipe(session, {.h2d_streams = 1, .d2h_streams = 0}) {}

  sim::Simulation& sim() { return session.sim(); }
};

sim::Process controller(FusionState& st, const RunConfig& cfg,
                        workloads::Workload& w) {
  const std::span<const TaskSpec> tasks = w.tasks();
  std::int64_t in_bytes = 0;
  std::int64_t out_bytes = 0;
  std::int64_t max_shmem = 0;
  int max_regs = 32;
  for (const TaskSpec& t : tasks) {
    in_bytes += t.h2d_bytes;
    out_bytes += t.d2h_bytes;
    max_shmem = std::max<std::int64_t>(max_shmem, t.params.shared_mem_bytes);
    max_regs = std::max(max_regs, t.regs_per_thread);
  }

  if (cfg.include_data_copies && in_bytes > 0) {
    // All inputs must be resident before the monolithic kernel launches.
    co_await st.pipe.copy_sync(st.pipe.h2d_stream(0),
                               pcie::Direction::HostToDevice, in_bytes);
  }

  co_await st.pipe.launch_cost();
  st.kernel_issue = st.sim().now();

  gpu::KernelLaunchParams p;
  p.fn = fused_kernel;
  p.args = gpu::KernelLaunchParams::pack_args(FusedArgs{
      st.fused_tasks.data(), static_cast<std::int32_t>(st.fused_tasks.size())});
  p.threads_per_block = kFusedThreadsPerSubTask;
  p.num_blocks = static_cast<int>(st.fused_tasks.size());
  p.regs_per_thread = max_regs;
  p.shared_mem_bytes = max_shmem;
  p.mode = cfg.mode;
  gpu::KernelExecutionPtr exec =
      st.session.device().dispatcher().launch(std::move(p));
  co_await exec->done.wait();
  st.kernel_complete = st.sim().now();

  if (cfg.include_data_copies && out_bytes > 0) {
    co_await st.pipe.copy_sync(st.pipe.h2d_stream(0),
                               pcie::Direction::DeviceToHost, out_bytes);
  }
  st.end_time = st.sim().now();
  st.done = true;
}

class FusionRuntime final : public TaskRuntime {
 public:
  std::string_view name() const override { return "Fusion"; }

  bool supports(const workloads::Workload& w) const override {
    // Fusion needs the full task list at compile/launch time.
    return max_wave(w) == 0;
  }

  RunResult do_run(workloads::Workload& w, const RunConfig& cfg) override {
    PAGODA_CHECK_MSG(supports(w), "static fusion cannot run this workload");
    FusionState st(cfg);
    st.fused_tasks.reserve(w.tasks().size());
    for (const TaskSpec& t : w.tasks()) st.fused_tasks.push_back(t.params);
    st.sim().spawn(controller(st, cfg, w));
    st.session.run_until(cfg.time_cap);

    engine::ResultBuilder marks(static_cast<int>(w.tasks().size()));
    marks.complete(st.done, st.end_time);
    marks.occupancy_device(st.session.device());
    marks.wires_from(st.session.device());
    // Every task's result is only available when the whole fused kernel
    // retires — the Fig 10 latency model for fused/batched execution.
    marks.uniform_interval(st.kernel_issue, st.kernel_complete);
    return marks.assemble(cfg.collect_latencies, cfg.collector);
  }
};

}  // namespace

std::unique_ptr<TaskRuntime> make_fusion_runtime() {
  return std::make_unique<FusionRuntime>();
}

}  // namespace pagoda::baselines
