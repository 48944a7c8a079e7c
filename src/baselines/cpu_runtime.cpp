// CPU baselines: PThreads task pool on the paper's 2x Xeon E5-2660 (20
// cores at 2.6 GHz) and the sequential single-core baseline Fig 5
// normalizes against. Tasks run entirely in host memory — no PCIe copies —
// which is why CPUs win for a handful of narrow tasks and lose at 32K.
#include <memory>
#include <vector>

#include "baselines/factories.h"
#include "engine/result_builder.h"
#include "engine/stage_pipeline.h"
#include "gpu/kernel.h"
#include "host/host_api.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace pagoda::baselines {
namespace {

/// Calibration of the CPU model (see harness/calibration.h for discussion):
/// the per-task pool handoff. A core's throughput is host::kCoreOpsPerSec.
constexpr double kDispatchOps = 8000.0;  // ~2.3 us pthread pool handoff

/// Executes a task's kernel functionally on the host (Compute mode): the
/// CPU baselines run the same code the GPU kernels do, which is also how the
/// outputs stay verifiable. Warps of a block advance in barrier rounds.
void run_task_functionally(const runtime::TaskParams& p) {
  for (int block = 0; block < p.num_blocks; ++block) {
    const int warps = p.warps_per_block();
    std::vector<gpu::WarpCtx> ctxs(static_cast<std::size_t>(warps));
    std::vector<std::unique_ptr<gpu::KernelCoro>> coros;
    std::vector<std::byte> shmem(
        static_cast<std::size_t>(p.shared_mem_bytes));
    coros.reserve(static_cast<std::size_t>(warps));
    for (int w = 0; w < warps; ++w) {
      gpu::WarpCtx& ctx = ctxs[static_cast<std::size_t>(w)];
      ctx.warp_in_task = block * warps + w;
      ctx.block_index = block;
      ctx.warp_in_block = w;
      ctx.threads_per_block = p.threads_per_block;
      ctx.num_blocks = p.num_blocks;
      ctx.mode = gpu::ExecMode::Compute;
      ctx.args = p.args.data();
      ctx.shared_mem = std::span<std::byte>(shmem);
      coros.push_back(std::make_unique<gpu::KernelCoro>(
          p.fn(ctxs[static_cast<std::size_t>(w)])));
    }
    bool any_live = true;
    while (any_live) {
      any_live = false;
      for (int w = 0; w < warps; ++w) {
        auto& coro = *coros[static_cast<std::size_t>(w)];
        if (coro.done()) continue;
        const gpu::SegmentResult seg =
            gpu::run_segment(coro, ctxs[static_cast<std::size_t>(w)]);
        if (seg.at_barrier) any_live = true;
      }
    }
  }
}

struct CpuState {
  engine::Session session;
  engine::ResultBuilder marks;  // submit -> completion times
  bool done = false;
  sim::Time end_time = 0;

  CpuState(const RunConfig& cfg, int cores, int num_tasks)
      : session([&] {
          engine::SessionConfig sc;
          sc.device = false;
          sc.cpu_cores = cores;
          sc.host = cfg.host;
          sc.collector = cfg.collector;
          return sc;
        }()),
        marks(num_tasks) {}

  sim::Simulation& sim() { return session.sim(); }
};

/// One task on the pool: runs `ops` on a core, marks its end and counts
/// down its wave.
sim::Process pool_task(CpuState& st, int i, double ops, int& left,
                       sim::Trigger& wave_done) {
  co_await st.session.cpu().run(ops);
  st.marks.mark_end(i, st.sim().now());
  if (--left == 0) wave_done.fire();
}

/// The pool dispatch loop runs inline on the controller (a pthread pool has
/// no per-wave spawner threads), so it keeps its shape rather than going
/// through StagePipeline::fan_out. Every member of a wave is submitted at
/// the same instant, in member order.
sim::Process controller(CpuState& st, const RunConfig& cfg,
                        std::span<const workloads::TaskSpec> tasks,
                        int waves) {
  for (int wave = 0; wave < waves; ++wave) {
    const std::vector<int> members =
        engine::StagePipeline::wave_members(tasks, wave);
    if (members.empty()) continue;
    int left = static_cast<int>(members.size());
    sim::Trigger wave_done(st.sim());
    for (const int i : members) {
      const workloads::TaskSpec& task = tasks[static_cast<std::size_t>(i)];
      st.marks.mark_start(i, st.sim().now());
      if (cfg.mode == gpu::ExecMode::Compute) {
        run_task_functionally(task.params);
      }
      st.sim().spawn(
          pool_task(st, i, kDispatchOps + task.cpu_ops, left, wave_done));
    }
    co_await wave_done.wait();
  }
  st.end_time = st.sim().now();
  st.done = true;
}

class CpuRuntime final : public TaskRuntime {
 public:
  explicit CpuRuntime(int cores) : cores_(cores) {}

  std::string_view name() const override {
    return cores_ == 1 ? "Sequential" : "PThreads";
  }

  RunResult do_run(workloads::Workload& w, const RunConfig& cfg) override {
    const std::span<const workloads::TaskSpec> tasks = w.tasks();
    CpuState st(cfg, cores_, static_cast<int>(tasks.size()));
    st.sim().spawn(controller(st, cfg, tasks, max_wave(w) + 1));
    st.session.run_until(cfg.time_cap);

    st.marks.complete(st.done, st.end_time);
    return st.marks.assemble(cfg.collect_latencies, cfg.collector);
  }

 private:
  int cores_;
};

}  // namespace

std::unique_ptr<TaskRuntime> make_cpu_runtime(int cores) {
  return std::make_unique<CpuRuntime>(cores);
}

}  // namespace pagoda::baselines
