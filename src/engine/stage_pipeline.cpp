#include "engine/stage_pipeline.h"

#include <algorithm>

#include "common/check.h"
#include "sim/joinable.h"

namespace pagoda::engine {

StagePipeline::StagePipeline(Session& session, const Config& cfg)
    : sim_(&session.sim()),
      host_(session.config().host),
      spawner_threads_(cfg.spawner_threads) {
  PAGODA_CHECK_MSG(
      session.has_device() || (cfg.h2d_streams == 0 && cfg.d2h_streams == 0),
      "stream pools need a device");
  for (int s = 0; s < cfg.h2d_streams; ++s) {
    h2d_pool_.emplace_back(session.device());
  }
  for (int s = 0; s < cfg.d2h_streams; ++s) {
    d2h_pool_.emplace_back(session.device());
  }
}

sim::Task<> StagePipeline::copy_staged(gpu::Stream& s, pcie::Direction dir,
                                       std::int64_t bytes,
                                       sim::Continuation landed) {
  co_await sim_->delay(host_.memcpy_setup);
  s.memcpy_async(dir, nullptr, nullptr, static_cast<std::size_t>(bytes),
                 landed);
}

sim::Task<> StagePipeline::copy_sync(gpu::Stream& s, pcie::Direction dir,
                                     std::int64_t bytes) {
  co_await sim_->delay(host_.memcpy_setup);
  co_await s.memcpy(dir, nullptr, nullptr, static_cast<std::size_t>(bytes));
}

sim::Task<> StagePipeline::launch_cost() {
  co_await sim_->delay(host_.kernel_launch);
}

std::vector<int> StagePipeline::wave_members(
    std::span<const workloads::TaskSpec> tasks, int wave) {
  std::vector<int> members;
  for (int i = 0; i < static_cast<int>(tasks.size()); ++i) {
    if (tasks[static_cast<std::size_t>(i)].wave == wave) members.push_back(i);
  }
  return members;
}

sim::Task<> StagePipeline::fan_out(std::span<const int> indices,
                                   const SliceFn& slice) {
  std::vector<sim::Joinable> joins;
  const auto nsp = static_cast<std::size_t>(spawner_threads_);
  const std::size_t per = (indices.size() + nsp - 1) / nsp;
  for (std::size_t s = 0; s < nsp; ++s) {
    const std::size_t lo = s * per;
    if (lo >= indices.size()) break;
    const std::size_t hi = std::min(indices.size(), lo + per);
    joins.push_back(sim_->spawn(slice(indices.subspan(lo, hi - lo))));
  }
  for (const sim::Joinable& j : joins) co_await j.join();
}

sim::Task<> StagePipeline::run_waves(std::span<const workloads::TaskSpec> tasks,
                                     int waves, const WavePlan& plan) {
  for (int wave = 0; wave < waves; ++wave) {
    const std::vector<int> members = wave_members(tasks, wave);
    const std::size_t chunk = plan.chunk_size > 0
                                  ? static_cast<std::size_t>(plan.chunk_size)
                                  : members.size();
    for (std::size_t lo = 0; lo < members.size(); lo += chunk) {
      const std::size_t hi = std::min(members.size(), lo + chunk);
      co_await fan_out(std::span<const int>(members.data() + lo, hi - lo),
                       plan.slice);
      if (plan.after_chunk) co_await plan.after_chunk();
    }
    if (plan.after_wave) co_await plan.after_wave();
  }
}

}  // namespace pagoda::engine
