// MPE: the paper's multi-programmed environment benchmark (Table 4) —
// four heterogeneous applications generating narrow tasks asynchronously:
// 3DES and Mandelbrot (irregular computation), FilterBank (threadblock
// synchronization) and MatrixMul (shared memory). 8K tasks each by default
// (32K total); tasks are interleaved round-robin so the runtimes see a
// genuinely mixed stream.
#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

class MpeWorkload final : public Workload {
 public:
  MpeWorkload() {
    subs_.push_back(make_triple_des());
    subs_.push_back(make_mandelbrot());
    subs_.push_back(make_filterbank());
    subs_.push_back(make_matmul());
  }

  WorkloadTraits traits() const override {
    // Every application takes the same input scale.
    int max_input = std::numeric_limits<int>::max();
    for (const auto& sub : subs_) {
      max_input = std::min(max_input, sub->traits().max_input);
    }
    return WorkloadTraits{.name = "MPE",
                          .irregular = true,
                          .may_use_shared = true,
                          .needs_sync = true,
                          .default_registers = 30,
                          .max_input = max_input};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    const int per_sub = std::max(1, cfg.num_tasks / static_cast<int>(subs_.size()));
    tasks_.clear();
    for (std::size_t s = 0; s < subs_.size(); ++s) {
      WorkloadConfig sub_cfg = cfg;
      sub_cfg.num_tasks = per_sub;
      sub_cfg.seed = cfg.seed + 0x517E * (s + 1);
      subs_[s]->generate(sub_cfg);
    }
    // Round-robin interleave: the task stream alternates applications.
    tasks_.reserve(static_cast<std::size_t>(per_sub) * subs_.size());
    for (int i = 0; i < per_sub; ++i) {
      for (const auto& sub : subs_) {
        tasks_.push_back(sub->tasks()[static_cast<std::size_t>(i)]);
      }
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override {
    for (const auto& sub : subs_) sub->reset_outputs();
  }

  bool do_verify() const override {
    for (const auto& sub : subs_) {
      if (!sub->verify()) return false;
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<Workload>> subs_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_mpe() { return std::make_unique<MpeWorkload>(); }

}  // namespace pagoda::workloads
