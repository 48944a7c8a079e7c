#include "baselines/task_runtime.h"

#include "baselines/factories.h"
#include "common/check.h"

namespace pagoda::baselines {

int max_wave(const workloads::Workload& w) { return w.max_wave(); }

bool TaskRuntime::supports(const workloads::Workload&) const { return true; }

RunResult TaskRuntime::run(workloads::Workload& w, const RunConfig& cfg) {
  PAGODA_CHECK_MSG(cfg.mode != gpu::ExecMode::Compute ||
                       w.mode() == gpu::ExecMode::Compute,
                   "a Compute-mode run needs a Compute-generated workload: "
                   "Model mode generates shapes only");
  return do_run(w, cfg);
}

engine::SessionConfig device_session(const RunConfig& cfg) {
  engine::SessionConfig sc;
  sc.spec = cfg.spec;
  sc.pcie = cfg.pcie;
  sc.host = cfg.host;
  sc.collector = cfg.collector;
  return sc;
}

engine::SessionConfig pagoda_session(const RunConfig& cfg) {
  engine::SessionConfig sc = device_session(cfg);
  sc.pagoda_runtime = true;
  sc.pagoda = cfg.pagoda;
  sc.pagoda.mode = cfg.mode;
  return sc;
}

std::span<const std::string_view> all_runtime_names() {
  static constexpr std::string_view kNames[] = {
      "Sequential", "PThreads", "HyperQ",  "GeMTC",
      "Fusion",     "Pagoda",   "PagodaBatching", "Cluster"};
  return kNames;
}

std::unique_ptr<TaskRuntime> make_runtime(std::string_view name) {
  if (name == "Pagoda") return make_pagoda_runtime(/*batching=*/false);
  if (name == "PagodaBatching") return make_pagoda_runtime(/*batching=*/true);
  if (name == "HyperQ") return make_hyperq_runtime();
  if (name == "GeMTC") return make_gemtc_runtime();
  if (name == "Fusion") return make_fusion_runtime();
  if (name == "PThreads") return make_cpu_runtime(/*cores=*/20);
  if (name == "Sequential") return make_cpu_runtime(/*cores=*/1);
  if (name == "Cluster") return make_cluster_runtime();
  PAGODA_CHECK_MSG(false, "unknown runtime name");
}

}  // namespace pagoda::baselines
