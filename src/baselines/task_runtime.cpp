#include "baselines/task_runtime.h"

#include <algorithm>
#include <cstdlib>

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

namespace {

/// The comma-separated parts of `spec` (one part when it has no comma).
std::vector<std::string> split(std::string_view spec) {
  std::vector<std::string> parts(1);
  for (const char c : spec) {
    if (c == ',') {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

}  // namespace

std::vector<std::string> parse_runtimes(std::string_view spec) {
  const std::span<const std::string_view> valid = all_runtime_names();
  if (spec == "all") return {valid.begin(), valid.end()};
  std::vector<std::string> names = split(spec);
  for (const std::string& n : names) {
    if (std::find(valid.begin(), valid.end(), n) == valid.end()) return {};
  }
  return names;
}

std::vector<gpu::GpuSpec> parse_fleet(std::string_view spec) {
  std::vector<gpu::GpuSpec> specs;
  if (!spec.empty() &&
      spec.find_first_not_of("0123456789") == std::string_view::npos) {
    // Digits only; strtoll saturates on overflow, so a huge count fails the
    // range check instead of wrapping.
    const long long n = std::strtoll(std::string(spec).c_str(), nullptr, 10);
    if (n < 1 || n > 256) return {};
    specs.assign(static_cast<std::size_t>(n), gpu::GpuSpec::titan_x());
    return specs;
  }
  for (const std::string& name : split(spec)) {
    if (name == "titanx" || name == "titan_x") {
      specs.push_back(gpu::GpuSpec::titan_x());
    } else if (name == "k40" || name == "tesla_k40") {
      specs.push_back(gpu::GpuSpec::tesla_k40());
    } else {
      return {};
    }
  }
  return specs;
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
