#include "workloads/workload.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "workloads/factories.h"

namespace pagoda::workloads {

void Workload::generate(const WorkloadConfig& cfg) {
  do_generate(cfg);
  mode_ = cfg.mode;
  max_wave_ = 0;
  for (const TaskSpec& t : tasks()) max_wave_ = std::max(max_wave_, t.wave);
}

bool Workload::verify() const {
  PAGODA_CHECK_MSG(mode_ == gpu::ExecMode::Compute,
                   "verify() needs a Compute-mode workload: Model mode "
                   "generates shapes only");
  return do_verify();
}

std::int64_t Workload::total_h2d_bytes() const {
  std::int64_t total = 0;
  for (const TaskSpec& t : tasks()) total += t.h2d_bytes;
  return total;
}

std::int64_t Workload::total_d2h_bytes() const {
  std::int64_t total = 0;
  for (const TaskSpec& t : tasks()) total += t.d2h_bytes;
  return total;
}

double Workload::total_cpu_ops() const {
  double total = 0;
  for (const TaskSpec& t : tasks()) total += t.cpu_ops;
  return total;
}

namespace {
constexpr std::array<std::string_view, 9> kNames = {
    "MB", "FB", "BF", "CONV", "DCT", "MM", "SLUD", "3DES", "MPE"};
}

std::span<const std::string_view> all_workload_names() { return kNames; }

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "MB") return make_mandelbrot();
  if (name == "FB") return make_filterbank();
  if (name == "BF") return make_beamformer();
  if (name == "CONV") return make_convolution();
  if (name == "DCT") return make_dct8x8();
  if (name == "MM") return make_matmul();
  if (name == "SLUD") return make_sparse_lu();
  if (name == "3DES") return make_triple_des();
  if (name == "MPE") return make_mpe();
  PAGODA_CHECK_MSG(false, "unknown workload name");
}

}  // namespace pagoda::workloads
