#include "workloads/workload.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "workloads/factories.h"

namespace pagoda::workloads {

void Workload::generate(const WorkloadConfig& cfg) {
  PAGODA_CHECK_MSG(cfg.input_scale <= traits().max_input,
                   "input_scale over the workload's max_input");
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
