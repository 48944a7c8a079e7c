// BeamFormer (BF): StreamIt-style beam forming — per-channel FIR filtering
// followed by a weighted coherent sum across channels. Each independently
// arriving signal beam is one narrow task (Table 4).
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "gpu/simt.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr int kDefaultWidth = 2048;
// Irregular widths reach 1.75x, rounded up to 64; the rounding stays an int.
constexpr int kMaxWidth = 1227133477;
constexpr int kChannels = 4;
constexpr int kTaps = 64;

struct BfArgs {
  const float* signals;   // kChannels * width, channel-major
  const float* fir;       // kChannels * kTaps
  const float* weights;   // kChannels
  float* out;             // width
  std::int32_t width;
};

double issue_per_elem() { return kChannels * (2.0 * kTaps + 4.0); }
double stall_per_elem(const gpu::CostModel&) {
  // FIR accumulator chains per channel: ~2x issue.
  return 2.0 * issue_per_elem();
}

float bf_element(const BfArgs& a, int i) {
  float acc = 0.0f;
  for (int c = 0; c < kChannels; ++c) {
    const float* sig = a.signals + static_cast<std::ptrdiff_t>(c) * a.width;
    const float* fir = a.fir + static_cast<std::ptrdiff_t>(c) * kTaps;
    float filtered = 0.0f;
    for (int k = 0; k < kTaps; ++k) {
      if (i - k >= 0) filtered += sig[i - k] * fir[k];
    }
    acc += a.weights[c] * filtered;
  }
  return acc;
}

gpu::KernelCoro bf_kernel(gpu::WarpCtx& ctx) {
  const BfArgs& a = ctx.args_as<BfArgs>();
  gpu::simt::charge_elements(ctx, a.width, issue_per_elem(),
                             stall_per_elem(ctx.costs()));
  gpu::simt::for_each_element(ctx, a.width,
                              [&](int i) { a.out[i] = bf_element(a, i); });
  co_return;
}

class BeamFormerWorkload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "BF",
                          .irregular = false,
                          .may_use_shared = false,
                          .needs_sync = false,
                          .default_registers = 34,
                          .max_input = kMaxWidth};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    SplitMix64 rng(cfg.seed);
    const int base_width = cfg.input_scale > 0 ? cfg.input_scale : kDefaultWidth;
    const auto n = static_cast<std::size_t>(cfg.num_tasks);
    widths_.resize(n);
    std::size_t total = 0;
    for (std::size_t t = 0; t < n; ++t) {
      int w = base_width;
      if (cfg.irregular_sizes) {
        w = static_cast<int>(base_width * (0.25 + 1.5 * rng.next_double()));
        w = ((w + 63) / 64) * 64;
      }
      widths_[t] = w;
      total += static_cast<std::size_t>(w);
    }
    // Payload (Compute mode only), drawn after every shape.
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    signals_.assign(keep_data ? total * kChannels : 0, 0.0f);
    for (auto& v : signals_) v = static_cast<float>(rng.next_double()) - 0.5f;
    fir_.assign(keep_data ? kChannels * kTaps : 0, 0.0f);
    for (auto& v : fir_) v = static_cast<float>(rng.next_double()) * 0.1f;
    weights_.assign(keep_data ? kChannels : 0, 0.0f);
    for (auto& v : weights_) v = static_cast<float>(rng.next_double());
    outputs_.assign(keep_data ? total : 0, 0.0f);

    tasks_.clear();
    tasks_.reserve(n);
    std::size_t off = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const int w = widths_[t];
      BfArgs args{};
      args.signals = payload_at(signals_, off * kChannels);
      args.fir = payload_at(fir_, 0);
      args.weights = payload_at(weights_, 0);
      args.out = payload_at(outputs_, off);
      args.width = w;
      off += static_cast<std::size_t>(w);

      TaskSpec spec;
      spec.params.fn = bf_kernel;
      spec.params.threads_per_block =
          cfg.dynamic_threads
              ? dynamic_thread_count(cfg.threads_per_task,
                                     static_cast<double>(w) / base_width)
              : cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      // Per task only the new signal block crosses PCIe (Table 3: BF is 13%
      // copy); channel state and FIR weights are device-resident.
      spec.h2d_bytes = static_cast<std::int64_t>(w) * 4;
      spec.d2h_bytes = static_cast<std::int64_t>(w) * 4;
      spec.cpu_ops = static_cast<double>(w) * issue_per_elem();
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override { outputs_.assign(outputs_.size(), 0.0f); }

  bool do_verify() const override {
    for (const TaskSpec& spec : tasks_) {
      BfArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(BfArgs));
      for (int i = 0; i < args.width; ++i) {
        const float want = bf_element(args, i);
        if (std::abs(args.out[i] - want) > 1e-4f * (1.0f + std::abs(want))) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  std::vector<int> widths_;
  std::vector<float> signals_;
  std::vector<float> fir_;
  std::vector<float> weights_;
  std::vector<float> outputs_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_beamformer() {
  return std::make_unique<BeamFormerWorkload>();
}

}  // namespace pagoda::workloads
