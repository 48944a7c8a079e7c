// Image Convolution (CONV): 5x5 filter over one 128x128 image per task
// (Table 3), the blur/edge-detect building block from the CUDA SDK samples.
// Regular, extremely short-running tasks — the paper notes CONV benefits
// least from continuous spawning (Fig 11) for exactly that reason.
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "gpu/simt.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr int kDefaultSide = 128;
constexpr int kMaxSide = 46340;  // side * side pixels stay an int
constexpr int kK = 5;  // filter side
constexpr int kHalo = kK / 2;

struct ConvArgs {
  const float* in;      // side*side
  const float* filter;  // kK*kK
  float* out;           // side*side
  std::int32_t side;
};

double issue_per_pixel() { return kK * kK * 2.0 + 6.0; }
double stall_per_pixel(const gpu::CostModel&) {
  // Window loads + accumulator chain: ~2x the issue time per pixel.
  return 2.0 * issue_per_pixel();
}

float conv_pixel(const ConvArgs& a, int x, int y) {
  float acc = 0.0f;
  for (int dy = -kHalo; dy <= kHalo; ++dy) {
    for (int dx = -kHalo; dx <= kHalo; ++dx) {
      const int sx = x + dx;
      const int sy = y + dy;
      if (sx < 0 || sy < 0 || sx >= a.side || sy >= a.side) continue;
      acc += a.in[sy * a.side + sx] *
             a.filter[(dy + kHalo) * kK + (dx + kHalo)];
    }
  }
  return acc;
}

gpu::KernelCoro conv_kernel(gpu::WarpCtx& ctx) {
  const ConvArgs& a = ctx.args_as<ConvArgs>();
  const int pixels = a.side * a.side;
  gpu::simt::charge_elements(ctx, pixels, issue_per_pixel(),
                             stall_per_pixel(ctx.costs()));
  gpu::simt::for_each_element(ctx, pixels, [&](int i) {
    a.out[i] = conv_pixel(a, i % a.side, i / a.side);
  });
  co_return;
}

class ConvolutionWorkload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "CONV",
                          .irregular = false,
                          .may_use_shared = false,
                          .needs_sync = false,
                          .default_registers = 25,
                          .max_input = kMaxSide};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    SplitMix64 rng(cfg.seed);
    const int side = cfg.input_scale > 0 ? cfg.input_scale : kDefaultSide;
    const int pixels = side * side;
    const auto n = static_cast<std::size_t>(cfg.num_tasks);
    // Every task has the same shape; the images and the filter are payload
    // (Compute mode only).
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    inputs_.assign(keep_data ? n * static_cast<std::size_t>(pixels) : 0, 0.0f);
    for (auto& v : inputs_) v = static_cast<float>(rng.next_double());
    filter_.assign(keep_data ? kK * kK : 0, 0.0f);
    for (auto& v : filter_) v = static_cast<float>(rng.next_double()) / (kK * kK);
    outputs_.assign(inputs_.size(), 0.0f);

    tasks_.clear();
    tasks_.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      ConvArgs args{};
      args.in = payload_at(inputs_, t * static_cast<std::size_t>(pixels));
      args.filter = payload_at(filter_, 0);
      args.out = payload_at(outputs_, t * static_cast<std::size_t>(pixels));
      args.side = side;

      TaskSpec spec;
      spec.params.fn = conv_kernel;
      spec.params.threads_per_block = cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      spec.h2d_bytes = static_cast<std::int64_t>(pixels) * 4;
      spec.d2h_bytes = static_cast<std::int64_t>(pixels) * 4;
      spec.cpu_ops = static_cast<double>(pixels) * issue_per_pixel();
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override { outputs_.assign(outputs_.size(), 0.0f); }

  bool do_verify() const override {
    for (const TaskSpec& spec : tasks_) {
      ConvArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(ConvArgs));
      for (int y = 0; y < args.side; ++y) {
        for (int x = 0; x < args.side; ++x) {
          const float want = conv_pixel(args, x, y);
          const float got = args.out[y * args.side + x];
          if (std::abs(got - want) > 1e-4f * (1.0f + std::abs(want))) {
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  std::vector<float> inputs_;
  std::vector<float> filter_;
  std::vector<float> outputs_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_convolution() {
  return std::make_unique<ConvolutionWorkload>();
}

}  // namespace pagoda::workloads
