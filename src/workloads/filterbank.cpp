// FilterBank (FB): StreamIt-style multi-stage signal filter (paper Fig 1c).
//
// Stages per task, separated by syncBlock(): convolve with H, down-sample,
// up-sample, convolve with F. Each task processes one signal of width 2K
// (Table 3); processing one radio's signal is one narrow task.
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "gpu/simt.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr int kDefaultWidth = 2048;
// Irregular widths reach 1.75x, rounded up to 64; the rounding stays an int.
constexpr int kMaxWidth = 1227133477;
constexpr int kTaps = 32;      // N_col in the paper's kernel
constexpr int kDownFactor = 8;  // N_samp

struct FbArgs {
  const float* r;      // input signal (width)
  const float* h;      // filter H (kTaps)
  const float* f;      // filter F (kTaps)
  float* vect_h;       // scratch: H-convolved (width)
  float* vect_dn;      // scratch: down-sampled (width/kDownFactor)
  float* vect_up;      // scratch: up-sampled (width)
  float* vect_f;       // output (width)
  std::int32_t width;
};

// Per-element costs: a kTaps-long MAC loop with mostly-cached loads.
double conv_issue_per_elem() { return 2.0 * kTaps + 6.0; }
double conv_stall_per_elem(const gpu::CostModel&) {
  // Accumulator dependency chain + window loads: ~2x the issue time.
  return 2.0 * conv_issue_per_elem();
}

gpu::KernelCoro fb_kernel(gpu::WarpCtx& ctx) {
  const FbArgs& a = ctx.args_as<FbArgs>();
  const int n = a.width;
  const int n_dn = n / kDownFactor;

  // Stage 1: convolve H.
  gpu::simt::charge_elements(ctx, n, conv_issue_per_elem(),
                             conv_stall_per_elem(ctx.costs()));
  gpu::simt::for_each_element(ctx, n, [&](int i) {
    float acc = 0.0f;
    for (int k = 0; k < kTaps; ++k) {
      if (i - k >= 0) acc += a.r[i - k] * a.h[k];
    }
    a.vect_h[i] = acc;
  });
  co_await ctx.sync_block();

  // Stage 2: down-sample.
  gpu::simt::charge_elements(ctx, n_dn, 4.0, 8.0);
  ctx.charge_stall(ctx.costs().global_stall);
  gpu::simt::for_each_element(ctx, n_dn, [&](int i) {
    a.vect_dn[i] = a.vect_h[i * kDownFactor];
  });
  co_await ctx.sync_block();

  // Stage 3: up-sample (zero-stuffing).
  gpu::simt::charge_elements(ctx, n, 3.0, 6.0);
  ctx.charge_stall(ctx.costs().global_stall);
  gpu::simt::for_each_element(ctx, n, [&](int i) {
    a.vect_up[i] = (i % kDownFactor == 0) ? a.vect_dn[i / kDownFactor] : 0.0f;
  });
  co_await ctx.sync_block();

  // Stage 4: convolve F.
  gpu::simt::charge_elements(ctx, n, conv_issue_per_elem(),
                             conv_stall_per_elem(ctx.costs()));
  gpu::simt::for_each_element(ctx, n, [&](int i) {
    float acc = 0.0f;
    for (int k = 0; k < kTaps; ++k) {
      if (i - k >= 0) acc += a.f[k] * a.vect_up[i - k];
    }
    a.vect_f[i] = acc;
  });
  co_return;
}

void fb_reference(const FbArgs& a, std::vector<float>& out) {
  const int n = a.width;
  const int n_dn = n / kDownFactor;
  std::vector<float> vh(static_cast<std::size_t>(n));
  std::vector<float> vdn(static_cast<std::size_t>(n_dn));
  std::vector<float> vup(static_cast<std::size_t>(n));
  out.assign(static_cast<std::size_t>(n), 0.0f);
  for (int i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (int k = 0; k < kTaps; ++k) {
      if (i - k >= 0) acc += a.r[i - k] * a.h[k];
    }
    vh[static_cast<std::size_t>(i)] = acc;
  }
  for (int i = 0; i < n_dn; ++i) vdn[static_cast<std::size_t>(i)] = vh[static_cast<std::size_t>(i * kDownFactor)];
  for (int i = 0; i < n; ++i) {
    vup[static_cast<std::size_t>(i)] =
        (i % kDownFactor == 0) ? vdn[static_cast<std::size_t>(i / kDownFactor)] : 0.0f;
  }
  for (int i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (int k = 0; k < kTaps; ++k) {
      if (i - k >= 0) acc += a.f[k] * vup[i - k];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
}

class FilterBankWorkload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "FB",
                          .irregular = false,
                          .may_use_shared = false,
                          .needs_sync = true,
                          .default_registers = 21,
                          .max_input = kMaxWidth};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    SplitMix64 rng(cfg.seed);
    const int base_width = cfg.input_scale > 0 ? cfg.input_scale : kDefaultWidth;
    const auto n = static_cast<std::size_t>(cfg.num_tasks);
    widths_.resize(n);
    std::size_t total_width = 0;
    for (std::size_t t = 0; t < n; ++t) {
      int w = base_width;
      if (cfg.irregular_sizes) {
        // Pseudo-random sizes (Fig 9): x0.25 .. x1.75, multiple of 64.
        w = static_cast<int>(base_width * (0.25 + 1.5 * rng.next_double()));
        w = ((w + 63) / 64) * 64;
      }
      widths_[t] = w;
      total_width += static_cast<std::size_t>(w);
    }
    // Payload and stage scratch (Compute mode only), drawn after every shape.
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    inputs_.assign(keep_data ? total_width : 0, 0.0f);
    for (auto& v : inputs_) v = static_cast<float>(rng.next_double()) - 0.5f;
    filters_h_.assign(keep_data ? kTaps : 0, 0.0f);
    filters_f_.assign(keep_data ? kTaps : 0, 0.0f);
    for (std::size_t k = 0; k < filters_h_.size(); ++k) {
      filters_h_[k] = static_cast<float>(rng.next_double());
      filters_f_[k] = static_cast<float>(rng.next_double());
    }
    scratch_.assign(
        keep_data ? total_width * 3 + total_width / kDownFactor : 0, 0.0f);
    outputs_.assign(keep_data ? total_width : 0, 0.0f);

    tasks_.clear();
    tasks_.reserve(n);
    std::size_t off = 0;
    std::size_t scratch_off = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const int w = widths_[t];
      FbArgs args{};
      args.r = payload_at(inputs_, off);
      args.h = payload_at(filters_h_, 0);
      args.f = payload_at(filters_f_, 0);
      args.vect_h = payload_at(scratch_, scratch_off);
      args.vect_dn = payload_at(scratch_, scratch_off + w);
      args.vect_up = payload_at(scratch_, scratch_off + w + w / kDownFactor);
      args.vect_f = payload_at(outputs_, off);
      args.width = w;
      scratch_off += static_cast<std::size_t>(2 * w + w / kDownFactor);
      off += static_cast<std::size_t>(w);

      TaskSpec spec;
      spec.params.fn = fb_kernel;
      spec.params.threads_per_block =
          cfg.dynamic_threads
              ? dynamic_thread_count(cfg.threads_per_task,
                                     static_cast<double>(w) / base_width)
              : cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.needs_sync = true;
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      spec.h2d_bytes = static_cast<std::int64_t>(w) * 4 + 2 * kTaps * 4;
      spec.d2h_bytes = static_cast<std::int64_t>(w) * 4;
      spec.cpu_ops = static_cast<double>(w) * (2 * conv_issue_per_elem() + 7);
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override { outputs_.assign(outputs_.size(), 0.0f); }

  bool do_verify() const override {
    std::vector<float> ref;
    for (const TaskSpec& spec : tasks_) {
      FbArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(FbArgs));
      fb_reference(args, ref);
      for (int i = 0; i < args.width; ++i) {
        const float got = args.vect_f[i];
        const float want = ref[static_cast<std::size_t>(i)];
        if (std::abs(got - want) > 1e-4f * (1.0f + std::abs(want))) return false;
      }
    }
    return true;
  }

 private:
  std::vector<int> widths_;
  std::vector<float> inputs_;
  std::vector<float> filters_h_;
  std::vector<float> filters_f_;
  std::vector<float> scratch_;
  std::vector<float> outputs_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_filterbank() {
  return std::make_unique<FilterBankWorkload>();
}

}  // namespace pagoda::workloads
