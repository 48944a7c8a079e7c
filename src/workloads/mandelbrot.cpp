// Mandelbrot (MB): fractal rendering, one 64x64 image per task (Table 4).
//
// Per-pixel iteration counts vary wildly — the canonical irregular narrow
// task. Each task renders a different region of the set (derived from the
// seed), so tasks have different total work.
//
// Cost model: a warp's 32 lanes diverge on escape iteration; SIMT executes
// until the slowest lane escapes, so the warp charge uses a per-32-pixel-
// group iteration budget. The budget is synthetic (hash-derived, matching
// the irregular distribution) so Model and Compute modes charge identically;
// Compute mode additionally renders the true escape counts, verified against
// the CPU reference.
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr int kDefaultSide = 64;
constexpr int kMaxSide = 46340;  // side * side pixels stay an int
constexpr int kMaxIter = 1024;
constexpr double kOpsPerIter = 7.0;  // 2 muls, 3 adds, compare, loop

struct MbArgs {
  std::int32_t* out;       // width*height escape counts
  std::int32_t width;
  std::int32_t height;
  double center_x;
  double center_y;
  double span;
  std::uint64_t iter_seed;  // per-task synthetic-iteration stream
};

/// Synthetic iteration budget for a 32-pixel group: irregular across tasks
/// (base in [96, 992]) and across groups within a task (x0.5 .. x1.5).
double group_iters(std::uint64_t iter_seed, int group) {
  const std::uint64_t h = hash_index(iter_seed, static_cast<std::uint64_t>(group));
  const double base = 96.0 + static_cast<double>(iter_seed % 897);
  const double jitter =
      0.5 + static_cast<double>(h % 1024) / 1024.0;  // [0.5, 1.5)
  const double iters = base * jitter;
  return iters > kMaxIter ? kMaxIter : iters;
}

/// True escape count for one pixel (shared by kernel and CPU reference).
std::int32_t mandelbrot_pixel(double cx, double cy) {
  double zx = 0.0;
  double zy = 0.0;
  int iter = 0;
  while (iter < kMaxIter && zx * zx + zy * zy <= 4.0) {
    const double nzx = zx * zx - zy * zy + cx;
    zy = 2.0 * zx * zy + cy;
    zx = nzx;
    ++iter;
  }
  return iter;
}

void pixel_coords(const MbArgs& a, int px, double& cx, double& cy) {
  const int x = px % a.width;
  const int y = px / a.width;
  cx = a.center_x + a.span * (static_cast<double>(x) / a.width - 0.5);
  cy = a.center_y + a.span * (static_cast<double>(y) / a.height - 0.5);
}

gpu::KernelCoro mb_kernel(gpu::WarpCtx& ctx) {
  const MbArgs& a = ctx.args_as<MbArgs>();
  const int total_threads = ctx.threads_per_block * ctx.num_blocks;
  const int pixels = a.width * a.height;
  for (int base = ctx.warp_in_task * 32; base < pixels;
       base += total_threads) {
    const int group = base / 32;
    const double iters = group_iters(a.iter_seed, group);
    ctx.charge(iters * kOpsPerIter + ctx.costs().global_access);
    // Dependent FMA chain at ILP ~1: each iteration stalls on the previous
    // result for ~2x its issue time (Maxwell ALU latency ~6 cycles).
    ctx.charge_stall(iters * kOpsPerIter * 2.0 + ctx.costs().global_stall);
    if (ctx.compute()) {
      for (int lane = 0; lane < 32; ++lane) {
        const int px = base + lane;
        if (px >= pixels) break;
        double cx = 0.0;
        double cy = 0.0;
        pixel_coords(a, px, cx, cy);
        a.out[px] = mandelbrot_pixel(cx, cy);
      }
    }
  }
  co_return;
}

class MandelbrotWorkload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "MB",
                          .irregular = true,
                          .may_use_shared = false,
                          .needs_sync = false,
                          .default_registers = 28,
                          .max_input = kMaxSide};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    const int side = cfg.input_scale > 0 ? cfg.input_scale : kDefaultSide;
    side_ = side;
    const int pixels = side * side;
    const auto n = static_cast<std::size_t>(cfg.num_tasks);
    // Output buffer in Compute mode only; the region draws are the shape.
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    outputs_.assign(keep_data ? n * static_cast<std::size_t>(pixels) : 0, -1);
    tasks_.clear();
    tasks_.reserve(n);
    SplitMix64 rng(cfg.seed);
    for (int t = 0; t < cfg.num_tasks; ++t) {
      MbArgs args{};
      args.out = payload_at(outputs_, static_cast<std::size_t>(t) * pixels);
      args.width = side;
      args.height = side;
      // Random window over an interesting band of the set.
      args.center_x = -0.7 + 0.6 * (rng.next_double() - 0.5);
      args.center_y = 0.3 * (rng.next_double() - 0.5);
      args.span = 0.02 + 0.3 * rng.next_double();
      args.iter_seed = rng.next();

      TaskSpec spec;
      spec.params.fn = mb_kernel;
      spec.params.threads_per_block = cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      spec.h2d_bytes = 64;  // the region descriptor
      spec.d2h_bytes = static_cast<std::int64_t>(pixels) * 4;
      double ops = 0.0;
      for (int g = 0; g < (pixels + 31) / 32; ++g) {
        ops += 32.0 * group_iters(args.iter_seed, g) * kOpsPerIter;
      }
      spec.cpu_ops = ops;
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override {
    outputs_.assign(outputs_.size(), -1);
  }

  bool do_verify() const override {
    const int pixels = side_ * side_;
    for (const TaskSpec& spec : tasks_) {
      MbArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(MbArgs));
      for (int px = 0; px < pixels; ++px) {
        double cx = 0.0;
        double cy = 0.0;
        pixel_coords(args, px, cx, cy);
        if (args.out[px] != mandelbrot_pixel(cx, cy)) return false;
      }
    }
    return true;
  }

 private:
  int side_ = kDefaultSide;
  std::vector<std::int32_t> outputs_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_mandelbrot() {
  return std::make_unique<MandelbrotWorkload>();
}

}  // namespace pagoda::workloads
