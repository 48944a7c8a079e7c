// MatrixMul (MM): one small dense multiplication per task (64x64 default) —
// the earthquake-engineering-simulator behaviour of Table 4, refactored from
// the CUDA SDK sample.
//
// Variants (Table 5): the tiled shared-memory kernel stages 16x16 tiles of A
// and B (2 KB), cutting global traffic 16x at the cost of a shmem lease and
// syncBlock per tile step; the naive kernel streams B column-wise from
// global memory with poor locality.
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr int kDefaultN = 64;
// Irregular matrices reach 1.5x n, rounded up to 8; n * n elements stay an
// int (46336^2 < 2^31).
constexpr int kMaxN = 30891;
constexpr int kTile = 16;
constexpr std::int32_t kShmemBytes = 2 * kTile * kTile * 4;  // 2 KB

struct MmArgs {
  const float* a;
  const float* b;
  float* c;
  std::int32_t n;
  std::int32_t use_shmem;
};

double issue_per_elem(int n, bool shmem) {
  const double mac = 2.0 * n;
  const double mem = shmem ? (2.0 * n / kTile) * 2.0 + 2.0 * n  // shared reads
                           : 2.0 * n * 1.5;                     // global reads
  return mac + mem;
}
double stall_per_elem(const gpu::CostModel&, int n, bool shmem) {
  // Tiled: global traffic cut kTile-fold, stalls mostly hidden by the tile
  // reuse (~1.5x issue). Naive: column-strided B loads miss constantly
  // (~4x issue).
  return shmem ? 1.5 * issue_per_elem(n, true) : 4.0 * issue_per_elem(n, false);
}

gpu::KernelCoro mm_kernel(gpu::WarpCtx& ctx) {
  const MmArgs& a = ctx.args_as<MmArgs>();
  const bool shmem = a.use_shmem != 0;
  const int total_threads = ctx.threads_per_block * ctx.num_blocks;
  const int elems = a.n * a.n;
  int mine = 0;
  for (int i = ctx.tid(0); i < elems; i += total_threads) ++mine;

  if (shmem) {
    // Tile loop: each of the n/kTile steps stages two tiles then syncs.
    const int steps = (a.n + kTile - 1) / kTile;
    for (int s = 0; s < steps; ++s) {
      ctx.charge(2.0 * kTile * ctx.costs().global_access / 4.0);
      ctx.charge_stall(ctx.costs().global_stall);
      co_await ctx.sync_block();
      ctx.charge(mine * issue_per_elem(a.n, true) / steps);
      co_await ctx.sync_block();
    }
    ctx.charge_stall(mine * stall_per_elem(ctx.costs(), a.n, true));
  } else {
    ctx.charge(mine * issue_per_elem(a.n, false));
    ctx.charge_stall(mine * stall_per_elem(ctx.costs(), a.n, false));
  }

  if (ctx.compute()) {
    for (int lane = 0; lane < 32; ++lane) {
      for (int i = ctx.tid(lane); i < elems; i += total_threads) {
        const int row = i / a.n;
        const int col = i % a.n;
        float acc = 0.0f;
        for (int k = 0; k < a.n; ++k) {
          acc += a.a[row * a.n + k] * a.b[k * a.n + col];
        }
        a.c[i] = acc;
      }
    }
  }
  co_return;
}

class MatMulWorkload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "MM",
                          .irregular = false,
                          .may_use_shared = true,
                          .needs_sync = true,
                          .default_registers = 30,
                          .max_input = kMaxN};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    SplitMix64 rng(cfg.seed);
    const int base_n = cfg.input_scale > 0 ? cfg.input_scale : kDefaultN;
    const auto count = static_cast<std::size_t>(cfg.num_tasks);
    ns_.resize(count);
    std::size_t total_elems = 0;
    for (std::size_t t = 0; t < count; ++t) {
      int n = base_n;
      if (cfg.irregular_sizes) {
        // Different-but-small matrix sizes per task (Table 4's simulator).
        n = static_cast<int>(base_n * (0.5 + rng.next_double()));
        n = ((n + 7) / 8) * 8;
      }
      ns_[t] = n;
      total_elems += static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    }
    // Payload (Compute mode only), drawn after every shape.
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    a_.assign(keep_data ? total_elems : 0, 0.0f);
    b_.assign(keep_data ? total_elems : 0, 0.0f);
    for (auto& v : a_) v = static_cast<float>(rng.next_double()) - 0.5f;
    for (auto& v : b_) v = static_cast<float>(rng.next_double()) - 0.5f;
    c_.assign(keep_data ? total_elems : 0, 0.0f);

    tasks_.clear();
    tasks_.reserve(count);
    std::size_t off = 0;
    for (std::size_t t = 0; t < count; ++t) {
      const int n = ns_[t];
      MmArgs args{};
      args.a = payload_at(a_, off);
      args.b = payload_at(b_, off);
      args.c = payload_at(c_, off);
      args.n = n;
      args.use_shmem = cfg.use_shared_memory ? 1 : 0;
      off += static_cast<std::size_t>(n) * static_cast<std::size_t>(n);

      TaskSpec spec;
      spec.params.fn = mm_kernel;
      spec.params.threads_per_block =
          cfg.dynamic_threads
              ? dynamic_thread_count(cfg.threads_per_task,
                                     static_cast<double>(n) / base_n)
              : cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.needs_sync = cfg.use_shared_memory;
      spec.params.shared_mem_bytes = cfg.use_shared_memory ? kShmemBytes : 0;
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      spec.h2d_bytes = static_cast<std::int64_t>(n) * n * 4 * 2;
      spec.d2h_bytes = static_cast<std::int64_t>(n) * n * 4;
      spec.cpu_ops = static_cast<double>(n) * n * (2.0 * n + 4.0);
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override { c_.assign(c_.size(), 0.0f); }

  bool do_verify() const override {
    for (const TaskSpec& spec : tasks_) {
      MmArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(MmArgs));
      for (int row = 0; row < args.n; ++row) {
        for (int col = 0; col < args.n; ++col) {
          float want = 0.0f;
          for (int k = 0; k < args.n; ++k) {
            want += args.a[row * args.n + k] * args.b[k * args.n + col];
          }
          const float got = args.c[row * args.n + col];
          if (std::abs(got - want) > 1e-3f * (1.0f + std::abs(want))) {
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  std::vector<int> ns_;
  std::vector<float> a_;
  std::vector<float> b_;
  std::vector<float> c_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_matmul() {
  return std::make_unique<MatMulWorkload>();
}

}  // namespace pagoda::workloads
