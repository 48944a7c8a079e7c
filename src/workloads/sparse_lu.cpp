// Sparse LU Decomposition (SLUD): multifrontal sparse factorization from the
// Barcelona OpenMP Task Suite (Table 4). The matrix is divided into small
// dense frontal matrices; factoring one front is one narrow task.
//
// The defining property for the paper: the task count is NOT known
// statically — fronts become ready as their children in the elimination
// tree finish, so tasks are generated in dependency *waves*. GeMTC and
// static fusion need a predefined task count and cannot run SLUD (§6.2).
//
// Compute mode factors real diagonally-dominant fronts (in-place Doolittle
// LU, no pivoting needed) and verify() checks L·U against a regenerated A.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr int kDefaultFront = 32;  // 32x32 matrices (Table 3)
// Fronts reach n/2 + n - 1, rounded down to 8; n * n elements stay an int
// (46336^2 < 2^31).
constexpr int kMaxFront = 30896;

struct LuArgs {
  float* m;  // n*n, factored in place (L below diagonal, U on/above)
  std::int32_t n;
  std::uint64_t gen_seed;  // regenerates A for verification
};

double lu_issue(int n) {
  // A multifrontal front task is dominated by the trailing-submatrix update
  // (bmod: ~2 n^3 MACs) plus the block factorization (~2/3 n^3) and
  // assembly traffic.
  return 2.0 * n * n * n + 2.0 / 3.0 * n * n * n + 4.0 * n * n;
}
double lu_stall(const gpu::CostModel&, int n) {
  // Pivot-row broadcast and trailing-update dependency chains: ~2x issue.
  return 2.0 * lu_issue(n) / 32.0;
}

void fill_front(float* m, int n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (int i = 0; i < n * n; ++i) {
    m[i] = static_cast<float>(rng.next_double()) - 0.5f;
  }
  for (int i = 0; i < n; ++i) m[i * n + i] += static_cast<float>(n);
}

void lu_factor_inplace(float* m, int n) {
  for (int k = 0; k < n; ++k) {
    const float pivot = m[k * n + k];
    for (int i = k + 1; i < n; ++i) {
      m[i * n + k] /= pivot;
      const float lik = m[i * n + k];
      for (int j = k + 1; j < n; ++j) {
        m[i * n + j] -= lik * m[k * n + j];
      }
    }
  }
}

gpu::KernelCoro lu_kernel(gpu::WarpCtx& ctx) {
  const LuArgs& a = ctx.args_as<LuArgs>();
  // The factorization's outer loop is sequential; threads parallelize the
  // trailing-submatrix update. Charge the whole front to the warp team.
  const int warps = (ctx.threads_per_block * ctx.num_blocks + 31) / 32;
  ctx.charge(lu_issue(a.n) / (32.0 * warps));
  ctx.charge_stall(lu_stall(ctx.costs(), a.n) / warps);
  if (ctx.compute() && ctx.warp_in_task == 0) {
    // One representative performs the in-place factorization (the simulator
    // runs warps sequentially within an event, so electing warp 0 is both
    // correct and race-free).
    lu_factor_inplace(a.m, a.n);
  }
  co_return;
}

class SparseLuWorkload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "SLUD",
                          .irregular = true,
                          .may_use_shared = false,
                          .needs_sync = false,
                          .default_registers = 17,
                          .max_input = kMaxFront};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    SplitMix64 rng(cfg.seed);
    const int base_n = cfg.input_scale > 0 ? cfg.input_scale : kDefaultFront;
    const auto count = static_cast<std::size_t>(cfg.num_tasks);

    // Elimination-tree waves: roughly half the remaining fronts per level
    // (leaf-heavy, like a multifrontal tree).
    std::vector<int> wave_of(count);
    {
      std::size_t assigned = 0;
      int wave = 0;
      std::size_t remaining = count;
      while (assigned < count) {
        std::size_t in_wave = remaining - remaining / 2;
        if (in_wave == 0) in_wave = 1;
        for (std::size_t i = 0; i < in_wave && assigned < count; ++i) {
          wave_of[assigned++] = wave;
        }
        remaining -= std::min(in_wave, remaining);
        ++wave;
      }
    }

    std::vector<int> ns(count);
    std::size_t total_elems = 0;
    for (std::size_t t = 0; t < count; ++t) {
      // Fronts shrink toward the tree root but vary irregularly.
      int n = base_n / 2 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(base_n)));
      n = std::max(8, (n / 8) * 8);
      ns[t] = n;
      total_elems += static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    }
    // The fronts are payload (Compute mode only). Each front has its own
    // generator seed, drawn in both modes: it is a scalar argument.
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    fronts_.assign(keep_data ? total_elems : 0, 0.0f);

    tasks_.clear();
    tasks_.reserve(count);
    std::size_t off = 0;
    for (std::size_t t = 0; t < count; ++t) {
      const int n = ns[t];
      const std::uint64_t seed = rng.next();
      if (keep_data) fill_front(fronts_.data() + off, n, seed);

      LuArgs args{};
      args.m = payload_at(fronts_, off);
      args.n = n;
      args.gen_seed = seed;
      off += static_cast<std::size_t>(n) * static_cast<std::size_t>(n);

      TaskSpec spec;
      spec.params.fn = lu_kernel;
      spec.params.threads_per_block =
          cfg.dynamic_threads
              ? dynamic_thread_count(cfg.threads_per_task,
                                     static_cast<double>(n) / base_n)
              : cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      // The factorization works on device-resident fronts; only small
      // descriptors cross PCIe (why SLUD is 3% copy in Table 3).
      spec.h2d_bytes = 256;
      spec.d2h_bytes = 64;
      spec.cpu_ops = lu_issue(n);
      spec.wave = wave_of[t];
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override {
    // Factoring is in place: regenerate every front from its seed (Model
    // mode has no fronts).
    for (const TaskSpec& spec : tasks_) {
      LuArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(LuArgs));
      if (args.m != nullptr) fill_front(args.m, args.n, args.gen_seed);
    }
  }

  bool do_verify() const override {
    for (const TaskSpec& spec : tasks_) {
      LuArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(LuArgs));
      const int n = args.n;
      std::vector<float> a_orig(static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(n));
      fill_front(a_orig.data(), n, args.gen_seed);
      // Check L·U == A element-wise.
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          float acc = 0.0f;
          const int kmax = std::min(i, j);
          for (int k = 0; k <= kmax; ++k) {
            const float lik = (k == i) ? 1.0f : args.m[i * n + k];
            const float ukj = args.m[k * n + j];
            acc += lik * ukj;
          }
          const float want = a_orig[static_cast<std::size_t>(i * n + j)];
          if (std::abs(acc - want) > 1e-2f * (1.0f + std::abs(want))) {
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  std::vector<float> fronts_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_sparse_lu() {
  return std::make_unique<SparseLuWorkload>();
}

}  // namespace pagoda::workloads
