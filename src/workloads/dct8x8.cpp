// DCT8x8 (DCT): JPEG-style 8x8 block DCT over one 128x128 image per task
// (CUDA SDK dct8x8 sample; Table 4's surveillance-camera scenario).
//
// Two kernel variants (Table 5):
//  * shared-memory: image slabs staged in shared memory; global traffic is
//    2 accesses/pixel and the task requests an 8 KB block + syncBlock. The
//    8 KB request limits MTB co-residency — the paper reports 25% occupancy
//    for this variant, traded against the faster memory path.
//  * no-shared-memory: every DCT pass touches global memory (6 accesses/
//    pixel with heavier stalls), no shmem request, 97% occupancy.
// Both variants compute the same function: per 8x8 block B = C·A·Cᵀ.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr int kDefaultSide = 128;
// Irregular frames reach 1.5x the side, rounded up to 8; side * side pixels
// stay an int (46336^2 < 2^31).
constexpr int kMaxSide = 30891;
constexpr std::int32_t kShmemBytes = 8 * 1024;

struct DctArgs {
  const float* in;
  float* out;
  std::int32_t side;
  std::int32_t use_shmem;  // charge profile selector
};

/// 8-point DCT-II basis, c[k][x] = s(k) cos((2x+1)kπ/16).
const std::array<std::array<float, 8>, 8>& dct_basis() {
  static const auto basis = [] {
    std::array<std::array<float, 8>, 8> c{};
    for (int k = 0; k < 8; ++k) {
      const double s = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int x = 0; x < 8; ++x) {
        c[static_cast<std::size_t>(k)][static_cast<std::size_t>(x)] =
            static_cast<float>(
                s * std::cos((2.0 * x + 1.0) * k * 3.14159265358979323846 /
                             16.0));
      }
    }
    return c;
  }();
  return basis;
}

/// DCT of the 8x8 block at (bx, by): out = C·A·Cᵀ.
void dct_block(const DctArgs& a, int bx, int by, float* dst) {
  const auto& c = dct_basis();
  float tmp[8][8];
  // Rows: tmp = A·Cᵀ  (tmp[y][k] = Σ_x A[y][x]·C[k][x])
  for (int y = 0; y < 8; ++y) {
    for (int k = 0; k < 8; ++k) {
      float acc = 0.0f;
      for (int x = 0; x < 8; ++x) {
        acc += a.in[(by * 8 + y) * a.side + bx * 8 + x] *
               c[static_cast<std::size_t>(k)][static_cast<std::size_t>(x)];
      }
      tmp[y][k] = acc;
    }
  }
  // Columns: out[k][l] = Σ_y C[k][y]·tmp[y][l]
  for (int k = 0; k < 8; ++k) {
    for (int l = 0; l < 8; ++l) {
      float acc = 0.0f;
      for (int y = 0; y < 8; ++y) {
        acc += c[static_cast<std::size_t>(k)][static_cast<std::size_t>(y)] *
               tmp[y][l];
      }
      dst[k * 8 + l] = acc;
    }
  }
}

// Per-8x8-block costs: 2 passes of 8x8x8 MACs.
double issue_per_block(bool shmem) {
  const double mac = 2.0 * 512.0 * 2.0;
  const double mem = shmem ? 64.0 * 2.0 /*coalesced global*/ + 128.0 /*shared*/
                           : 64.0 * 6.0;
  return mac + mem;
}
double stall_per_block(const gpu::CostModel&, bool shmem) {
  // Shared-memory staging removes the per-pass global round-trips; the
  // no-shmem variant stalls on global memory every pass.
  return shmem ? 1.5 * issue_per_block(true) : 3.0 * issue_per_block(false);
}

gpu::KernelCoro dct_kernel(gpu::WarpCtx& ctx) {
  const DctArgs& a = ctx.args_as<DctArgs>();
  const bool shmem = a.use_shmem != 0;
  const int total_threads = ctx.threads_per_block * ctx.num_blocks;
  const int blocks = (a.side / 8) * (a.side / 8);
  int mine = 0;
  for (int b = ctx.tid(0); b < blocks; b += total_threads) ++mine;
  if (shmem) {
    // Stage the slab: coalesced loads into shared memory, then sync.
    ctx.charge(mine * 64.0 * ctx.costs().global_access / 8.0);
    ctx.charge_stall(mine * ctx.costs().global_stall);
    co_await ctx.sync_block();
  }
  ctx.charge(mine * issue_per_block(shmem));
  ctx.charge_stall(mine * stall_per_block(ctx.costs(), shmem));
  if (ctx.compute()) {
    const int blocks_per_row = a.side / 8;
    for (int lane = 0; lane < 32; ++lane) {
      for (int b = ctx.tid(lane); b < blocks; b += total_threads) {
        float dst[64];
        dct_block(a, b % blocks_per_row, b / blocks_per_row, dst);
        const int bx = b % blocks_per_row;
        const int by = b / blocks_per_row;
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            a.out[(by * 8 + y) * a.side + bx * 8 + x] = dst[y * 8 + x];
          }
        }
      }
    }
  }
  co_return;
}

class Dct8x8Workload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "DCT",
                          .irregular = false,
                          .may_use_shared = true,
                          .needs_sync = true,
                          .default_registers = 33,
                          .max_input = kMaxSide};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    SplitMix64 rng(cfg.seed);
    const int base_side = cfg.input_scale > 0 ? cfg.input_scale : kDefaultSide;
    const auto n = static_cast<std::size_t>(cfg.num_tasks);
    // Per-task image sides. Irregular mode varies the camera resolution per
    // task (different-but-small frames, like MM's matrix sweep) while every
    // task keeps DECLARING the full 8 KB slab — the conservative worst-case
    // reservation. The actually-touched slab is one 8-row band, side*8*4
    // bytes, and the used-footprint hint exposes exactly that gap to the
    // virtual resource plane: at --oversub > 1 the MasterKernel backs only
    // the band physically and co-schedules more blocks per MTB.
    sides_.resize(n);
    std::size_t total_pixels = 0;
    for (std::size_t t = 0; t < n; ++t) {
      int side = base_side;
      if (cfg.irregular_sizes) {
        side = static_cast<int>(base_side * (0.5 + rng.next_double()));
        side = std::max(8, ((side + 7) / 8) * 8);
      }
      sides_[t] = side;
      total_pixels += static_cast<std::size_t>(side) *
                      static_cast<std::size_t>(side);
    }
    // Payload (Compute mode only), drawn after every shape.
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    inputs_.assign(keep_data ? total_pixels : 0, 0.0f);
    for (auto& v : inputs_) v = static_cast<float>(rng.next_double()) * 255.0f;
    outputs_.assign(keep_data ? total_pixels : 0, 0.0f);

    tasks_.clear();
    tasks_.reserve(n);
    std::size_t offset = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const int side = sides_[t];
      const int pixels = side * side;
      DctArgs args{};
      args.in = payload_at(inputs_, offset);
      args.out = payload_at(outputs_, offset);
      args.side = side;
      args.use_shmem = cfg.use_shared_memory ? 1 : 0;
      offset += static_cast<std::size_t>(pixels);

      TaskSpec spec;
      spec.params.fn = dct_kernel;
      spec.params.threads_per_block = cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.needs_sync = cfg.use_shared_memory;
      spec.params.shared_mem_bytes = cfg.use_shared_memory ? kShmemBytes : 0;
      if (cfg.use_shared_memory) {
        // One staged band of the image: side pixels x 8 rows x 4 bytes,
        // always a multiple of 256 since side is a multiple of 8. Capped at
        // the declared slab for large frames (the kernel stages in chunks).
        spec.params.shmem_used_256 = static_cast<std::uint8_t>(
            std::min(side * 8 * 4, kShmemBytes) / 256);
      }
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      spec.h2d_bytes = static_cast<std::int64_t>(pixels) * 4;
      spec.d2h_bytes = static_cast<std::int64_t>(pixels) * 4;
      spec.cpu_ops = static_cast<double>(pixels) / 64.0 *
                     issue_per_block(/*shmem=*/true);
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override { outputs_.assign(outputs_.size(), 0.0f); }

  bool do_verify() const override {
    for (const TaskSpec& spec : tasks_) {
      DctArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(DctArgs));
      const int blocks_per_row = args.side / 8;
      float dst[64];
      for (int b = 0; b < blocks_per_row * blocks_per_row; ++b) {
        dct_block(args, b % blocks_per_row, b / blocks_per_row, dst);
        const int bx = b % blocks_per_row;
        const int by = b / blocks_per_row;
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            const float got = args.out[(by * 8 + y) * args.side + bx * 8 + x];
            const float want = dst[y * 8 + x];
            if (std::abs(got - want) > 1e-3f * (1.0f + std::abs(want))) {
              return false;
            }
          }
        }
      }
    }
    return true;
  }

 private:
  std::vector<int> sides_;
  std::vector<float> inputs_;
  std::vector<float> outputs_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_dct8x8() {
  return std::make_unique<Dct8x8Workload>();
}

}  // namespace pagoda::workloads
