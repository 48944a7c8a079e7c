// 3DES: Triple-DES encryption of network packets (FIPS 46-3, Table 4).
// Routers encrypt packets as they arrive; one packet is one narrow task.
// Packet sizes follow a NetBench-like heavy-tailed mix between 2 KB and
// 64 KB, making the workload irregular. Threads stripe over a packet's
// 8-byte blocks (ECB — the parallel-friendly mode).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "workloads/des_core.h"
#include "gpu/simt.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

constexpr std::int64_t kMinPacket = 2 * 1024;
constexpr std::int64_t kMaxPacket = 64 * 1024;

// Software 3DES on a GPU thread: 48 Feistel rounds per 8-byte block with
// precomputed SP tables (the usual GPU formulation: ~6 ops/round).
// Calibrated against Table 3's 74%-copy characterization — the kernel is
// light relative to moving the packet across PCIe twice.
constexpr double kIssuePerBlock = 300.0;

struct DesArgs {
  const std::uint64_t* in;   // packet blocks
  std::uint64_t* out;
  const TripleDesKey* key;   // lives in the workload (device-constant-like)
  std::int32_t num_blocks;   // packet size / 8
};

gpu::KernelCoro des_kernel(gpu::WarpCtx& ctx) {
  const DesArgs& a = ctx.args_as<DesArgs>();
  // The SP-table lookups form a dependency chain through the 48 rounds:
  // ~2x the issue time of the round function.
  gpu::simt::charge_elements(
      ctx, a.num_blocks, kIssuePerBlock + 2.0 * ctx.costs().global_access,
      2.0 * kIssuePerBlock);
  gpu::simt::for_each_element(ctx, a.num_blocks, [&](int b) {
    a.out[b] = triple_des_encrypt_block(a.in[b], *a.key);
  });
  co_return;
}

/// NetBench-like packet-size draw: uniform across the paper's 2 KB-64 KB
/// range (mean ~33 KB — heavy enough that encryption is copy-bound under
/// HyperQ, per Table 3's 74% characterization).
std::int64_t draw_packet_bytes(SplitMix64& rng, std::int64_t min_bytes,
                               std::int64_t max_bytes) {
  const double v = static_cast<double>(min_bytes) +
                   (static_cast<double>(max_bytes - min_bytes)) *
                       rng.next_double();
  auto bytes = static_cast<std::int64_t>(v);
  bytes = (bytes / 8) * 8;
  return std::clamp(bytes, min_bytes, max_bytes);
}

class TripleDesWorkload final : public Workload {
 public:
  WorkloadTraits traits() const override {
    return WorkloadTraits{.name = "3DES",
                          .irregular = true,
                          .may_use_shared = false,
                          .needs_sync = false,
                          .default_registers = 26};
  }

  void do_generate(const WorkloadConfig& cfg) override {
    SplitMix64 rng(cfg.seed);
    key_ = triple_des_key(rng.next(), rng.next(), rng.next());
    const auto count = static_cast<std::size_t>(cfg.num_tasks);
    std::int64_t max_bytes = kMaxPacket;
    std::int64_t min_bytes = kMinPacket;
    if (cfg.input_scale > 0) {
      min_bytes = max_bytes = (static_cast<std::int64_t>(cfg.input_scale) / 8) * 8;
    }

    sizes_.resize(count);
    std::size_t total_blocks = 0;
    for (std::size_t t = 0; t < count; ++t) {
      sizes_[t] = draw_packet_bytes(rng, min_bytes, max_bytes);
      total_blocks += static_cast<std::size_t>(sizes_[t] / 8);
    }
    // Payload (Compute mode only), drawn after every shape: Model mode runs
    // 32K tasks x up to 64KB, gigabytes of packets no kernel reads.
    const bool keep_data = cfg.mode == gpu::ExecMode::Compute;
    in_.assign(keep_data ? total_blocks : 0, 0);
    out_.assign(keep_data ? total_blocks : 0, 0);
    for (auto& b : in_) b = rng.next();

    tasks_.clear();
    tasks_.reserve(count);
    std::size_t off = 0;
    for (std::size_t t = 0; t < count; ++t) {
      const auto blocks = static_cast<std::int32_t>(sizes_[t] / 8);
      DesArgs args{};
      args.in = payload_at(in_, off);
      args.out = payload_at(out_, off);
      args.key = keep_data ? &key_ : nullptr;
      args.num_blocks = blocks;
      off += static_cast<std::size_t>(blocks);

      TaskSpec spec;
      spec.params.fn = des_kernel;
      spec.params.threads_per_block =
          cfg.dynamic_threads
              ? dynamic_thread_count(
                    cfg.threads_per_task,
                    static_cast<double>(sizes_[t]) / (16 * 1024))
              : cfg.threads_per_task;
      spec.params.num_blocks = cfg.blocks_per_task;
      spec.params.set_args(args);
      spec.regs_per_thread = traits().default_registers;
      spec.h2d_bytes = sizes_[t];
      spec.d2h_bytes = sizes_[t];
      spec.cpu_ops = static_cast<double>(blocks) * kIssuePerBlock;
      tasks_.push_back(spec);
    }
  }

  std::span<const TaskSpec> tasks() const override { return tasks_; }

  void reset_outputs() override { out_.assign(out_.size(), 0); }

  bool do_verify() const override {
    for (const TaskSpec& spec : tasks_) {
      DesArgs args{};
      std::memcpy(&args, spec.params.args.data(), sizeof(DesArgs));
      for (std::int32_t b = 0; b < args.num_blocks; ++b) {
        // Round-trip: decrypting the ciphertext must recover the plaintext
        // (and the ciphertext must differ — catches identity "encryption").
        if (args.out[b] == args.in[b]) return false;
        if (triple_des_decrypt_block(args.out[b], key_) != args.in[b]) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  TripleDesKey key_{};
  std::vector<std::int64_t> sizes_;
  std::vector<std::uint64_t> in_;
  std::vector<std::uint64_t> out_;
  std::vector<TaskSpec> tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_triple_des() {
  return std::make_unique<TripleDesWorkload>();
}

}  // namespace pagoda::workloads
