// Workload correctness and cost-model invariants.
//
// Each workload's kernels are driven inline (outside any runtime) through
// the warp-coroutine interface, then verified against the CPU reference.
// A parameterized suite also asserts the key timing invariant: Model and
// Compute modes charge identical cycles.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/kernel.h"
#include "workloads/workload.h"

namespace pagoda::workloads {
namespace {

/// Drives one task's kernel to completion, honoring block barriers, without
/// any simulator: warps of a block advance in rounds. Returns total charged
/// (issue, stall) cycles across all warps.
std::pair<double, double> run_task_inline(const TaskSpec& spec,
                                          gpu::ExecMode mode) {
  const runtime::TaskParams& p = spec.params;
  double issue = 0.0;
  double stall = 0.0;
  for (int block = 0; block < p.num_blocks; ++block) {
    const int warps = p.warps_per_block();
    std::vector<gpu::WarpCtx> ctxs(static_cast<std::size_t>(warps));
    std::vector<std::unique_ptr<gpu::KernelCoro>> coros;
    std::vector<std::byte> shmem(
        static_cast<std::size_t>(p.shared_mem_bytes));
    for (int w = 0; w < warps; ++w) {
      gpu::WarpCtx& ctx = ctxs[static_cast<std::size_t>(w)];
      ctx.warp_in_task = block * warps + w;
      ctx.block_index = block;
      ctx.warp_in_block = w;
      ctx.threads_per_block = p.threads_per_block;
      ctx.num_blocks = p.num_blocks;
      ctx.mode = mode;
      ctx.args = p.args.data();
      ctx.shared_mem = std::span<std::byte>(shmem);
      coros.push_back(std::make_unique<gpu::KernelCoro>(
          p.fn(ctxs[static_cast<std::size_t>(w)])));
    }
    // Rounds: resume every live warp once per round (barrier semantics).
    bool any_live = true;
    int rounds = 0;
    while (any_live) {
      any_live = false;
      if (rounds++ > 100000) {
        ADD_FAILURE() << "kernel never terminates";
        break;
      }
      for (int w = 0; w < warps; ++w) {
        auto& coro = *coros[static_cast<std::size_t>(w)];
        if (coro.done()) continue;
        const gpu::SegmentResult seg =
            gpu::run_segment(coro, ctxs[static_cast<std::size_t>(w)]);
        issue += seg.cycles;
        stall += seg.stall_cycles;
        if (seg.at_barrier) any_live = true;
      }
    }
  }
  return {issue, stall};
}

// Using void return to allow ASSERT inside.
void run_task_inline_checked(const TaskSpec& spec, gpu::ExecMode mode,
                             double& issue, double& stall) {
  auto [i, s] = run_task_inline(spec, mode);
  issue = i;
  stall = s;
}

class WorkloadCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadCorrectness, ComputeModeMatchesReference) {
  auto wl = make_workload(GetParam());
  WorkloadConfig cfg;
  cfg.num_tasks = 8;
  cfg.threads_per_task = 128;
  cfg.mode = gpu::ExecMode::Compute;
  wl->generate(cfg);
  ASSERT_EQ(wl->tasks().size(), 8u);
  for (const TaskSpec& spec : wl->tasks()) {
    double issue = 0.0;
    double stall = 0.0;
    run_task_inline_checked(spec, gpu::ExecMode::Compute, issue, stall);
    EXPECT_GT(issue, 0.0) << "kernel charged no issue cycles";
  }
  EXPECT_TRUE(wl->verify()) << GetParam() << " output mismatch";
}

TEST_P(WorkloadCorrectness, ModelModeChargesIdenticalCycles) {
  auto wl = make_workload(GetParam());
  WorkloadConfig cfg;
  cfg.num_tasks = 4;
  cfg.threads_per_task = 96;
  cfg.mode = gpu::ExecMode::Compute;
  wl->generate(cfg);
  for (const TaskSpec& spec : wl->tasks()) {
    double ci = 0.0;
    double cs = 0.0;
    double mi = 0.0;
    double ms = 0.0;
    run_task_inline_checked(spec, gpu::ExecMode::Compute, ci, cs);
    run_task_inline_checked(spec, gpu::ExecMode::Model, mi, ms);
    EXPECT_DOUBLE_EQ(ci, mi) << "issue charges differ between modes";
    EXPECT_DOUBLE_EQ(cs, ms) << "stall charges differ between modes";
  }
}

TEST_P(WorkloadCorrectness, ResetOutputsAllowsReRun) {
  auto wl = make_workload(GetParam());
  if (GetParam() == "SLUD") return;  // in-place tasks regenerate inputs
  WorkloadConfig cfg;
  cfg.num_tasks = 3;
  cfg.threads_per_task = 64;
  cfg.mode = gpu::ExecMode::Compute;
  wl->generate(cfg);
  for (const TaskSpec& spec : wl->tasks()) {
    double i = 0.0;
    double s = 0.0;
    run_task_inline_checked(spec, gpu::ExecMode::Compute, i, s);
  }
  ASSERT_TRUE(wl->verify());
  wl->reset_outputs();
  EXPECT_FALSE(wl->verify());  // outputs cleared
  for (const TaskSpec& spec : wl->tasks()) {
    double i = 0.0;
    double s = 0.0;
    run_task_inline_checked(spec, gpu::ExecMode::Compute, i, s);
  }
  EXPECT_TRUE(wl->verify());
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadCorrectness,
                         ::testing::Values("MB", "FB", "BF", "CONV", "DCT",
                                           "MM", "SLUD", "3DES", "MPE"),
                         [](const auto& info) { return info.param; });

// Model mode generates shapes, not bytes: the same task list as Compute mode
// minus the payload. Every TaskSpec field and every scalar argument must
// match Compute mode; every data pointer must be null.
struct ShapeCase {
  const char* workload;
  /// "regular"; "irregular" (irregular_sizes); or "dynamic" (Fig 9's
  /// irregular_sizes + dynamic_threads: threads follow each task's size).
  const char* variant;
  std::uint64_t digest;  // FNV-1a of the shape fields, pinned
};

void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << c.workload << '_' << c.variant;
}

class WorkloadShapes : public ::testing::TestWithParam<ShapeCase> {};

std::unique_ptr<Workload> generate_shape_case(const ShapeCase& c,
                                              gpu::ExecMode mode) {
  WorkloadConfig cfg;
  cfg.num_tasks = 16;
  cfg.threads_per_task = 96;
  cfg.mode = mode;
  cfg.dynamic_threads = std::string_view(c.variant) == "dynamic";
  cfg.irregular_sizes =
      cfg.dynamic_threads || std::string_view(c.variant) == "irregular";
  auto wl = make_workload(c.workload);
  wl->generate(cfg);
  return wl;
}

using ArgWords = std::array<std::uint64_t, runtime::kMaxArgBytes / 8>;

ArgWords arg_words(const runtime::TaskParams& p) {
  ArgWords w{};
  std::memcpy(w.data(), p.args.data(), sizeof(w));
  return w;
}

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
};

TEST_P(WorkloadShapes, ModelMatchesCompute) {
  const ShapeCase& c = GetParam();
  // Two live Compute-mode generations share every scalar argument but no
  // data pointer, so the argument words where they differ are the pointers.
  auto compute = generate_shape_case(c, gpu::ExecMode::Compute);
  auto other = generate_shape_case(c, gpu::ExecMode::Compute);
  auto model = generate_shape_case(c, gpu::ExecMode::Model);
  ASSERT_EQ(model->tasks().size(), compute->tasks().size());
  ASSERT_EQ(other->tasks().size(), compute->tasks().size());
  EXPECT_EQ(model->max_wave(), compute->max_wave());

  Fnv1a digest;
  for (std::size_t i = 0; i < compute->tasks().size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    const TaskSpec& cs = compute->tasks()[i];
    const TaskSpec& ms = model->tasks()[i];
    const runtime::TaskParams& cp = cs.params;
    const runtime::TaskParams& mp = ms.params;
    EXPECT_EQ(mp.fn, cp.fn);
    EXPECT_EQ(mp.num_blocks, cp.num_blocks);
    EXPECT_EQ(mp.threads_per_block, cp.threads_per_block);
    EXPECT_EQ(mp.shared_mem_bytes, cp.shared_mem_bytes);
    EXPECT_EQ(mp.needs_sync, cp.needs_sync);
    EXPECT_EQ(mp.sched_class, cp.sched_class);
    EXPECT_EQ(mp.shmem_used_256, cp.shmem_used_256);
    EXPECT_EQ(mp.regs_used, cp.regs_used);
    EXPECT_EQ(mp.args_size, cp.args_size);
    EXPECT_EQ(mp.deadline_us, cp.deadline_us);
    EXPECT_EQ(ms.regs_per_thread, cs.regs_per_thread);
    EXPECT_EQ(ms.h2d_bytes, cs.h2d_bytes);
    EXPECT_EQ(ms.d2h_bytes, cs.d2h_bytes);
    EXPECT_EQ(ms.cpu_ops, cs.cpu_ops);
    EXPECT_EQ(ms.wave, cs.wave);

    const ArgWords cw = arg_words(cp);
    const ArgWords ow = arg_words(other->tasks()[i].params);
    const ArgWords mw = arg_words(mp);
    for (std::size_t w = 0; w < cw.size(); ++w) {
      if (cw[w] != ow[w]) {
        EXPECT_EQ(mw[w], 0u) << "Model-mode data pointer in arg word " << w;
      } else {
        EXPECT_EQ(mw[w], cw[w]) << "scalar arg word " << w;
        digest.add(mw[w]);
      }
    }
    digest.add(mp.num_blocks);
    digest.add(mp.threads_per_block);
    digest.add(mp.shared_mem_bytes);
    digest.add(mp.needs_sync);
    digest.add(mp.sched_class);
    digest.add(mp.shmem_used_256);
    digest.add(mp.regs_used);
    digest.add(mp.args_size);
    digest.add(mp.deadline_us);
    digest.add(ms.regs_per_thread);
    digest.add(ms.h2d_bytes);
    digest.add(ms.d2h_bytes);
    digest.add(ms.cpu_ops);
    digest.add(ms.wave);

    double ci = 0.0;
    double cst = 0.0;
    double mi = 0.0;
    double mst = 0.0;
    run_task_inline_checked(cs, gpu::ExecMode::Compute, ci, cst);
    run_task_inline_checked(ms, gpu::ExecMode::Model, mi, mst);
    EXPECT_EQ(mi, ci) << "issue charges differ between modes";
    EXPECT_EQ(mst, cst) << "stall charges differ between modes";
  }
  EXPECT_EQ(digest.h, c.digest) << std::hex << "0x" << digest.h;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadShapes,
    ::testing::Values(ShapeCase{"MB", "regular", 0x2681948eeb8c5753ull},
                      ShapeCase{"MB", "irregular", 0x2681948eeb8c5753ull},
                      ShapeCase{"MB", "dynamic", 0x2681948eeb8c5753ull},
                      ShapeCase{"FB", "regular", 0xa2b9e78ba4120b83ull},
                      ShapeCase{"FB", "irregular", 0x26f5d38f2adcc0cull},
                      ShapeCase{"FB", "dynamic", 0x171be8619404080cull},
                      ShapeCase{"BF", "regular", 0xc6300de0ba2be983ull},
                      ShapeCase{"BF", "irregular", 0x603097e43230d7d5ull},
                      ShapeCase{"BF", "dynamic", 0xf95670f52455a4d5ull},
                      ShapeCase{"CONV", "regular", 0x43fb2b6711871603ull},
                      ShapeCase{"CONV", "irregular", 0x43fb2b6711871603ull},
                      ShapeCase{"CONV", "dynamic", 0x43fb2b6711871603ull},
                      ShapeCase{"DCT", "regular", 0x94d196f419345043ull},
                      ShapeCase{"DCT", "irregular", 0xe0a84372c70d22ddull},
                      ShapeCase{"DCT", "dynamic", 0xe0a84372c70d22ddull},
                      ShapeCase{"MM", "regular", 0x1873811439586c3ull},
                      ShapeCase{"MM", "irregular", 0xe4ef04fe22cf5831ull},
                      ShapeCase{"MM", "dynamic", 0x774c39d6e5c34e11ull},
                      ShapeCase{"SLUD", "regular", 0xc1a2f402ee828aa6ull},
                      ShapeCase{"SLUD", "irregular", 0xc1a2f402ee828aa6ull},
                      ShapeCase{"SLUD", "dynamic", 0xc4d091b7d52b0bc6ull},
                      ShapeCase{"3DES", "regular", 0x1ed72f068238fb31ull},
                      ShapeCase{"3DES", "irregular", 0x1ed72f068238fb31ull},
                      ShapeCase{"3DES", "dynamic", 0x82a0217beca755f1ull},
                      ShapeCase{"MPE", "regular", 0x6e901b83ec800e3full},
                      ShapeCase{"MPE", "irregular", 0x59599c35eac9ed35ull},
                      ShapeCase{"MPE", "dynamic", 0xc00732f5c9ab036ull}),
    [](const auto& info) {
      return std::string(info.param.workload) + "_" + info.param.variant;
    });

// verify() has nothing to check on a Model-mode workload (no outputs, null
// data pointers): it CHECKs the generation mode instead of returning a
// vacuous true.
TEST(WorkloadModeDeathTest, VerifyNeedsComputeModeWorkload) {
  for (const std::string_view name : all_workload_names()) {
    auto wl = make_workload(name);
    WorkloadConfig cfg;
    cfg.num_tasks = 4;
    cfg.mode = gpu::ExecMode::Model;
    wl->generate(cfg);
    EXPECT_EQ(wl->mode(), gpu::ExecMode::Model);
    EXPECT_DEATH(wl->verify(), "verify\\(\\) needs a Compute-mode workload")
        << name;
  }
}

// Thread-count sweep (Fig 7's axis): work per task must be constant across
// thread counts — only the distribution changes.
class ThreadCountInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountInvariance, TotalChargesIndependentOfThreads) {
  auto wl = make_workload("CONV");
  WorkloadConfig cfg;
  cfg.num_tasks = 2;
  cfg.threads_per_task = GetParam();
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  double total = 0.0;
  for (const TaskSpec& spec : wl->tasks()) {
    double i = 0.0;
    double s = 0.0;
    run_task_inline_checked(spec, gpu::ExecMode::Model, i, s);
    total += i;
  }
  // Charges are warp instructions: one instruction covers the warp's 32
  // lanes, so a 128x128 image costs pixels/32 warp-iterations of 56
  // issue-cycles each. Strided loops may round up per warp: within 5%.
  const double expected = 2.0 * 128 * 128 / 32.0 * 56.0;
  EXPECT_NEAR(total, expected, expected * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountInvariance,
                         ::testing::Values(32, 64, 128, 256, 512));

TEST(Workloads, IrregularSizesVaryAcrossTasks) {
  auto wl = make_workload("3DES");
  WorkloadConfig cfg;
  cfg.num_tasks = 64;
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  std::int64_t min_b = wl->tasks()[0].h2d_bytes;
  std::int64_t max_b = min_b;
  for (const TaskSpec& t : wl->tasks()) {
    min_b = std::min(min_b, t.h2d_bytes);
    max_b = std::max(max_b, t.h2d_bytes);
  }
  EXPECT_GE(min_b, 2 * 1024);
  EXPECT_LE(max_b, 64 * 1024);
  EXPECT_GT(max_b, 2 * min_b) << "packet sizes should spread";
}

TEST(Workloads, SludHasDependencyWaves) {
  auto wl = make_workload("SLUD");
  WorkloadConfig cfg;
  cfg.num_tasks = 100;
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  int max_wave = 0;
  int wave0 = 0;
  for (const TaskSpec& t : wl->tasks()) {
    max_wave = std::max(max_wave, t.wave);
    if (t.wave == 0) ++wave0;
  }
  EXPECT_GT(max_wave, 2);      // several dependency levels
  EXPECT_EQ(wave0, 50);        // leaf-heavy: half the tasks in wave 0
}

TEST(Workloads, MpeInterleavesFourApplications) {
  auto wl = make_workload("MPE");
  WorkloadConfig cfg;
  cfg.num_tasks = 16;
  cfg.mode = gpu::ExecMode::Model;
  wl->generate(cfg);
  ASSERT_EQ(wl->tasks().size(), 16u);
  // Consecutive tasks come from different applications: kernel fns differ.
  const auto& tasks = wl->tasks();
  EXPECT_NE(tasks[0].params.fn, tasks[1].params.fn);
  EXPECT_NE(tasks[1].params.fn, tasks[2].params.fn);
  EXPECT_NE(tasks[2].params.fn, tasks[3].params.fn);
  // Stream repeats with period 4.
  EXPECT_EQ(tasks[0].params.fn, tasks[4].params.fn);
}

TEST(Workloads, RegisterCountsMatchTable3) {
  const std::pair<const char*, int> expected[] = {
      {"MB", 28}, {"FB", 21}, {"BF", 34},   {"CONV", 25},
      {"DCT", 33}, {"MM", 30}, {"SLUD", 17}, {"3DES", 26}};
  for (const auto& [name, regs] : expected) {
    auto wl = make_workload(name);
    EXPECT_EQ(wl->traits().default_registers, regs) << name;
  }
}

TEST(Workloads, Table3FlagsMatch) {
  EXPECT_TRUE(make_workload("MB")->traits().irregular);
  EXPECT_TRUE(make_workload("SLUD")->traits().irregular);
  EXPECT_TRUE(make_workload("3DES")->traits().irregular);
  EXPECT_FALSE(make_workload("CONV")->traits().irregular);
  EXPECT_TRUE(make_workload("FB")->traits().needs_sync);
  EXPECT_TRUE(make_workload("DCT")->traits().needs_sync);
  EXPECT_TRUE(make_workload("MM")->traits().may_use_shared);
  EXPECT_FALSE(make_workload("BF")->traits().may_use_shared);
}

}  // namespace
}  // namespace pagoda::workloads
