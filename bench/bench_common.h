// Shared setup for the per-figure bench binaries.
//
// Every bench takes the options of BenchArgs' table (`--help` lists them):
// --tasks, --full (the paper's full task counts: 32K, SLUD 273K),
// --threads, --seed and --compute. A usage error exits 1 before anything
// runs (see harness/flags.h).
#pragma once

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/alloc_tuning.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "harness/flags.h"

namespace pagoda::bench {

struct BenchArgs {
  int tasks;
  int threads = 128;
  bool full = false;
  std::uint64_t seed = 0x9A60DA;
  gpu::ExecMode mode = gpu::ExecMode::Model;

  /// `--full` sets the task count to `full_tasks`; 0 leaves it as given.
  BenchArgs(int argc, char** argv, int default_tasks, int full_tasks = 32768)
      : tasks(default_tasks) {
    bool compute = false;
    using harness::Option;
    const harness::Options opts(
        argc, argv,
        {Option("tasks", &tasks, "tasks per benchmark").range(1),
         Option("full", &full, "run at the paper's full scale"),
         Option("threads", &threads, "threads per task")
             .range(1, harness::paper_platform().spec.max_threads_per_block),
         Option("seed", &seed, "workload generation seed"),
         Option("compute", &compute,
                "run kernels in Compute mode (slow; verifies outputs)")});
    if (compute) mode = gpu::ExecMode::Compute;
    if (full && full_tasks > 0) tasks = full_tasks;
    common::tune_allocator_for_batch_runs();
  }

  workloads::WorkloadConfig wcfg() const {
    workloads::WorkloadConfig w;
    w.num_tasks = tasks;
    w.threads_per_task = threads;
    w.seed = seed;
    w.mode = mode;
    return w;
  }

  baselines::RunConfig rcfg() const {
    baselines::RunConfig r = harness::paper_platform();
    r.mode = mode;
    return r;
  }
};

inline void print_header(const char* what, const BenchArgs& a) {
  std::printf("=== %s ===\n", what);
  std::printf("platform: Titan X model (24 SMMs x 64 warps, 1 GHz), "
              "PCIe 12 GB/s; tasks=%d threads/task=%d mode=%s\n\n",
              a.tasks, a.threads,
              a.mode == gpu::ExecMode::Model ? "model" : "compute");
}

}  // namespace pagoda::bench
