// Shared setup for the per-figure bench binaries.
//
// Flags (all optional):
//   --tasks=N     tasks per benchmark (default: per-bench; paper uses 32K)
//   --full        use the paper's full task counts (32K; SLUD 273K)
//   --threads=N   threads per task (default 128, the paper's Fig 5 setting)
//   --seed=N      workload generation seed
//   --compute     run kernels in Compute mode (slow; verifies outputs)
//
// Any other argument, --tasks below 1 or --threads outside [1, the
// platform's max threads per block] is a usage error: exit 1 with a message.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/alloc_tuning.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "harness/flags.h"

namespace pagoda::bench {

struct BenchArgs {
  harness::Flags flags;
  int tasks;
  int threads;
  bool full;
  std::uint64_t seed;
  gpu::ExecMode mode;

  BenchArgs(int argc, char** argv, int default_tasks)
      : flags(known_flags(argc, argv)),
        tasks(flags.get_int_in("tasks", default_tasks, 1)),
        threads(flags.get_int_in(
            "threads", 128, 1,
            harness::paper_platform().spec.max_threads_per_block)),
        full(flags.has("full")),
        seed(static_cast<std::uint64_t>(flags.get_int("seed", 0x9A60DA))),
        mode(flags.has("compute") ? gpu::ExecMode::Compute
                                  : gpu::ExecMode::Model) {
    if (full) tasks = 32768;
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

 private:
  static harness::Flags known_flags(int argc, char** argv) {
    harness::Flags f(argc, argv);
    const std::string bad =
        f.unknown({"tasks", "threads", "full", "seed", "compute"});
    if (!bad.empty()) {
      std::fprintf(stderr, "error: unknown argument '%s'\n", bad.c_str());
      std::exit(1);
    }
    return f;
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
