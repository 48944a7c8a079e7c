// Reproduces Figure 8: Pagoda-vs-HyperQ compute time across input sizes and
// threads per task (MM and CONV).
//
// Paper: 32K tasks, HyperQ uses 256-thread threadblocks; Pagoda wins for
// small thread counts at every input size, the benefit fades past ~512
// threads/task, and reappears at very large thread counts (e.g. CONV 256^2
// with 64K threads) where Pagoda's warp-level scheduling beats CUDA's
// threadblock-level scheduling (a new threadblock cannot launch until ALL
// warps of a previous one finish).
#include <vector>

#include "bench_common.h"

using namespace pagoda;
using namespace pagoda::harness;
using pagoda::bench::BenchArgs;

int main(int argc, char** argv) {
  // This sweep's tasks are up to 64Ki threads each; unlike the other
  // figures, --full extends the THREAD axis (the paper's 65536-thread
  // column) rather than the task count.
  const BenchArgs args(argc, argv, /*default_tasks=*/256, /*full_tasks=*/0);
  bench::print_header(
      "Figure 8: Pagoda/HyperQ compute-speedup vs input size and threads",
      args);

  const std::vector<int> input_sizes = {16, 32, 64, 128, 256};
  std::vector<int> thread_counts = {256, 1024, 4096, 16384};
  if (args.full) thread_counts.push_back(65536);

  for (const char* wl : {"MM", "CONV"}) {
    std::vector<std::string> headers{"input"};
    for (const int t : thread_counts) headers.push_back(std::to_string(t) + " thr");
    Table table(headers);
    for (const int input : input_sizes) {
      std::vector<std::string> row{std::to_string(input) + "^2"};
      for (const int threads : thread_counts) {
        workloads::WorkloadConfig wcfg = args.wcfg();
        wcfg.input_scale = input;
        wcfg.threads_per_task = 256;  // threadblock size; more blocks = more threads
        wcfg.use_shared_memory = false;
        baselines::RunConfig rcfg = args.rcfg();
        rcfg.include_data_copies = false;

        // Express the total thread count: block size up to 1024 threads,
        // multiple 256-thread blocks beyond (HyperQ's configuration in the
        // paper uses 256-thread threadblocks).
        if (threads <= 256) {
          wcfg.threads_per_task = threads;
        } else {
          wcfg.threads_per_task = 256;
          wcfg.blocks_per_task = threads / 256;
        }
        const Measurement hq = run_experiment(wl, "HyperQ", wcfg, rcfg);
        const Measurement pa = run_experiment(wl, "Pagoda", wcfg, rcfg);
        row.push_back(fmt_x(speedup(hq, pa)));
      }
      table.add_row(std::move(row));
    }
    std::printf("-- %s: HyperQ-time / Pagoda-time (>1 = Pagoda faster) --\n",
                wl);
    table.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
