// Virtual-resource occupancy benchmark (DESIGN.md §16): how much SMM
// occupancy and throughput the Zorua-style decoupling of declared vs used
// shared memory buys on an irregular workload.
//
//   occupancy_virt [--tasks=N] [--threads=N] [--input=SIDE] [--seeds=N]
//                  [--seed=BASE] [--spawners=N] [--oversub=F]
//                  [--out=BENCH_vres.json]
//
// The workload is irregular DCT: every task DECLARES the conservative 8 KB
// staging slab (the worst-case frame), but a task's frame side is drawn from
// [SIDE/2, 3*SIDE/2], so the band it actually touches is usually 2-4 KB.
// Under static reservation (--oversub=1.0) the declared footprint limits an
// MTB's 32 KB arena to 4 co-resident blocks no matter how small the frames
// are. With --oversub=F the scheduler admits declared footprints against
// F x arena and backs only the used bytes physically; a block that does not
// fit waits for a deferred free, as it does under static reservation.
//
// The device is narrowed to --smms SMMs (default 4; the full Titan X has
// 24) and host spawners are raised above the paper's two threads
// (--spawners, default 16). Both knobs exist for the same reason: the spawn
// API + PCIe protocol path caps the task arrival rate at ~1.7 tasks/us
// regardless of resources, and on 48 idle MTBs that stream never queues —
// every configuration measures the spawn rate, not the packing limit. On a
// narrow device the per-MTB arrival pressure exceeds the 4-block static
// reservation cap, so the shared-memory plane is what binds and the bench
// measures exactly the decoupling it is gating.
//
// Gated, every seed (a miss prints `gate failed: ...` and exits 1; the gates
// are not monotone in --tasks, so a floor cannot make them hold everywhere):
//   * throughput at the gate factor (--oversub, default 1.5) >= 1.2x the
//     static-reservation baseline;
//   * achieved SMM occupancy at the gate factor strictly above baseline.
// CHECK-enforced: a Compute-mode run at the gate factor passes CPU-reference
// verification (run_experiment aborts on any output mismatch).
//
// Emits BENCH_vres.json, byte-identical across reruns with the same flags
// (the check.sh determinism gate diffs two fresh runs).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/alloc_tuning.h"
#include "common/check.h"
#include "gpu/occupancy.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "pagoda/master_kernel.h"

using namespace pagoda;

namespace {

struct Outcome {
  double oversub = 1.0;
  double elapsed_ms = 0.0;
  double throughput_ktasks_s = 0.0;
  double occupancy = 0.0;
  std::int64_t tasks = 0;
  std::int64_t shmem_alloc_failures = 0;
  double shmem_external_frag = 0.0;
  std::int64_t shmem_internal_frag_bytes = 0;
};

struct BenchConfig {
  int tasks = 4096;
  int threads = 32;
  int input_side = 96;
  int spawners = 16;
  int smms = 4;
  std::uint64_t seed = 0;
};

Outcome run_once(const BenchConfig& bc, double oversub, gpu::ExecMode mode) {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = bc.tasks;
  wcfg.threads_per_task = bc.threads;
  wcfg.input_scale = bc.input_side;
  wcfg.irregular_sizes = true;
  wcfg.seed = bc.seed;

  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.mode = mode;
  rcfg.spec.num_smms = bc.smms;
  rcfg.pagoda.oversub = oversub;
  rcfg.spawner_threads = bc.spawners;
  // The wire belongs to task-spawn protocol traffic: bulk input copies
  // would serialize every configuration on PCIe and mask the
  // resource-packing difference under measurement noise.
  rcfg.include_data_copies = false;

  obs::CollectorConfig ccfg;
  ccfg.sample_period = sim::microseconds(50.0);
  obs::Collector collector(ccfg);
  rcfg.collector = &collector;

  const harness::Measurement m =
      harness::run_experiment("DCT", "Pagoda", wcfg, rcfg);

  Outcome out;
  out.oversub = oversub;
  out.tasks = m.result.tasks;
  out.elapsed_ms = m.result.elapsed_ms();
  out.throughput_ktasks_s =
      static_cast<double>(m.result.tasks) / out.elapsed_ms;
  out.occupancy = m.result.occupancy;
  obs::MetricsRegistry metrics = m.metrics;  // reads may default-create
  out.shmem_alloc_failures =
      metrics.counter("pagoda.shmem.alloc_failures").value();
  out.shmem_external_frag =
      metrics.gauge("pagoda.shmem.external_frag").value();
  out.shmem_internal_frag_bytes =
      metrics.counter("pagoda.shmem.internal_frag_bytes").value();
  return out;
}

void write_outcome_json(std::ostream& os, std::uint64_t seed,
                        const Outcome& o) {
  using obs::format_metric_double;
  os << "    {\"seed\": " << seed
     << ", \"oversub\": " << format_metric_double(o.oversub)
     << ", \"elapsed_ms\": " << format_metric_double(o.elapsed_ms)
     << ", \"throughput_ktasks_s\": "
     << format_metric_double(o.throughput_ktasks_s)
     << ", \"occupancy\": " << format_metric_double(o.occupancy)
     << ", \"tasks\": " << o.tasks
     << ", \"shmem_alloc_failures\": " << o.shmem_alloc_failures
     << ", \"shmem_external_frag\": "
     << format_metric_double(o.shmem_external_frag)
     << ", \"shmem_internal_frag_bytes\": " << o.shmem_internal_frag_bytes
     << "}";
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig bc;
  int num_seeds = 2;
  std::uint64_t base_seed = 0x9A60DA;
  double gate = 1.5;
  std::string out_path = "BENCH_vres.json";
  const gpu::GpuSpec spec = gpu::GpuSpec::titan_x();
  using harness::Option;
  const harness::Options opts(
      argc, argv,
      {Option("tasks", &bc.tasks,
              "tasks per run; its gates need the floor, and above it they "
              "are not monotone in --tasks (a failed gate exits 1)")
           .range(704),
       // A DCT block synchronizes, so all its warps share one MTB.
       Option("threads", &bc.threads, "threads per task")
           .range(1, runtime::MasterKernel::kExecutorWarps * 32),
       Option("input", &bc.input_side, "mean frame side").range(1, 256),
       Option("seeds", &num_seeds, "seeds to run").range(1),
       Option("seed", &base_seed, "first seed"),
       Option("spawners", &bc.spawners, "host spawner threads").range(1, 64),
       Option("smms", &bc.smms, "SMMs on the device").range(1, spec.num_smms),
       Option("oversub", &gate,
              "gate factor, compared against the 1.0 static baseline")
           .above(1.0, 64.0),
       Option("out", &out_path, "JSON artifact path")});
  common::tune_allocator_for_batch_runs();

  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: --out: cannot open output path '%s'\n",
                 out_path.c_str());
    return 2;
  }

  // The §2-style arithmetic for this workload: a 96-side frame declares
  // 8 KB but its staged band (side x 8 rows x 4 B = 3 KB) rounds to 4 KB,
  // so the model predicts 4 -> 6 co-resident blocks per MTB arena at 1.5x.
  gpu::BlockFootprint declared =
      gpu::BlockFootprint::of(bc.threads, 33, 8 * 1024);
  gpu::BlockFootprint used = declared;
  used.shared_mem_bytes = 4 * 1024;
  const gpu::OccupancyResult model_static =
      gpu::max_residency(spec, declared);
  const gpu::OccupancyResult model_virt =
      gpu::max_residency_virtual(spec, declared, used, gate);

  std::vector<double> factors = {1.0, 1.25, gate, 2.0};

  std::printf("=== occupancy under virtual resources: irregular DCT, "
              "%d tasks, %d threads/task, side ~[%d, %d], %d spawners, "
              "%d SMMs ===\n",
              bc.tasks, bc.threads, bc.input_side / 2, 3 * bc.input_side / 2,
              bc.spawners, bc.smms);
  std::printf("model: %d blocks/SMM declared-static -> %d at %.2fx "
              "(used 4 KB of 8 KB declared)\n\n",
              model_static.blocks_per_smm, model_virt.blocks_per_smm, gate);
  std::printf("%-8s %-8s %10s %12s %10s %8s\n", "seed", "oversub", "time",
              "ktasks/s", "occupancy", "allocfail");

  json << "{\n  \"bench\": \"occupancy_virt\", \"tasks\": " << bc.tasks
       << ", \"threads\": " << bc.threads << ", \"input\": " << bc.input_side
       << ", \"spawners\": " << bc.spawners << ", \"smms\": " << bc.smms
       << ", \"seeds\": " << num_seeds
       << ", \"base_seed\": " << base_seed
       << ", \"gate_oversub\": " << obs::format_metric_double(gate)
       << ",\n  \"model_blocks_static\": " << model_static.blocks_per_smm
       << ", \"model_blocks_virtual\": " << model_virt.blocks_per_smm
       << ",\n  \"runs\": [\n";

  bool first = true;
  double worst_gain = 0.0;
  double worst_occ_delta = 0.0;
  bool have_worst = false;
  for (int s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s);
    bc.seed = seed;
    Outcome baseline;
    for (const double f : factors) {
      const Outcome o = run_once(bc, f, gpu::ExecMode::Model);
      std::printf("%-8llu %-8.2f %8.3fms %12.1f %9.2f%% %8lld\n",
                  static_cast<unsigned long long>(seed), f, o.elapsed_ms,
                  o.throughput_ktasks_s, o.occupancy * 100.0,
                  static_cast<long long>(o.shmem_alloc_failures));
      if (!first) json << ",\n";
      first = false;
      write_outcome_json(json, seed, o);
      if (f == 1.0) {
        baseline = o;
        continue;
      }
      if (f == gate) {
        const double gain = o.throughput_ktasks_s /
                            baseline.throughput_ktasks_s;
        const double occ_delta = o.occupancy - baseline.occupancy;
        harness::gate(gain >= 1.2,
                      "the gate oversub factor must deliver >= 1.2x the "
                      "static-reservation throughput");
        harness::gate(occ_delta > 0.0,
                      "the gate oversub factor must achieve strictly "
                      "higher SMM occupancy than static reservation");
        if (!have_worst || gain < worst_gain) worst_gain = gain;
        if (!have_worst || occ_delta < worst_occ_delta) {
          worst_occ_delta = occ_delta;
        }
        have_worst = true;
      }
    }
    // Compute-mode correctness at the gate factor: every task's output is
    // checked against the CPU reference inside run_experiment. Fewer tasks
    // keep the bench fast; the resource pressure is per-MTB, not per-total.
    BenchConfig verify_bc = bc;
    verify_bc.tasks = std::min(bc.tasks, 256);
    const Outcome v = run_once(verify_bc, gate, gpu::ExecMode::Compute);
    std::printf("%-8llu %-8s %8.3fms %12s %9.2f%% %8lld  "
                "(compute-verified)\n",
                static_cast<unsigned long long>(seed), "verify", v.elapsed_ms,
                "-", v.occupancy * 100.0,
                static_cast<long long>(v.shmem_alloc_failures));
  }

  json << "\n  ],\n  \"worst_gain\": "
       << obs::format_metric_double(worst_gain)
       << ",\n  \"worst_occupancy_delta\": "
       << obs::format_metric_double(worst_occ_delta) << "\n}\n";

  std::printf("\nworst-seed gain at %.2fx oversub: %.2fx throughput "
              "(floor 1.2x), worst occupancy delta +%.2f points "
              "(floor: strictly positive)\n",
              gate, worst_gain, worst_occ_delta * 100.0);
  std::printf("-> %s\n", out_path.c_str());
  return 0;
}
