// Common interface over every task-execution scheme the paper compares:
//
//   Pagoda          — the full runtime (continuous spawning + concurrent,
//                     pipelined scheduling)
//   PagodaBatching  — Fig 11 ablation: Pagoda's scheduler, GeMTC's batching
//   HyperQ          — one CUDA kernel per task over 32 streams/connections
//   GeMTC           — persistent SuperKernel, single FIFO queue, batches
//   Fusion          — all tasks statically fused into one monolithic kernel
//   PThreads        — task pool on the 20-core CPU
//   Sequential      — one CPU core (the Fig 5 speedup baseline)
//
// Each run() builds a fresh Simulation + Device, executes every task of the
// workload (respecting SLUD-style dependency waves) and reports end-to-end
// virtual time, per-task latencies and achieved occupancy.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/traffic.h"
#include "engine/run_result.h"
#include "gpu/gpu_spec.h"
#include "host/host_api.h"
#include "pagoda/master_kernel.h"
#include "pcie/pcie_bus.h"
#include "workloads/workload.h"

namespace pagoda::obs {
class Collector;
}

namespace pagoda::baselines {

/// Options for the "Cluster" runtime (src/cluster/): a fleet of simulated
/// GPUs behind one dispatcher. Ignored by every single-device scheme.
/// Every value is typed: spec strings are parsed once, by pagoda_cli, and
/// the cross-plane rules live in cluster::Dispatcher::validate().
struct ClusterOptions {
  /// One spec per GPU; empty means one device of RunConfig::spec.
  std::vector<gpu::GpuSpec> specs;
  /// Placement policy name (see cluster::all_policy_names()).
  std::string policy = "round-robin";
  /// Arrival process; the default is closed (back-to-back offers).
  cluster::ArrivalConfig arrival{};
  /// Seed for the arrival process, and for fault and retry decisions when
  /// the fault plan names no seed of its own.
  std::uint64_t seed = 1;
  /// Class stamped on every request the driver synthesizes from the
  /// workload's tasks.
  sched::Class default_class = sched::Class::kStandard;
  /// Admission, fault, QoS, power, migration and autoscale planes. Its
  /// sched, oversub and host fields are ignored: one value end-to-end comes
  /// from RunConfig::pagoda and RunConfig::host (see
  /// cluster_dispatcher_config()).
  cluster::DispatcherConfig dispatcher{};
};

struct RunConfig {
  gpu::ExecMode mode = gpu::ExecMode::Model;
  /// Include per-task H2D/D2H data copies (Fig 5 "overall") or not
  /// (Fig 7/8 "compute time only").
  bool include_data_copies = true;
  int spawner_threads = 2;  // paper Fig 1a: two CPU spawner threads
  gpu::GpuSpec spec = gpu::GpuSpec::titan_x();
  pcie::PcieConfig pcie{};
  host::HostCosts host{};
  runtime::PagodaConfig pagoda{};
  /// GeMTC / Pagoda-Batching batch size; 0 = one task per SuperKernel
  /// worker (GeMTC's natural batch).
  int batch_size = 0;
  /// Hard cap on virtual time (deadlock safety net for experiments).
  sim::Duration time_cap = sim::seconds(3600.0);
  /// Record per-task spawn->completion latencies (Fig 10).
  bool collect_latencies = false;
  /// Observability sink (see obs/collector.h). When set, the driver attaches
  /// its Device/Runtime/CpuCluster, emits task spans and calls finish()
  /// before tearing the run down. nullptr disables collection entirely; a
  /// Collector serves exactly one run() call.
  obs::Collector* collector = nullptr;
  /// Multi-GPU serving options (the "Cluster" runtime only).
  ClusterOptions cluster{};
  /// QoS class tagged onto every task the single-device Pagoda drivers
  /// spawn (TaskParams::sched_class). Spawn order within a batch follows
  /// RunConfig::pagoda.sched when it is not fifo.
  sched::Class task_class = sched::Class::kStandard;
};

/// The uniform measurement (assembled by engine::ResultBuilder).
using RunResult = engine::RunResult;

class TaskRuntime {
 public:
  virtual ~TaskRuntime() = default;
  virtual std::string_view name() const = 0;

  /// Whether this scheme can execute the workload at all. Batch-based
  /// schemes (GeMTC, Fusion) need the task count statically and cannot run
  /// dependency-wave workloads like SLUD (§6.2/§6.3).
  virtual bool supports(const workloads::Workload& w) const;

  /// Executes every task of `w`. The one entry point of every driver: it
  /// CHECKs that a Compute-mode run gets a Compute-generated workload (a
  /// Model-mode workload has null data pointers), then calls do_run().
  RunResult run(workloads::Workload& w, const RunConfig& cfg);

 protected:
  virtual RunResult do_run(workloads::Workload& w, const RunConfig& cfg) = 0;
};

/// Factory: "Pagoda", "PagodaBatching", "HyperQ", "GeMTC", "Fusion",
/// "PThreads", "Sequential", "Cluster".
std::unique_ptr<TaskRuntime> make_runtime(std::string_view name);

/// Every name make_runtime() accepts, in canonical (comparison-table) order.
std::span<const std::string_view> all_runtime_names();

/// The dispatcher config a Cluster run uses: cfg.cluster.dispatcher with
/// the sched policy and oversub factor of cfg.pagoda (one value end-to-end:
/// the dispatcher admits in the order the scheduler warps claim), the host
/// costs of cfg.host, energy-min's sleep management, and the fault/retry
/// seeds defaulted to cfg.cluster.seed.
cluster::DispatcherConfig cluster_dispatcher_config(const RunConfig& cfg);

/// Highest dependency wave in the workload (0 = all independent). Reads the
/// value Workload::generate() cached; no task-list scan.
int max_wave(const workloads::Workload& w);

}  // namespace pagoda::baselines
