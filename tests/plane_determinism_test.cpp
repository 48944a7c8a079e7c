// Run-to-run determinism soak, one plane per seed.
//
// For every seed, one small cluster serving run is executed twice, and the
// full --metrics JSON (and, on alternating seeds, the --trace-spans dump)
// must be byte-identical between the two. Each seed arms exactly one plane:
// seed i runs plane i % kNumPlanes, rotating through a plain run, a
// fault-plan run, a power-plane run, a migration run (a rolling resize
// checkpointing in-flight attempts across nodes) and an oversubscribed
// virtual-resource run. So each plane's coupling with the event queue's
// same-timestamp FIFO order is pinned on its own; no seed combines planes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/calibration.h"
#include "harness/experiment.h"
#include "obs/collector.h"
#include "power/power_spec.h"

namespace pagoda {
namespace {

constexpr int kSeeds = 50;

enum class Plane { kPlain, kFaults, kPower, kMigrate, kVres };
constexpr int kNumPlanes = 5;

struct Dump {
  std::string metrics;
  std::string spans;
};

/// One small fixed-workload cluster run; returns the observability bytes.
Dump run_once(std::uint64_t seed, Plane plane, bool want_spans) {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 64;
  wcfg.threads_per_task = 128;
  wcfg.seed = seed;

  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.mode = gpu::ExecMode::Model;
  rcfg.collect_latencies = true;
  rcfg.cluster.specs = {gpu::GpuSpec::titan_x(), gpu::GpuSpec::titan_x(),
                        gpu::GpuSpec::tesla_k40()};
  rcfg.cluster.policy = "least-loaded";
  rcfg.cluster.arrival = {cluster::ArrivalKind::Poisson, 150000.0};
  rcfg.cluster.seed = seed;
  cluster::DispatcherConfig& dc = rcfg.cluster.dispatcher;
  dc.default_slo = sim::microseconds(5000.0);
  if (plane == Plane::kFaults) {
    dc.faults.task_fault_rate = 0.05;
    dc.faults.transfer_fault_rate = 0.02;
    dc.task_timeout = sim::microseconds(4000.0);
  } else if (plane == Plane::kPower) {
    dc.power.spec = power::PowerSpec::default_spec();
    dc.power.governor = power::GovernorKind::kDvfs;
  } else if (plane == Plane::kMigrate) {
    // A rolling resize over the arrival window: the shrink drains two nodes
    // whose in-flight attempts checkpoint and restore cross-node, then the
    // grow wakes them — migration traffic in every run of the pair. The
    // stream oversubscribes shallow TaskTables so the drains catch work at
    // every safe point (slot-queue waiters, staged copies, parked entries).
    wcfg.num_tasks = 192;
    wcfg.threads_per_task = 256;
    rcfg.pagoda.rows_per_column = 4;
    rcfg.cluster.arrival.rate_per_sec = 2000000.0;
    dc.power.spec = power::PowerSpec::default_spec();
    dc.migration.enabled = true;
    dc.autoscale.plan = {{sim::microseconds(100.0), 1},
                         {sim::microseconds(1200.0), 3}};
  } else if (plane == Plane::kVres) {
    // Oversubscribed virtual resource plane: irregular DCT declares the full
    // 8 KB slab but touches less, so the virtual shmem and register charges,
    // the oversubscribed slot admission and the vres-aware placement all
    // run. (Oversubscription is admission-only: nothing spills.)
    wcfg.irregular_sizes = true;
    rcfg.pagoda.oversub = 1.5;
    rcfg.cluster.policy = "vres-aware";
  }

  obs::CollectorConfig ccfg;
  ccfg.sample_period = sim::microseconds(20.0);
  ccfg.spans = want_spans;
  obs::Collector collector(ccfg);
  rcfg.collector = &collector;

  const char* workload = plane == Plane::kVres ? "DCT" : "MM";
  const harness::Measurement m =
      harness::run_experiment(workload, "Cluster", wcfg, rcfg);

  Dump d;
  std::ostringstream metrics;
  m.metrics.write_json(metrics);
  d.metrics = metrics.str();
  if (want_spans) {
    std::ostringstream spans;
    collector.request_tracer().write_json(spans);
    d.spans = spans.str();
  }
  return d;
}

TEST(PlaneDeterminismSoak, FiftySeedsRunTwiceByteIdentical) {
  for (int i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = 0x9A60DAULL + static_cast<std::uint64_t>(i);
    const Plane plane = static_cast<Plane>(i % kNumPlanes);
    // Odd seeds dump spans too: the tracer's span order pins the exact pop
    // order of same-timestamp events across nodes and the dispatcher.
    const bool spans = (i % 2) == 1;

    const Dump first = run_once(seed, plane, spans);
    const Dump second = run_once(seed, plane, spans);

    ASSERT_EQ(first.metrics, second.metrics)
        << "seed " << seed << ": metrics differ between two identical runs";
    if (spans) {
      ASSERT_EQ(first.spans, second.spans)
          << "seed " << seed << ": span dumps differ between two identical "
          << "runs";
    }
  }
}

}  // namespace
}  // namespace pagoda
