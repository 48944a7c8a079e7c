// Golden-file pin on the full observability snapshot of fixed-seed runs.
//
// The metrics JSON is a byte-stable digest of a run's entire virtual-time
// behavior (occupancy series, PCIe byte counters, latency histograms, ...).
// Pinning it to a checked-in golden file guards two contracts at once:
//  * determinism — the same seed must reproduce the same bytes, run after
//    run and build after build (Release and sanitizer passes both run this
//    test);
//  * refactor safety — engine/scheduler reworks (the engine::Session port,
//    event-queue pooling) must not shift a single event, or these bytes
//    change.
//
// Regenerate intentionally with:  PAGODA_UPDATE_GOLDEN=1 ./golden_metrics_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/calibration.h"
#include "harness/experiment.h"
#include "obs/collector.h"

namespace pagoda {
namespace {

constexpr std::uint64_t kSeed = 0x9A60DAULL;

std::string golden_path(const std::string& name) {
  return std::string(PAGODA_GOLDEN_DIR) + "/" + name + ".json";
}

std::string run_metrics_json(const std::string& runtime,
                             baselines::RunConfig rcfg,
                             const std::string& workload = "MM") {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 256;
  wcfg.threads_per_task = 128;
  wcfg.seed = kSeed;

  obs::CollectorConfig ccfg;
  ccfg.sample_period = sim::microseconds(20.0);
  obs::Collector collector(ccfg);

  rcfg.mode = gpu::ExecMode::Model;
  rcfg.collect_latencies = true;
  rcfg.collector = &collector;

  const harness::Measurement m =
      harness::run_experiment(workload, runtime, wcfg, rcfg);
  std::ostringstream out;
  m.metrics.write_json(out);
  return out.str();
}

void check_against_golden(const std::string& name, const std::string& json) {
  const std::string path = golden_path(name);
  if (std::getenv("PAGODA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with PAGODA_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), json) << "metrics diverged from golden " << path;
}

TEST(GoldenMetrics, PagodaMM) {
  check_against_golden("metrics_mm_pagoda",
                       run_metrics_json("Pagoda", harness::paper_platform()));
}

TEST(GoldenMetrics, HyperQMM) {
  check_against_golden("metrics_mm_hyperq",
                       run_metrics_json("HyperQ", harness::paper_platform()));
}

TEST(GoldenMetrics, GeMTCMM) {
  check_against_golden("metrics_mm_gemtc",
                       run_metrics_json("GeMTC", harness::paper_platform()));
}

TEST(GoldenMetrics, ClusterMM) {
  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.cluster.specs = {gpu::GpuSpec::titan_x(), gpu::GpuSpec::tesla_k40()};
  rcfg.cluster.policy = "least-loaded";
  rcfg.cluster.arrival = {cluster::ArrivalKind::Poisson, 150000.0};
  rcfg.cluster.dispatcher.default_slo = sim::microseconds(5000.0);
  rcfg.cluster.seed = kSeed;
  check_against_golden("metrics_mm_cluster",
                       run_metrics_json("Cluster", rcfg));
}

/// The Fig-11 ablation shares the Pagoda driver; pin it too so the port of
/// the batching path is covered.
TEST(GoldenMetrics, PagodaBatchingMM) {
  check_against_golden(
      "metrics_mm_pagoda_batching",
      run_metrics_json("PagodaBatching", harness::paper_platform()));
}

/// The CPU baselines run on the host pool, not the device: pin both pool
/// widths, and a multi-wave workload whose waves join before the next starts.
TEST(GoldenMetrics, PThreadsMM) {
  check_against_golden("metrics_mm_pthreads",
                       run_metrics_json("PThreads", harness::paper_platform()));
}

TEST(GoldenMetrics, SequentialMM) {
  check_against_golden(
      "metrics_mm_sequential",
      run_metrics_json("Sequential", harness::paper_platform()));
}

TEST(GoldenMetrics, PThreadsSLUD) {
  check_against_golden(
      "metrics_slud_pthreads",
      run_metrics_json("PThreads", harness::paper_platform(), "SLUD"));
}

/// Three back-to-back runs in one process must produce identical bytes:
/// nothing in a run may leak state into the next (static counters, pooled
/// allocators, RNG).
TEST(GoldenMetrics, RepeatsAreByteIdentical) {
  const std::string a = run_metrics_json("Pagoda", harness::paper_platform());
  const std::string b = run_metrics_json("Pagoda", harness::paper_platform());
  const std::string c = run_metrics_json("Pagoda", harness::paper_platform());
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

}  // namespace
}  // namespace pagoda
