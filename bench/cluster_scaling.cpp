// Cluster serving scaling sweep: 1 -> 4 homogeneous Titan X GPUs under each
// placement policy, with open-loop Poisson arrivals and per-request SLOs,
// plus a skewed/bursty scenario where load-aware placement has to beat
// round-robin on tail latency.
//
//   cluster_scaling [--tasks=N] [--seed=N] [--out=BENCH_cluster.json]
//
// Emits a stable JSON artifact (BENCH_cluster.json): throughput, latency
// percentiles, SLO violation rate and per-device load imbalance per sweep
// point. Byte-identical across reruns with the same flags — the ctest
// determinism check diffs two runs.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/open_loop.h"
#include "common/check.h"
#include "common/stats.h"
#include "harness/flags.h"
#include "obs/metrics.h"

using namespace pagoda;

namespace {

struct Scenario {
  int gpus = 1;
  /// True: a mixed titan_x + tesla_k40 fleet (gpus alternating specs)
  /// instead of homogeneous Titan X nodes.
  bool mixed = false;
  std::string policy;
  cluster::ArrivalConfig arrival;
  cluster::RequestProfile profile;
  int requests = 0;
  std::uint64_t seed = 1;
};

struct Outcome {
  double elapsed_ms = 0.0;
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double violation_rate = 0.0;
  double load_imbalance = 0.0;
  std::int64_t completed = 0;
  std::int64_t dropped = 0;
};

std::vector<cluster::NodeConfig> node_configs(const Scenario& sc) {
  cluster::NodeConfig proto;
  std::vector<cluster::NodeConfig> nodes =
      cluster::Cluster::homogeneous(sc.gpus, proto);
  if (sc.mixed) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].spec = (i % 2 == 0) ? gpu::GpuSpec::titan_x()
                                   : gpu::GpuSpec::tesla_k40();
    }
  }
  return nodes;
}

Outcome run_scenario(const Scenario& sc) {
  cluster::OpenLoopRunner runner(node_configs(sc),
                                 cluster::make_policy(sc.policy));
  runner.run({sc.arrival, sc.seed, sc.requests,
              [&](int i) {
                return cluster::synth_request(sc.profile, sc.seed, i);
              }},
             sim::seconds(120.0));
  PAGODA_CHECK_MSG(runner.done(), "cluster scenario did not drain");

  const cluster::Dispatcher::Stats& st = runner.dispatcher().stats();
  Outcome out;
  out.elapsed_ms = sim::to_milliseconds(runner.end_time());
  const double elapsed_s = sim::to_seconds(runner.end_time());
  if (elapsed_s > 0.0) {
    out.throughput_rps = static_cast<double>(st.completed) / elapsed_s;
  }
  const std::span<const double> lat = runner.dispatcher().latencies_us();
  if (!lat.empty()) {
    out.p50_us = percentile(lat, 50);
    out.p99_us = percentile(lat, 99);
  }
  if (st.offered > 0) {
    out.violation_rate = static_cast<double>(st.slo_violations) /
                         static_cast<double>(st.offered);
  }
  out.load_imbalance = runner.dispatcher().load_imbalance();
  out.completed = st.completed;
  out.dropped = st.dropped;
  PAGODA_CHECK_MSG(st.slot_releases == st.admitted,
                   "backpressure slots leaked");
  return out;
}

void write_outcome_json(std::ostream& os, const Outcome& o) {
  using obs::format_metric_double;
  os << "\"throughput_rps\": " << format_metric_double(o.throughput_rps)
     << ", \"p50_us\": " << format_metric_double(o.p50_us)
     << ", \"p99_us\": " << format_metric_double(o.p99_us)
     << ", \"violation_rate\": " << format_metric_double(o.violation_rate)
     << ", \"load_imbalance\": " << format_metric_double(o.load_imbalance)
     << ", \"completed\": " << o.completed << ", \"dropped\": " << o.dropped;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 4096;
  std::uint64_t seed = 0x9A60DA;
  std::string out_path = "BENCH_cluster.json";
  using harness::Option;
  const harness::Options opts(
      argc, argv,
      {Option("tasks", &requests, "requests per sweep point; its gates "
              "need the floor").range(98),
       Option("seed", &seed, "arrival and request seed"),
       Option("out", &out_path, "JSON artifact path")});

  // Uniform service demand, open-loop Poisson at a per-GPU constant offered
  // load, 2 ms deadline. The rate sits near one device's serving capacity so
  // adding GPUs visibly recovers the tail.
  cluster::RequestProfile uniform;
  uniform.slo = sim::milliseconds(2.0);
  const double rate_per_gpu = 220.0e3;  // requests/s

  // Skewed: wide, long, GPU-bound requests (executor-warp residency is the
  // binding resource, so serving capacity scales with each device's
  // SMM count x clock — Titan X has ~2.2x a K40's), plus a rare (0.5%) 32x
  // heavy elephant. Rare enough that p99 measures the SMALL requests — the
  // ones that queue behind overloaded devices — not the elephants' own
  // intrinsic service time, which no placement policy can reduce.
  cluster::RequestProfile skewed = uniform;
  skewed.threads_per_task = 256;
  skewed.compute_cycles = 180000.0;
  skewed.stall_cycles = 360000.0;
  skewed.heavy_fraction = 0.005;
  skewed.heavy_multiplier = 32.0;

  std::printf("=== cluster scaling: %d requests/point, seed %llu ===\n",
              requests, static_cast<unsigned long long>(seed));
  std::printf("%-5s %-18s %12s %10s %10s %10s %10s\n", "gpus", "policy",
              "thr (k/s)", "p50 (us)", "p99 (us)", "viol", "imbal");

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"cluster_scaling\", \"requests\": " << requests
       << ", \"seed\": " << seed << ",\n  \"sweep\": [\n";

  bool first = true;
  for (int gpus = 1; gpus <= 4; ++gpus) {
    for (const std::string_view policy : cluster::all_policy_names()) {
      Scenario sc;
      sc.gpus = gpus;
      sc.policy = std::string(policy);
      sc.arrival.kind = cluster::ArrivalKind::Poisson;
      sc.arrival.rate_per_sec = rate_per_gpu * gpus;
      sc.profile = uniform;
      sc.requests = requests;
      sc.seed = seed;
      const Outcome o = run_scenario(sc);
      std::printf("%-5d %-18s %12.1f %10.1f %10.1f %9.2f%% %10.3f\n", gpus,
                  sc.policy.c_str(), o.throughput_rps / 1e3, o.p50_us,
                  o.p99_us, o.violation_rate * 100.0, o.load_imbalance);
      if (!first) json << ",\n";
      first = false;
      json << "    {\"gpus\": " << gpus << ", \"policy\": \"" << sc.policy
           << "\", ";
      write_outcome_json(json, o);
      json << "}";
    }
  }
  json << "\n  ],\n  \"bursty_skewed\": [\n";

  // The head-to-head: skewed heavy-tailed requests under a sustained bursty
  // overload on a MIXED fleet (1 Titan X + 1 Tesla K40, the K40 holding
  // only ~1/3 of the GPU-bound capacity). Arrivals outrun the fleet, so
  // tail latency is set by how the backlog drains: round-robin's blind
  // 50/50 split leaves half the work queued on the slow K40 long after the
  // Titan X runs dry, while work-aware least-loaded splits the backlog in
  // proportion to capacity and finishes both queues together — a ~1.5x
  // better p99, robustly across seeds, because the gap is structural
  // (capacity misallocation), not a lucky arrival pattern.
  const double skewed_rate_total = 300.0e3;
  double rr_p99 = 0.0;
  double ll_p99 = 0.0;
  first = true;
  for (const char* policy : {"round-robin", "least-loaded"}) {
    Scenario sc;
    sc.gpus = 2;
    sc.mixed = true;
    sc.policy = policy;
    sc.arrival.kind = cluster::ArrivalKind::Bursty;
    sc.arrival.rate_per_sec = skewed_rate_total;
    sc.arrival.burst_factor = 2.0;
    sc.arrival.mean_on = sim::microseconds(500.0);
    sc.profile = skewed;
    sc.requests = requests;
    sc.seed = seed;
    const Outcome o = run_scenario(sc);
    std::printf("%-5s %-18s %12.1f %10.1f %10.1f %9.2f%% %10.3f\n", "2mix",
                sc.policy.c_str(), o.throughput_rps / 1e3, o.p50_us, o.p99_us,
                o.violation_rate * 100.0, o.load_imbalance);
    if (sc.policy == "round-robin") rr_p99 = o.p99_us;
    if (sc.policy == "least-loaded") ll_p99 = o.p99_us;
    if (!first) json << ",\n";
    first = false;
    json << "    {\"gpus\": 2, \"mixed\": true, \"policy\": \"" << sc.policy
         << "\", ";
    write_outcome_json(json, o);
    json << "}";
  }
  json << "\n  ]\n}\n";

  std::printf("\nbursty/skewed p99: round-robin %.1f us, least-loaded %.1f us "
              "(%.2fx)\n",
              rr_p99, ll_p99, ll_p99 > 0.0 ? rr_p99 / ll_p99 : 0.0);
  std::printf("-> %s\n", out_path.c_str());
  PAGODA_CHECK_MSG(ll_p99 < rr_p99,
                   "least-loaded must beat round-robin on bursty p99");
  return 0;
}
