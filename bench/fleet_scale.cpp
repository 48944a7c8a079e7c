// Fleet-scale sweep: 1 -> 1,024 homogeneous nodes behind one dispatcher,
// measuring how far ONE simulated fleet scales on the single event queue.
//
//   fleet_scale [--tasks-per-node=N] [--seed=N] [--out=BENCH_fleet.json]
//
// Each point offers the same per-node load. The JSON artifact carries the
// stable simulated outcomes (completed count, virtual end time) and the
// machine-dependent wall-clock milliseconds and peak RSS; tools/check.sh
// gates the sweep's total wall-clock and the 256- and 1,024-node peak RSS.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/open_loop.h"
#include "common/check.h"
#include "harness/flags.h"
#include "obs/metrics.h"

using namespace pagoda;

namespace {

struct Outcome {
  double elapsed_ms = 0.0;       // virtual
  double wall_ms = 0.0;          // real
  std::int64_t completed = 0;
  double throughput_rps = 0.0;   // virtual
  /// Process high-water RSS after the point. The sweep ascends, so this is
  /// the largest point's footprint (monotone across the sweep).
  double peak_rss_mb = 0.0;
};

Outcome run_point(int nodes, int requests, std::uint64_t seed) {
  cluster::NodeConfig proto;
  cluster::RequestProfile profile;  // uniform, no SLO: pure throughput
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Poisson;
  src.arrival.rate_per_sec = 200.0e3 * nodes;  // constant load per node
  src.seed = seed;
  src.requests = requests;
  src.make = [&](int i) { return cluster::synth_request(profile, seed, i); };

  cluster::OpenLoopRunner runner(cluster::Cluster::homogeneous(nodes, proto),
                                 cluster::make_policy("round-robin"));
  const auto wall_start = std::chrono::steady_clock::now();
  runner.run(std::move(src), sim::seconds(120.0));
  const auto wall_end = std::chrono::steady_clock::now();
  PAGODA_CHECK_MSG(runner.done(), "fleet point did not drain");

  Outcome o;
  o.elapsed_ms = sim::to_milliseconds(runner.end_time());
  o.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  o.completed = runner.dispatcher().stats().completed;
  const double elapsed_s = sim::to_seconds(runner.end_time());
  if (elapsed_s > 0.0) {
    o.throughput_rps = static_cast<double>(o.completed) / elapsed_s;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  o.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Flags flags(argc, argv);
  const std::string bad =
      flags.unknown({"tasks-per-node", "seed", "out", "help"});
  if (!bad.empty()) {
    std::fprintf(stderr, "error: unknown argument '%s'\n", bad.c_str());
    return 1;
  }
  if (flags.has("help")) {
    std::printf("fleet_scale [--tasks-per-node=N] [--seed=N] [--out=FILE]\n");
    return 0;
  }
  const int per_node = static_cast<int>(flags.get_int("tasks-per-node", 64));
  const auto seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 0x9A60DA));
  const std::string out_path = flags.get("out", "BENCH_fleet.json");
  PAGODA_CHECK_MSG(per_node > 0, "--tasks-per-node must be positive");

  std::printf("=== fleet scale: %d requests/node, seed %llu ===\n", per_node,
              static_cast<unsigned long long>(seed));
  std::printf("%-6s %12s %12s %12s %12s\n", "nodes", "thr (k/s)", "sim (ms)",
              "wall (ms)", "rss (MB)");

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"fleet_scale\", \"tasks_per_node\": " << per_node
       << ", \"seed\": " << seed << ",\n  \"sweep\": [\n";

  bool first = true;
  for (const int nodes : {1, 4, 16, 64, 256, 1024}) {
    const Outcome o = run_point(nodes, per_node * nodes, seed);
    std::printf("%-6d %12.1f %12.1f %12.1f %12.1f\n", nodes,
                o.throughput_rps / 1e3, o.elapsed_ms, o.wall_ms,
                o.peak_rss_mb);
    if (!first) json << ",\n";
    first = false;
    json << "    {\"nodes\": " << nodes << ", \"completed\": " << o.completed
         << ", \"sim_ms\": " << obs::format_metric_double(o.elapsed_ms)
         << ", \"wall_ms\": " << obs::format_metric_double(o.wall_ms)
         << ", \"peak_rss_mb\": " << obs::format_metric_double(o.peak_rss_mb)
         << "}";
  }
  json << "\n  ]\n}\n";
  std::printf("-> %s\n", out_path.c_str());
  return 0;
}
