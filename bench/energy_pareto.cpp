// Energy/latency Pareto sweep over the power plane: the same diurnal
// request stream on a 4-node fleet, run once per power configuration.
//
//   energy_pareto [--tasks=N] [--seeds=N] [--seed=BASE] [--gpus=N]
//                 [--rate=REQ_PER_S] [--out=BENCH_power.json]
//
// Points, from "performance at any cost" to "joules at any cost":
//
//   always-max   — power metered, no adaptation (static governor, floor 0).
//                  Timing is bit-identical to a power-unaware run; this is
//                  the energy baseline every other point is judged against.
//   static-p1/2/3 — whole fleet pinned at a deeper P-state: cheaper per
//                  issued instruction, slower clock, longer queues.
//   dvfs         — per-node DVFS between P0 and the floor on issue
//                  utilization, C-states for idle SMMs, SLA-warning boost.
//   powercap     — dvfs plus a fleet-watt ceiling, fronted by the
//                  power-cap placement policy (admission refuses work that
//                  would bust the budget, so this point may shed).
//   energy-min   — energy-min packing placement + dvfs + S-state sleep for
//                  the idle tail of the fleet. The diurnal trough is where
//                  it earns its keep: surplus nodes sleep at ~1 W instead
//                  of idling at ~99 W.
//
// Traffic is diurnal MMPP-2 (peak/trough phases, equal-mean), every 4th
// request a small interactive one carrying an SLO — its p99 is the latency
// axis of the Pareto front, and S-state wake-ups land on it as the
// power_wakeup trace phase.
//
// CHECK-enforced for every seed: energy-min completes the identical
// per-class goodput as always-max (both are lossless by construction) while
// spending >= 1.3x fewer joules per completed request. The deeper static
// points and powercap are reported as data, not checked: their tradeoff is
// the point of the figure.
//
// Emits BENCH_power.json, byte-identical across reruns with the same flags
// (the check.sh determinism gate diffs two fresh runs).
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/open_loop.h"
#include "common/check.h"
#include "common/stats.h"
#include "harness/flags.h"
#include "obs/metrics.h"
#include "power/governor.h"
#include "power/power_spec.h"
#include "sched/policy.h"

using namespace pagoda;

namespace {

struct Point {
  const char* name;
  const char* placement;          // cluster placement policy
  power::GovernorKind governor;
  int p_floor;                    // deepest P-state the governor may use
  double cap_watts;               // powercap budget; 0 = uncapped
  bool manage_sleep;              // S-state management (energy-min pairing)
};

constexpr std::array<Point, 7> kPoints = {{
    {"always-max", "least-outstanding", power::GovernorKind::kStatic, 0, 0.0,
     false},
    {"static-p1", "least-outstanding", power::GovernorKind::kStatic, 1, 0.0,
     false},
    {"static-p2", "least-outstanding", power::GovernorKind::kStatic, 2, 0.0,
     false},
    {"static-p3", "least-outstanding", power::GovernorKind::kStatic, 3, 0.0,
     false},
    {"dvfs", "least-outstanding", power::GovernorKind::kDvfs, 3, 0.0, false},
    {"powercap", "power-cap", power::GovernorKind::kPowerCap, 3, 260.0,
     false},
    {"energy-min", "energy-min", power::GovernorKind::kDvfs, 3, 0.0, true},
}};

struct Scenario {
  Point point;
  int gpus = 4;
  int requests = 0;
  std::uint64_t seed = 1;
  double rate_per_sec = 0.0;
  cluster::RequestProfile interactive;
  cluster::RequestProfile batch;
};

struct Outcome {
  double elapsed_ms = 0.0;
  double energy_j = 0.0;
  double joules_per_request = 0.0;
  double avg_fleet_watts = 0.0;
  double inter_p99_us = 0.0;
  double batch_p99_us = 0.0;
  std::int64_t completed = 0;
  std::int64_t dropped = 0;
  std::int64_t inter_completed = 0;
  std::int64_t batch_completed = 0;
  std::uint64_t transitions = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t nodes_slept = 0;
};

std::vector<cluster::NodeConfig> node_configs(const Scenario& sc) {
  cluster::NodeConfig nc;
  // A shallow TaskTable keeps the backlog in the dispatcher where placement
  // (and the governor's backlog signal) can see it.
  nc.pagoda.rows_per_column = 4;
  return std::vector<cluster::NodeConfig>(static_cast<std::size_t>(sc.gpus),
                                          nc);
}

cluster::DispatcherConfig dispatcher_config(const Scenario& sc) {
  cluster::DispatcherConfig dc;
  dc.qos = true;  // per-class ledgers
  power::PowerSpec spec = power::PowerSpec::default_spec();
  spec.p_floor = sc.point.p_floor;
  dc.power.spec = spec;
  dc.power.governor = sc.point.governor;
  dc.power.cap_watts = sc.point.cap_watts;
  dc.power.manage_sleep = sc.point.manage_sleep;
  return dc;
}

/// Deterministic class interleave: every 4th request is interactive, so
/// every point sees the identical arrival trace for a given seed.
bool is_interactive(int index) { return index % 4 == 0; }

Outcome run_point(const Scenario& sc) {
  cluster::OpenLoopRunner runner(node_configs(sc),
                                 cluster::make_policy(sc.point.placement),
                                 dispatcher_config(sc));
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Diurnal;
  src.arrival.rate_per_sec = sc.rate_per_sec;
  src.arrival.burst_factor = 8.0;                 // peak = 8x trough
  src.arrival.mean_on = sim::milliseconds(20.0);  // phase half-period
  src.seed = sc.seed;
  src.requests = sc.requests;
  src.make = [&sc](int i) {
    return cluster::synth_request(
        is_interactive(i) ? sc.interactive : sc.batch, sc.seed, i);
  };
  runner.run(std::move(src), sim::seconds(600.0));
  PAGODA_CHECK_MSG(runner.done(), "energy point did not drain");
  const cluster::Dispatcher& disp = runner.dispatcher();
  const sim::Time end_time = runner.end_time();

  Outcome out;
  out.elapsed_ms = sim::to_milliseconds(end_time);
  out.completed = disp.stats().completed;
  out.dropped = disp.stats().dropped;
  for (int i = 0; i < runner.fleet().size(); ++i) {
    const power::NodePower* np = runner.fleet().node(i).power();
    PAGODA_CHECK_MSG(np != nullptr, "power plane must be armed");
    out.energy_j += np->energy_joules(end_time);
    out.transitions += np->transitions();
    out.wakeups += np->wakeups();
  }
  if (out.completed > 0) {
    out.joules_per_request =
        out.energy_j / static_cast<double>(out.completed);
  }
  const double elapsed_s = sim::to_seconds(end_time);
  if (elapsed_s > 0.0) out.avg_fleet_watts = out.energy_j / elapsed_s;
  PAGODA_CHECK_MSG(disp.governor() != nullptr, "governor must run");
  out.nodes_slept = disp.governor()->stats().nodes_slept;

  const std::span<const double> inter =
      disp.class_latencies_us(sched::Class::kInteractive);
  const std::span<const double> batch =
      disp.class_latencies_us(sched::Class::kBatch);
  PAGODA_CHECK_MSG(!inter.empty() && !batch.empty(),
                   "both classes must complete work");
  out.inter_p99_us = percentile(inter, 99);
  out.batch_p99_us = percentile(batch, 99);
  out.inter_completed =
      disp.class_stats(sched::Class::kInteractive).completed;
  out.batch_completed = disp.class_stats(sched::Class::kBatch).completed;
  return out;
}

void write_outcome_json(std::ostream& os, const Outcome& o) {
  using obs::format_metric_double;
  os << "\"joules_per_request\": " << format_metric_double(o.joules_per_request)
     << ", \"energy_j\": " << format_metric_double(o.energy_j)
     << ", \"avg_fleet_watts\": " << format_metric_double(o.avg_fleet_watts)
     << ", \"inter_p99_us\": " << format_metric_double(o.inter_p99_us)
     << ", \"batch_p99_us\": " << format_metric_double(o.batch_p99_us)
     << ", \"completed\": " << o.completed << ", \"dropped\": " << o.dropped
     << ", \"inter_completed\": " << o.inter_completed
     << ", \"batch_completed\": " << o.batch_completed
     << ", \"transitions\": " << o.transitions
     << ", \"wakeups\": " << o.wakeups
     << ", \"nodes_slept\": " << o.nodes_slept
     << ", \"elapsed_ms\": " << format_metric_double(o.elapsed_ms);
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 8192;
  int num_seeds = 3;
  int gpus = 4;
  std::uint64_t base_seed = 0xEC0;
  double rate = 100.0e3;
  std::string out_path = "BENCH_power.json";
  using harness::Option;
  const harness::Options opts(
      argc, argv,
      {Option("tasks", &requests, "requests per run").range(1),
       Option("seeds", &num_seeds, "seeds per point").range(1),
       Option("seed", &base_seed, "first seed"),
       Option("gpus", &gpus, "fleet size (sleep needs a surplus)")
           .range(2, 1024),
       Option("rate", &rate, "mean offered load, requests/s").range(1e3),
       Option("out", &out_path, "JSON artifact path")});

  // Fail fast on unwritable output paths, before any simulation runs.
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: --out: cannot open output path '%s'\n",
                 out_path.c_str());
    return 2;
  }

  // Interactive: small, short, 5 ms SLO (wide enough to absorb a C-state
  // wake, tight enough that an S3 wake-up is visible as a violation).
  // Batch: ~20x the service demand, no deadline. The mean rate sits where
  // the diurnal trough packs onto one node and the peak needs most of the
  // fleet — the regime where sleep management pays.
  Scenario proto;
  proto.gpus = gpus;
  proto.requests = requests;
  proto.rate_per_sec = rate;
  proto.interactive.threads_per_task = 64;
  proto.interactive.compute_cycles = 6000.0;
  proto.interactive.stall_cycles = 12000.0;
  proto.interactive.h2d_bytes = 2048;
  proto.interactive.d2h_bytes = 512;
  proto.interactive.slo = sim::milliseconds(5.0);
  proto.interactive.cls = sched::Class::kInteractive;
  proto.batch.threads_per_task = 256;
  proto.batch.compute_cycles = 120000.0;
  proto.batch.stall_cycles = 240000.0;
  proto.batch.slo = 0;
  proto.batch.cls = sched::Class::kBatch;

  std::printf(
      "=== energy pareto: %d requests/run, %d gpus, %d seeds, base %llu ===\n",
      requests, gpus, num_seeds, static_cast<unsigned long long>(base_seed));
  std::printf("%-6s %-11s %10s %10s %10s %10s %8s %8s\n", "seed", "point",
              "J/req", "avg W", "int p99", "batch p99", "slept", "dropped");

  json << "{\n  \"bench\": \"energy_pareto\", \"requests\": " << requests
       << ", \"gpus\": " << gpus << ", \"seeds\": " << num_seeds
       << ", \"base_seed\": " << base_seed << ",\n  \"runs\": [\n";

  bool first = true;
  double worst_gain = 0.0;
  bool have_worst = false;
  for (int s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s);
    std::array<Outcome, kPoints.size()> outs;
    for (std::size_t p = 0; p < kPoints.size(); ++p) {
      Scenario sc = proto;
      sc.point = kPoints[p];
      sc.seed = seed;
      outs[p] = run_point(sc);
      std::printf("%-6llu %-11s %9.2fmJ %9.1fW %8.1fus %8.1fus %8llu %8lld\n",
                  static_cast<unsigned long long>(seed), sc.point.name,
                  outs[p].joules_per_request * 1e3, outs[p].avg_fleet_watts,
                  outs[p].inter_p99_us, outs[p].batch_p99_us,
                  static_cast<unsigned long long>(outs[p].nodes_slept),
                  static_cast<long long>(outs[p].dropped));
      if (!first) json << ",\n";
      first = false;
      json << "    {\"seed\": " << seed << ", \"point\": \"" << sc.point.name
           << "\", ";
      write_outcome_json(json, outs[p]);
      json << "}";
    }
    const Outcome& always_max = outs[0];
    const Outcome& energy_min = outs[kPoints.size() - 1];
    // Equal per-class goodput: identical arrival trace, neither point drops
    // (unbounded queue, no cap), so completions must match exactly.
    PAGODA_CHECK_MSG(always_max.dropped == 0 && energy_min.dropped == 0,
                     "baseline and energy-min must be lossless");
    PAGODA_CHECK_MSG(
        energy_min.inter_completed == always_max.inter_completed &&
            energy_min.batch_completed == always_max.batch_completed,
        "per-class goodput must match the always-max baseline");
    const double gain =
        always_max.joules_per_request / energy_min.joules_per_request;
    if (!have_worst || gain < worst_gain) worst_gain = gain;
    have_worst = true;
    PAGODA_CHECK_MSG(gain >= 1.3,
                     "energy-min must spend >= 1.3x fewer joules per "
                     "request than always-max");
  }
  json << "\n  ],\n  \"worst_energy_gain\": "
       << obs::format_metric_double(worst_gain) << "\n}\n";

  std::printf("\nworst-seed energy-min gain vs always-max: %.2fx "
              "joules/request (floor 1.3x)\n",
              worst_gain);
  std::printf("-> %s\n", out_path.c_str());
  return 0;
}
