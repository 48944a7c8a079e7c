// Elastic-fleet benchmark for the migration plane: live checkpoint/restore
// drains (migrate, not shed) plus the traffic-driven autoscaler, over a
// 16-node fleet.
//
//   elastic_fleet [--tasks=N] [--seeds=N] [--seed=BASE] [--gpus=N]
//                 [--rate=REQ_PER_S] [--out=BENCH_migrate.json]
//
// Two scenarios per seed:
//
//   rolling-resize — steady Poisson traffic while an explicit resize plan
//                    shrinks the fleet to a third of its size and grows it
//                    back. Every shrink drains one node at a time: in-flight
//                    attempts are checkpointed at their safe points
//                    (admitted-queued, H2D-staged, table-parked), charged an
//                    inter-node transfer on the PCIe layer, and restored on
//                    a surviving node as the SAME request. CHECK-enforced:
//                    nothing is lost (shed == dropped == 0, the exactly-once
//                    ledger balances). Gated: at least one attempt actually
//                    migrated, both plan steps fired, and availability —
//                    completions inside their SLO over everything offered —
//                    stays >= 99% through the resize.
//
//   diurnal day    — the same MMPP-2 peak/trough request stream run twice:
//                    once over the static full fleet (power metered, every
//                    node awake all day — the energy baseline) and once with
//                    the autoscaler, which drains + S-sleeps the surplus at
//                    the trough and wakes it for the peak. CHECK-enforced:
//                    identical per-class goodput (both runs are lossless by
//                    construction). Gated: the trough sleeps nodes, and the
//                    day costs measurably fewer joules per request than the
//                    static fleet (>= 1.15x, every seed).
//
// A gate is a verdict on this run's results, not a simulator invariant, and
// it is not monotone in --tasks: a miss prints `gate failed: ...` and exits 1.
//
// Emits BENCH_migrate.json, byte-identical across reruns with the same
// flags (the check.sh determinism gate diffs two fresh runs).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/open_loop.h"
#include "common/check.h"
#include "common/stats.h"
#include "harness/flags.h"
#include "migrate/autoscaler.h"
#include "migrate/migrate.h"
#include "obs/metrics.h"
#include "power/governor.h"
#include "power/power_spec.h"
#include "sched/policy.h"

using namespace pagoda;

namespace {

struct Scenario {
  int gpus = 16;
  int requests = 0;
  std::uint64_t seed = 1;
  double rate_per_sec = 0.0;
  bool diurnal = false;           // MMPP-2 peak/trough vs steady Poisson
  bool migrate = false;
  migrate::AutoscaleConfig autoscale{};  // armed() == false -> no resizer
  cluster::RequestProfile interactive;
  cluster::RequestProfile batch;
};

struct Outcome {
  double elapsed_ms = 0.0;
  double energy_j = 0.0;
  double joules_per_request = 0.0;
  double availability = 0.0;      // in-SLO completions / offered
  double inter_p99_us = 0.0;
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t dropped = 0;
  std::int64_t slo_violations = 0;
  std::int64_t migrated = 0;
  std::int64_t inter_completed = 0;
  std::int64_t batch_completed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t xfer_bytes = 0;
  std::uint64_t nodes_slept = 0;
  std::uint64_t nodes_woken = 0;
  std::uint64_t resize_events = 0;
};

std::vector<cluster::NodeConfig> node_configs(const Scenario& sc) {
  cluster::NodeConfig nc;
  // A shallow TaskTable keeps the backlog in the dispatcher where both
  // placement and the autoscaler's pressure signal can see it — and gives
  // drains a populated table to checkpoint from.
  nc.pagoda.rows_per_column = 4;
  return std::vector<cluster::NodeConfig>(static_cast<std::size_t>(sc.gpus),
                                          nc);
}

cluster::DispatcherConfig dispatcher_config(const Scenario& sc) {
  cluster::DispatcherConfig dc;
  dc.qos = true;  // per-class ledgers
  // Power plane always armed (static governor): the diurnal baseline is
  // "every node awake at P0 all day", so its joules are the yardstick the
  // autoscaled run is judged against.
  dc.power.spec = power::PowerSpec::default_spec();
  dc.power.governor = power::GovernorKind::kStatic;
  dc.migration.enabled = sc.migrate;
  dc.autoscale = sc.autoscale;
  return dc;
}

/// Deterministic class interleave: every 4th request is interactive, so
/// every configuration sees the identical arrival trace for a given seed.
bool is_interactive(int index) { return index % 4 == 0; }

Outcome run_scenario(const Scenario& sc) {
  cluster::OpenLoopRunner runner(node_configs(sc),
                                 cluster::make_policy("least-outstanding"),
                                 dispatcher_config(sc));
  cluster::ArrivalSource src;
  if (sc.diurnal) {
    src.arrival.kind = cluster::ArrivalKind::Diurnal;
    src.arrival.burst_factor = 8.0;                 // peak = 8x trough
    src.arrival.mean_on = sim::milliseconds(20.0);  // phase half-period
  } else {
    src.arrival.kind = cluster::ArrivalKind::Poisson;
  }
  src.arrival.rate_per_sec = sc.rate_per_sec;
  src.seed = sc.seed;
  src.requests = sc.requests;
  src.make = [&sc](int i) {
    return cluster::synth_request(
        is_interactive(i) ? sc.interactive : sc.batch, sc.seed, i);
  };
  runner.run(std::move(src), sim::seconds(600.0));
  PAGODA_CHECK_MSG(runner.done(), "elastic-fleet scenario did not drain");
  const cluster::Dispatcher& disp = runner.dispatcher();
  const sim::Time end_time = runner.end_time();

  const cluster::Dispatcher::Stats& st = disp.stats();
  Outcome out;
  out.elapsed_ms = sim::to_milliseconds(end_time);
  out.offered = st.offered;
  out.completed = st.completed;
  out.shed = st.shed;
  out.dropped = st.dropped;
  out.slo_violations = st.slo_violations;
  out.migrated = st.migrated;
  // The exactly-once ledger must balance under migration exactly as it does
  // under faults: every admitted request resolves once, a migrated attempt
  // is the same request (no extra resolution, no budget charge).
  PAGODA_CHECK_MSG(st.slot_releases == st.completed + st.shed,
                   "slot ledger out of balance");
  PAGODA_CHECK_MSG(st.slot_releases == st.admitted,
                   "admitted requests must resolve exactly once");
  if (out.offered > 0) {
    out.availability =
        static_cast<double>(out.completed - out.slo_violations) /
        static_cast<double>(out.offered);
  }
  for (int i = 0; i < runner.fleet().size(); ++i) {
    const power::NodePower* np = runner.fleet().node(i).power();
    PAGODA_CHECK_MSG(np != nullptr, "power plane must be armed");
    out.energy_j += np->energy_joules(end_time);
  }
  if (out.completed > 0) {
    out.joules_per_request =
        out.energy_j / static_cast<double>(out.completed);
  }
  if (const migrate::MigrationManager* mm = disp.migration()) {
    out.checkpoints = mm->stats().checkpoints;
    out.restores = mm->stats().restores;
    out.xfer_bytes = mm->stats().xfer_bytes;
  }
  if (const migrate::Autoscaler* as = disp.autoscaler()) {
    out.nodes_slept = as->stats().nodes_slept;
    out.nodes_woken = as->stats().nodes_woken;
    out.resize_events = as->stats().resize_events;
  }
  const std::span<const double> inter =
      disp.class_latencies_us(sched::Class::kInteractive);
  if (!inter.empty()) out.inter_p99_us = percentile(inter, 99);
  out.inter_completed =
      disp.class_stats(sched::Class::kInteractive).completed;
  out.batch_completed = disp.class_stats(sched::Class::kBatch).completed;
  return out;
}

void write_outcome_json(std::ostream& os, const Outcome& o) {
  using obs::format_metric_double;
  os << "\"joules_per_request\": " << format_metric_double(o.joules_per_request)
     << ", \"energy_j\": " << format_metric_double(o.energy_j)
     << ", \"availability\": " << format_metric_double(o.availability)
     << ", \"inter_p99_us\": " << format_metric_double(o.inter_p99_us)
     << ", \"offered\": " << o.offered << ", \"completed\": " << o.completed
     << ", \"shed\": " << o.shed << ", \"dropped\": " << o.dropped
     << ", \"slo_violations\": " << o.slo_violations
     << ", \"migrated\": " << o.migrated
     << ", \"checkpoints\": " << o.checkpoints
     << ", \"restores\": " << o.restores
     << ", \"xfer_bytes\": " << o.xfer_bytes
     << ", \"nodes_slept\": " << o.nodes_slept
     << ", \"nodes_woken\": " << o.nodes_woken
     << ", \"resize_events\": " << o.resize_events
     << ", \"inter_completed\": " << o.inter_completed
     << ", \"batch_completed\": " << o.batch_completed
     << ", \"elapsed_ms\": " << format_metric_double(o.elapsed_ms);
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 6000;
  int num_seeds = 2;
  int gpus = 16;
  std::uint64_t base_seed = 0xE1A5;
  double rate = 150.0e3;
  std::string out_path = "BENCH_migrate.json";
  using harness::Option;
  const harness::Options opts(
      argc, argv,
      {Option("tasks", &requests,
              "requests per run; its gates need the floor, and above it "
              "they are not monotone in --tasks (a failed gate exits 1)")
           .range(4250),
       Option("seeds", &num_seeds, "seeds per scenario").range(1),
       Option("seed", &base_seed, "first seed"),
       Option("gpus", &gpus, "fleet size (the resize plan needs a surplus)")
           .range(4, 1024),
       Option("rate", &rate, "mean offered load, requests/s").range(1e3),
       Option("out", &out_path, "JSON artifact path")});

  // Fail fast on unwritable output paths, before any simulation runs.
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: --out: cannot open output path '%s'\n",
                 out_path.c_str());
    return 2;
  }

  // Interactive: small, short, 5 ms SLO — the availability numerator.
  // Batch: ~20x the service demand, no deadline; it is what actually sits
  // in TaskTables when a drain hits, so it is what migrates.
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
      "=== elastic fleet: %d requests/run, %d gpus, %d seeds, base %llu "
      "===\n",
      requests, gpus, num_seeds, static_cast<unsigned long long>(base_seed));
  std::printf("%-6s %-14s %10s %10s %8s %8s %8s %8s\n", "seed", "scenario",
              "J/req", "avail", "migrated", "slept", "woken", "int p99");

  json << "{\n  \"bench\": \"elastic_fleet\", \"requests\": " << requests
       << ", \"gpus\": " << gpus << ", \"seeds\": " << num_seeds
       << ", \"base_seed\": " << base_seed << ",\n  \"runs\": [\n";

  bool first = true;
  double worst_gain = 0.0;
  double worst_avail = 1.0;
  bool have_worst = false;
  for (int s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s);

    // --- rolling resize: steady traffic, shrink to a third, grow back ----
    Scenario resize = proto;
    resize.seed = seed;
    resize.diurnal = false;
    resize.migrate = true;
    // The plan's instants sit inside the steady stream (expected length
    // requests/rate): shrink one node at a time down to gpus/3 a fifth of
    // the way in, then restore the full fleet at 60%.
    const double expect_us =
        static_cast<double>(requests) / proto.rate_per_sec * 1e6;
    resize.autoscale.plan = {
        {sim::microseconds(0.2 * expect_us), gpus / 3},
        {sim::microseconds(0.6 * expect_us), gpus},
    };
    const Outcome rz = run_scenario(resize);
    std::printf("%-6llu %-14s %9.2fmJ %9.4f %8lld %8llu %8llu %7.1fus\n",
                static_cast<unsigned long long>(seed), "rolling-resize",
                rz.joules_per_request * 1e3, rz.availability,
                static_cast<long long>(rz.migrated),
                static_cast<unsigned long long>(rz.nodes_slept),
                static_cast<unsigned long long>(rz.nodes_woken),
                rz.inter_p99_us);
    PAGODA_CHECK_MSG(rz.shed == 0 && rz.dropped == 0,
                     "rolling resize must not lose a single request");
    harness::gate(rz.checkpoints > 0 && rz.restores == rz.checkpoints,
                  "the resize must exercise live migration");
    harness::gate(rz.resize_events == 2, "both plan steps must fire");
    harness::gate(rz.availability >= 0.99,
                  "availability must stay >= 99% through the resize");
    if (rz.availability < worst_avail) worst_avail = rz.availability;
    if (!first) json << ",\n";
    first = false;
    json << "    {\"seed\": " << seed << ", \"scenario\": \"rolling-resize\""
         << ", ";
    write_outcome_json(json, rz);
    json << "}";

    // --- diurnal day: static full fleet vs autoscaled ---------------------
    Scenario stat = proto;
    stat.seed = seed;
    stat.diurnal = true;
    const Outcome base = run_scenario(stat);

    Scenario elastic = stat;
    elastic.migrate = true;
    elastic.autoscale.enabled = true;
    elastic.autoscale.target_util = 0.60;
    elastic.autoscale.low_watermark = 0.30;
    elastic.autoscale.high_watermark = 0.85;
    elastic.autoscale.min_nodes = 2;
    const Outcome ela = run_scenario(elastic);

    for (const Outcome* o : {&base, &ela}) {
      const bool is_base = o == &base;
      std::printf("%-6llu %-14s %9.2fmJ %9.4f %8lld %8llu %8llu %7.1fus\n",
                  static_cast<unsigned long long>(seed),
                  is_base ? "static-fleet" : "autoscaled",
                  o->joules_per_request * 1e3, o->availability,
                  static_cast<long long>(o->migrated),
                  static_cast<unsigned long long>(o->nodes_slept),
                  static_cast<unsigned long long>(o->nodes_woken),
                  o->inter_p99_us);
      if (!first) json << ",\n";
      first = false;
      json << "    {\"seed\": " << seed << ", \"scenario\": \""
           << (is_base ? "static-fleet" : "autoscaled") << "\", ";
      write_outcome_json(json, *o);
      json << "}";
    }
    // Equal per-class goodput: identical arrival trace, neither run drops
    // (unbounded queue) nor sheds (migrate-not-shed), so completions must
    // match exactly.
    PAGODA_CHECK_MSG(base.shed == 0 && base.dropped == 0 && ela.shed == 0 &&
                         ela.dropped == 0,
                     "both diurnal runs must be lossless");
    PAGODA_CHECK_MSG(ela.inter_completed == base.inter_completed &&
                         ela.batch_completed == base.batch_completed,
                     "per-class goodput must match the static fleet");
    harness::gate(ela.nodes_slept > 0,
                  "the autoscaler must sleep the diurnal trough");
    const double gain = base.joules_per_request / ela.joules_per_request;
    if (!have_worst || gain < worst_gain) worst_gain = gain;
    have_worst = true;
    harness::gate(gain >= 1.15,
                  "the autoscaled day must spend measurably fewer joules "
                  "per request than the static full fleet");
  }
  json << "\n  ],\n  \"worst_energy_gain\": "
       << obs::format_metric_double(worst_gain)
       << ",\n  \"worst_resize_availability\": "
       << obs::format_metric_double(worst_avail) << "\n}\n";

  std::printf("\nworst-seed autoscale gain vs static fleet: %.2fx "
              "joules/request (floor 1.15x); worst resize availability "
              "%.4f (floor 0.99)\n",
              worst_gain, worst_avail);
  std::printf("-> %s\n", out_path.c_str());
  return 0;
}
