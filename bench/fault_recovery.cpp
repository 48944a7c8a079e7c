// Availability under fault injection: how much admitted work the cluster
// still delivers as the task-fault rate climbs, with and without retries,
// plus a mid-run node-crash scenario (with and without recovery).
//
//   fault_recovery [--tasks=N] [--seed=N] [--out=BENCH_fault.json]
//
// Sweep: task-fault rates 0 -> 0.6 x retry budget {0, 3} on a 2-GPU
// least-loaded cluster under open-loop Poisson arrivals. "Goodput" is the
// delivered fraction of the offered stream times the offered rate
// (availability x arrival rate) — elapsed-time throughput would conflate
// retry backoff tail with lost work. With budget 3 a request survives
// unless four independent attempts all fail (loss = p^4), so at p = 0.6
// retries must deliver >= 2x the no-retry goodput (0.87 vs 0.40 expected);
// the CHECK at the bottom enforces that margin for every seed.
//
// Emits a stable JSON artifact, byte-identical across reruns with the same
// flags — tools/check.sh diffs two runs.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/open_loop.h"
#include "common/check.h"
#include "fault/plan.h"
#include "harness/flags.h"
#include "obs/metrics.h"

using namespace pagoda;

namespace {

struct Scenario {
  int gpus = 2;
  std::string policy = "least-loaded";
  double rate_per_sec = 300.0e3;
  fault::FaultPlan faults{};  // default: fault plane off
  int retry_budget = 0;
  sim::Duration task_timeout = 0;
  int requests = 0;
  std::uint64_t seed = 1;
};

struct Outcome {
  double availability = 0.0;  // completed / offered
  double goodput_rps = 0.0;   // availability x offered rate
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t retries = 0;
  std::int64_t redispatched = 0;
  std::int64_t injected_task_faults = 0;
  std::int64_t detected_node_deaths = 0;
  std::int64_t nodes_recovered = 0;
  double elapsed_ms = 0.0;
};

cluster::DispatcherConfig dispatcher_config(const Scenario& sc) {
  cluster::DispatcherConfig dc;
  dc.faults = sc.faults;
  if (dc.faults.seed == 0) dc.faults.seed = sc.seed;
  dc.retry.seed = dc.faults.seed;
  dc.retry.budget = sc.retry_budget;
  dc.task_timeout = sc.task_timeout;
  return dc;
}

Outcome run_scenario(const Scenario& sc) {
  cluster::OpenLoopRunner runner(cluster::Cluster::homogeneous(sc.gpus),
                                 cluster::make_policy(sc.policy),
                                 dispatcher_config(sc));
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Poisson;
  src.arrival.rate_per_sec = sc.rate_per_sec;
  src.seed = sc.seed;
  src.requests = sc.requests;
  // Uniform light requests, no SLO: the sweep measures pure availability.
  const cluster::RequestProfile profile;
  src.make = [&](int i) {
    return cluster::synth_request(profile, sc.seed, i);
  };
  runner.run(std::move(src), sim::seconds(120.0));
  PAGODA_CHECK_MSG(runner.done(), "fault scenario did not drain");

  const cluster::Dispatcher::Stats& st = runner.dispatcher().stats();
  // The exactly-once ledger must balance under every plan in the sweep.
  PAGODA_CHECK_MSG(st.completed + st.shed == st.admitted,
                   "request lost or double-resolved");
  PAGODA_CHECK_MSG(st.slot_releases == st.admitted, "slot ledger leaked");

  Outcome out;
  out.completed = st.completed;
  out.shed = st.shed;
  out.retries = st.retries;
  out.redispatched = st.redispatched;
  out.injected_task_faults = st.injected_task_faults;
  out.detected_node_deaths = st.detected_node_deaths;
  out.nodes_recovered = st.nodes_recovered;
  out.elapsed_ms = sim::to_milliseconds(runner.end_time());
  if (st.offered > 0) {
    out.availability = static_cast<double>(st.completed) /
                       static_cast<double>(st.offered);
  }
  out.goodput_rps = out.availability * sc.rate_per_sec;
  return out;
}

void write_outcome_json(std::ostream& os, const Outcome& o) {
  using obs::format_metric_double;
  os << "\"availability\": " << format_metric_double(o.availability)
     << ", \"goodput_rps\": " << format_metric_double(o.goodput_rps)
     << ", \"completed\": " << o.completed << ", \"shed\": " << o.shed
     << ", \"retries\": " << o.retries
     << ", \"redispatched\": " << o.redispatched
     << ", \"task_faults\": " << o.injected_task_faults
     << ", \"node_deaths\": " << o.detected_node_deaths
     << ", \"recovered\": " << o.nodes_recovered
     << ", \"elapsed_ms\": " << format_metric_double(o.elapsed_ms);
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 2000;
  std::uint64_t seed = 0x9A60DA;
  std::string out_path = "BENCH_fault.json";
  using harness::Option;
  const harness::Options opts(
      argc, argv,
      {Option("tasks", &requests, "requests per sweep point").range(1),
       Option("seed", &seed, "arrival, request and fault seed"),
       Option("out", &out_path, "JSON artifact path")});

  std::printf("=== availability under fault: %d requests/point, seed %llu "
              "===\n",
              requests, static_cast<unsigned long long>(seed));
  std::printf("%-10s %-8s %12s %12s %10s %10s\n", "fault", "budget", "avail",
              "goodput k/s", "retries", "shed");

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"fault_recovery\", \"requests\": " << requests
       << ", \"seed\": " << seed << ",\n  \"sweep\": [\n";

  const double rates[] = {0.0, 0.15, 0.3, 0.45, 0.6};
  double goodput_retry_at_max = 0.0;
  double goodput_noretry_at_max = 0.0;
  bool first = true;
  for (const double rate : rates) {
    for (const int budget : {0, 3}) {
      Scenario sc;
      sc.faults.task_fault_rate = rate;
      sc.retry_budget = budget;
      sc.requests = requests;
      sc.seed = seed;
      const Outcome o = run_scenario(sc);
      std::printf("%-10.2f %-8d %12.3f %12.1f %10lld %10lld\n", rate, budget,
                  o.availability, o.goodput_rps / 1e3,
                  static_cast<long long>(o.retries),
                  static_cast<long long>(o.shed));
      if (rate == rates[4]) {
        if (budget == 3) goodput_retry_at_max = o.goodput_rps;
        if (budget == 0) goodput_noretry_at_max = o.goodput_rps;
      }
      if (!first) json << ",\n";
      first = false;
      json << "    {\"fault_rate\": " << obs::format_metric_double(rate)
           << ", \"budget\": " << budget << ", ";
      write_outcome_json(json, o);
      json << "}";
    }
  }
  json << "\n  ],\n  \"crash\": [\n";

  // Mid-run node crash on the 2-GPU fleet: the watchdog detects the death,
  // the dead node's in-flight work re-dispatches to the survivor, and (in
  // the recovery variant) the node returns to rotation. Either way NOTHING
  // may be lost: redispatch is budget-free, so with no other fault source
  // every admitted request completes.
  first = true;
  // Crash a third of the way through the arrival horizon so the node holds
  // in-flight work when it dies, whatever --tasks is.
  const long crash_us =
      static_cast<long>(1e6 * requests / (3.0 * 300.0e3));
  for (const bool recovers : {false, true}) {
    Scenario sc;
    fault::CrashEvent crash;
    crash.node = 1;
    crash.at = sim::microseconds(static_cast<double>(crash_us));
    crash.recovers = recovers;
    if (recovers) crash.recover_after = crash.at;
    sc.faults.crashes.push_back(crash);
    sc.retry_budget = 3;
    sc.task_timeout = sim::microseconds(3000.0);
    sc.requests = requests;
    sc.seed = seed;
    const Outcome o = run_scenario(sc);
    std::printf("%-10s %-8d %12.3f %12.1f %10lld %10lld\n",
                recovers ? "crash+rec" : "crash", 3, o.availability,
                o.goodput_rps / 1e3, static_cast<long long>(o.redispatched),
                static_cast<long long>(o.shed));
    PAGODA_CHECK_MSG(o.detected_node_deaths == 1,
                     "watchdog must detect the crash exactly once");
    PAGODA_CHECK_MSG(o.nodes_recovered == (recovers ? 1 : 0),
                     "recovery count mismatch");
    PAGODA_CHECK_MSG(o.shed == 0 && o.availability >= 1.0,
                     "a node crash must not lose admitted work");
    if (!first) json << ",\n";
    first = false;
    json << "    {\"recovers\": " << (recovers ? "true" : "false") << ", ";
    write_outcome_json(json, o);
    json << "}";
  }
  json << "\n  ]\n}\n";

  const double ratio = goodput_noretry_at_max > 0.0
                           ? goodput_retry_at_max / goodput_noretry_at_max
                           : 0.0;
  std::printf("\ngoodput at fault rate %.2f: retry %.1f k/s vs no-retry "
              "%.1f k/s (%.2fx)\n",
              rates[4], goodput_retry_at_max / 1e3,
              goodput_noretry_at_max / 1e3, ratio);
  std::printf("-> %s\n", out_path.c_str());
  PAGODA_CHECK_MSG(ratio >= 2.0,
                   "retries must sustain >= 2x the no-retry goodput at the "
                   "top of the fault sweep");
  return 0;
}
