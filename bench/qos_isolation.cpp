// QoS isolation under overload: mixed interactive + batch traffic on one
// Titan X, swept over every scheduling policy and >= 5 seeds.
//
//   qos_isolation [--tasks=N] [--seeds=N] [--seed=BASE] [--out=BENCH_sched.json]
//                 [--trace-spans=spans.json]
//
// --trace-spans arms a passive obs::RequestTracer on the fifo run of the
// first seed — the run where interactive requests blow their 2 ms SLO —
// and dumps a pagoda-trace-spans-v1 file for `trace_report --explain-slo`.
// Tracing never perturbs the simulation, so the BENCH json is identical
// with or without it.
//
// The setup is a sustained overload: open-loop Poisson arrivals above the
// device's serving rate, 25% small tight-SLO interactive requests
// deterministically interleaved with 75% heavy batch requests. Under fifo
// the interactive tail is set by the whole backlog ahead of it; under
// priority/edf interactive work jumps the admission queue (and the
// scheduler-warp claim order), so its p99 collapses to near its intrinsic
// service time while batch goodput is unchanged — every request still
// completes (queue_limit=0), so batch completions are equal across policies
// by construction, and CHECKed.
//
// CHECK-enforced for every seed: interactive p99 under edf AND priority is
// >= 2x better than under fifo. wfq is reported as data (its weighted
// shares bound batch's penalty instead of strictly preferring interactive).
//
// Emits BENCH_sched.json, byte-identical across reruns with the same flags
// (the ctest/check.sh determinism gate diffs two runs).
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/open_loop.h"
#include "common/check.h"
#include "common/stats.h"
#include "harness/flags.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sched/policy.h"

using namespace pagoda;

namespace {

constexpr std::array<sched::PolicyKind, 4> kPolicies = {
    sched::PolicyKind::kFifo, sched::PolicyKind::kPriority,
    sched::PolicyKind::kEdf, sched::PolicyKind::kWfq};

struct Scenario {
  sched::PolicyKind policy = sched::PolicyKind::kFifo;
  int requests = 0;
  std::uint64_t seed = 1;
  double rate_per_sec = 0.0;
  cluster::RequestProfile interactive;
  cluster::RequestProfile batch;
};

struct Outcome {
  double elapsed_ms = 0.0;
  double throughput_rps = 0.0;
  double inter_p50_us = 0.0;
  double inter_p99_us = 0.0;
  double batch_p50_us = 0.0;
  double batch_p99_us = 0.0;
  std::int64_t inter_completed = 0;
  std::int64_t batch_completed = 0;
};

cluster::NodeConfig node_config(const Scenario& sc) {
  cluster::NodeConfig nc;
  // A small TaskTable keeps the in-flight set shallow, so the backlog — and
  // the ordering decision — lives in the dispatcher's admission queue rather
  // than inside the device.
  nc.pagoda.rows_per_column = 4;
  // One policy end-to-end: the scheduler warps claim TaskTable entries in
  // the same order the dispatcher admits.
  nc.pagoda.sched.kind = sc.policy;
  return nc;
}

/// Deterministic class interleave: every 4th request is interactive. The
/// mix is a pure function of the index, so every policy sees the identical
/// arrival trace for a given seed.
bool is_interactive(int index) { return index % 4 == 0; }

Outcome run_scenario(const Scenario& sc,
                     obs::RequestTracer* tracer = nullptr) {
  cluster::DispatcherConfig dc;
  dc.sched.kind = sc.policy;
  dc.qos = true;  // per-class ledgers under fifo too
  cluster::OpenLoopRunner runner({node_config(sc)},
                                 cluster::make_policy("round-robin"), dc);
  cluster::Dispatcher& disp = runner.dispatcher();
  if (tracer != nullptr) disp.set_tracer(tracer);
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Poisson;
  src.arrival.rate_per_sec = sc.rate_per_sec;
  src.seed = sc.seed;
  src.requests = sc.requests;
  src.make = [&sc](int i) {
    return cluster::synth_request(
        is_interactive(i) ? sc.interactive : sc.batch, sc.seed, i);
  };
  runner.run(std::move(src), sim::seconds(600.0));
  PAGODA_CHECK_MSG(runner.done(), "qos scenario did not drain");

  Outcome out;
  out.elapsed_ms = sim::to_milliseconds(runner.end_time());
  const double elapsed_s = sim::to_seconds(runner.end_time());
  if (elapsed_s > 0.0) {
    out.throughput_rps =
        static_cast<double>(disp.stats().completed) / elapsed_s;
  }
  const std::span<const double> inter =
      disp.class_latencies_us(sched::Class::kInteractive);
  const std::span<const double> batch =
      disp.class_latencies_us(sched::Class::kBatch);
  PAGODA_CHECK_MSG(!inter.empty() && !batch.empty(),
                   "both classes must complete work");
  out.inter_p50_us = percentile(inter, 50);
  out.inter_p99_us = percentile(inter, 99);
  out.batch_p50_us = percentile(batch, 50);
  out.batch_p99_us = percentile(batch, 99);

  // Exactly-once per class, no losses: queue_limit=0 means nothing is
  // dropped, shed or evicted, so "equal batch goodput" holds by
  // construction — and is enforced here and across policies in main().
  for (const sched::Class c :
       {sched::Class::kInteractive, sched::Class::kStandard,
        sched::Class::kBatch}) {
    const cluster::Dispatcher::ClassStats& cs = disp.class_stats(c);
    PAGODA_CHECK_MSG(cs.offered == cs.admitted && cs.dropped == 0,
                     "overload run must admit everything");
    PAGODA_CHECK_MSG(cs.slot_releases == cs.completed + cs.shed &&
                         cs.slot_releases == cs.admitted,
                     "per-class ledger must balance");
    PAGODA_CHECK_MSG(cs.shed == 0 && cs.evicted == 0,
                     "no losses in the unbounded-queue sweep");
  }
  out.inter_completed =
      disp.class_stats(sched::Class::kInteractive).completed;
  out.batch_completed = disp.class_stats(sched::Class::kBatch).completed;
  return out;
}

void write_outcome_json(std::ostream& os, const Outcome& o) {
  using obs::format_metric_double;
  os << "\"inter_p50_us\": " << format_metric_double(o.inter_p50_us)
     << ", \"inter_p99_us\": " << format_metric_double(o.inter_p99_us)
     << ", \"batch_p50_us\": " << format_metric_double(o.batch_p50_us)
     << ", \"batch_p99_us\": " << format_metric_double(o.batch_p99_us)
     << ", \"throughput_rps\": " << format_metric_double(o.throughput_rps)
     << ", \"inter_completed\": " << o.inter_completed
     << ", \"batch_completed\": " << o.batch_completed
     << ", \"elapsed_ms\": " << format_metric_double(o.elapsed_ms);
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 2048;
  int num_seeds = 5;
  std::uint64_t base_seed = 0x9A60DA;
  double rate = 300.0e3;
  std::string out_path = "BENCH_sched.json";
  std::string spans_path;
  using harness::Option;
  const harness::Options opts(
      argc, argv,
      {Option("tasks", &requests, "requests per run; its gates need the floor")
           .range(317),
       Option("seeds", &num_seeds, "seeds per policy").range(1),
       Option("seed", &base_seed, "first seed"),
       Option("rate", &rate, "offered load, requests/s").range(1e3),
       Option("out", &out_path, "JSON artifact path"),
       Option("trace-spans", &spans_path,
              "span dump of the first seed's fifo run")});
  const bool want_spans = opts.given("trace-spans");

  // Fail fast on unwritable output paths, before any simulation runs.
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: --out: cannot open output path '%s'\n",
                 out_path.c_str());
    return 2;
  }
  std::ofstream spans_out;
  if (want_spans) {
    spans_out.open(spans_path);
    if (!spans_out) {
      std::fprintf(stderr,
                   "error: --trace-spans: cannot open output path '%s'\n",
                   spans_path.c_str());
      return 2;
    }
  }

  // Interactive: small, short, 2 ms SLO. Batch: wide and ~25x the service
  // demand, no deadline. The Poisson rate sits well above the mixed-traffic
  // serving rate of one Titan X, so a backlog forms and ordering decides
  // who waits.
  Scenario proto;
  proto.requests = requests;
  proto.rate_per_sec = rate;
  proto.interactive.threads_per_task = 64;
  proto.interactive.compute_cycles = 6000.0;
  proto.interactive.stall_cycles = 12000.0;
  proto.interactive.h2d_bytes = 2048;
  proto.interactive.d2h_bytes = 512;
  proto.interactive.slo = sim::milliseconds(2.0);
  proto.interactive.cls = sched::Class::kInteractive;
  proto.batch.threads_per_task = 256;
  proto.batch.compute_cycles = 120000.0;
  proto.batch.stall_cycles = 240000.0;
  proto.batch.slo = 0;  // no deadline: ranks last under edf
  proto.batch.cls = sched::Class::kBatch;

  std::printf("=== qos isolation: %d requests/run, %d seeds, base %llu ===\n",
              requests, num_seeds,
              static_cast<unsigned long long>(base_seed));
  std::printf("%-6s %-10s %12s %12s %12s %12s\n", "seed", "policy",
              "int p99", "int p50", "batch p99", "batch done");

  json << "{\n  \"bench\": \"qos_isolation\", \"requests\": " << requests
       << ", \"seeds\": " << num_seeds << ", \"base_seed\": " << base_seed
       << ",\n  \"runs\": [\n";

  bool first = true;
  double worst_edf_gain = 0.0;
  double worst_prio_gain = 0.0;
  bool have_worst = false;
  obs::RequestTracer tracer;
  for (int s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s);
    std::array<Outcome, kPolicies.size()> outs;
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      Scenario sc = proto;
      sc.policy = kPolicies[p];
      sc.seed = seed;
      // Trace the fifo run of the first seed: the one with SLO casualties.
      const bool traced = want_spans && s == 0 &&
                          kPolicies[p] == sched::PolicyKind::kFifo;
      outs[p] = run_scenario(sc, traced ? &tracer : nullptr);
      std::printf("%-6llu %-10s %10.1fus %10.1fus %10.1fus %12lld\n",
                  static_cast<unsigned long long>(seed),
                  std::string(sched::to_string(sc.policy)).c_str(),
                  outs[p].inter_p99_us, outs[p].inter_p50_us,
                  outs[p].batch_p99_us,
                  static_cast<long long>(outs[p].batch_completed));
      if (!first) json << ",\n";
      first = false;
      json << "    {\"seed\": " << seed << ", \"policy\": \""
           << sched::to_string(sc.policy) << "\", ";
      write_outcome_json(json, outs[p]);
      json << "}";
    }
    const Outcome& fifo = outs[0];
    const Outcome& prio = outs[1];
    const Outcome& edf = outs[2];
    // Equal batch goodput across policies: identical arrival trace, nothing
    // lost, so completions must match exactly.
    for (const Outcome& o : outs) {
      PAGODA_CHECK_MSG(o.batch_completed == fifo.batch_completed &&
                           o.inter_completed == fifo.inter_completed,
                       "per-class goodput must be policy-independent");
    }
    const double edf_gain = fifo.inter_p99_us / edf.inter_p99_us;
    const double prio_gain = fifo.inter_p99_us / prio.inter_p99_us;
    if (!have_worst || edf_gain < worst_edf_gain) worst_edf_gain = edf_gain;
    if (!have_worst || prio_gain < worst_prio_gain) {
      worst_prio_gain = prio_gain;
    }
    have_worst = true;
    PAGODA_CHECK_MSG(edf_gain >= 2.0,
                     "edf must beat fifo on interactive p99 by >= 2x");
    PAGODA_CHECK_MSG(prio_gain >= 2.0,
                     "priority must beat fifo on interactive p99 by >= 2x");
  }
  json << "\n  ],\n  \"worst_gain\": {\"edf\": "
       << obs::format_metric_double(worst_edf_gain)
       << ", \"priority\": " << obs::format_metric_double(worst_prio_gain)
       << "}\n}\n";

  std::printf("\nworst-seed interactive p99 gain vs fifo: edf %.2fx, "
              "priority %.2fx (floor 2x)\n",
              worst_edf_gain, worst_prio_gain);
  std::printf("-> %s\n", out_path.c_str());
  if (want_spans) {
    tracer.write_json(spans_out);
    std::printf("spans      %zu requests (fifo, seed %llu) -> %s\n",
                tracer.records().size(),
                static_cast<unsigned long long>(base_seed),
                spans_path.c_str());
  }
  return 0;
}
