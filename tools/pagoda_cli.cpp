// pagoda_cli: run any (workload x runtime) experiment from the command line.
//
//   pagoda_cli --workload=MM --runtime=Pagoda --tasks=4096 --task-threads=128
//   pagoda_cli --workload=3DES --runtime=HyperQ --no-copies
//   pagoda_cli --workload=MM --gpus=64 --arrival=poisson:2000000
//   pagoda_cli --workload=MB --runtime=Pagoda --compute     # verify outputs
//   pagoda_cli --workload=MM --runtime=Pagoda --trace=out.csv
//   pagoda_cli --workload=MM --runtime=GeMTC --metrics
//   pagoda_cli --workload=MM --runtime=Pagoda --metrics=metrics.json
//   pagoda_cli --workload=MM --runtime=HyperQ --profile=profile.json
//   pagoda_cli --workload=MM --runtime=all               # comparison table
//   pagoda_cli --workload=MM --runtime=HyperQ,GeMTC,Pagoda
//   pagoda_cli --help
//
// Prints end-to-end time, occupancy, wire utilization and per-task latency
// percentiles. `--metrics` adds the full observability snapshot (text report
// to stdout, or the stable JSON form when given a path); `--profile` writes
// a Chrome/Perfetto trace-event file with task spans, PCIe transfers, kernel
// grids and counter tracks; `--trace` dumps the raw event trace for ANY
// runtime — the Pagoda protocol trace for Pagoda runtimes, the generic
// timeline for the rest.
//
// Each option is one row of the table in main(): its name, the run-record
// field it fills (whose initial value is the default), its range or
// choices, where it applies and its help. The whole command line
// is checked against the table before anything runs, and --help prints it
// (harness/flags.h). Spec strings (--faults, --power, --governor,
// --autoscale, --resize, --arrival, --gpus, --weights, --runtime) go to
// their typed parsers, whose errors print through Options::reject; the
// cross-flag rules are cluster::Dispatcher::validate()'s. Bad input ends in
// exit 1 (2 for an unparsable number or a value outside an option's
// choices), never in a CHECK abort.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "baselines/factories.h"
#include "cluster/dispatcher.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "common/alloc_tuning.h"
#include "common/stats.h"
#include "fault/plan.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "migrate/autoscaler.h"
#include "obs/collector.h"
#include "pagoda/master_kernel.h"
#include "pagoda/trace.h"
#include "power/governor.h"
#include "power/power_spec.h"
#include "sched/policy.h"

using namespace pagoda;
using harness::Option;

namespace {

// Where an option applies; a given option whose rule fails is a usage error.
constexpr std::string_view kCluster = "--runtime=Cluster";
constexpr std::string_view kVirtual =
    "a single Pagoda, PagodaBatching or Cluster runtime";
constexpr std::string_view kSingle = "a single --runtime";
constexpr std::string_view kWfq = "--sched-policy=wfq";
constexpr std::string_view kPower = "--power=SPEC";

constexpr std::string_view kSchedPolicies[] = {"fifo", "priority", "edf",
                                               "wfq"};
constexpr std::string_view kClasses[] = {"interactive", "standard", "batch"};
constexpr std::string_view kTraceFormats[] = {"csv", "chrome"};

/// --list-policies: every pluggable decision maker — placement policies,
/// QoS scheduling policies and power governors — with one-line descriptions.
/// Strict-validation errors for the corresponding flags point here.
int list_policies() {
  std::printf("placement policies (--policy):\n");
  for (const std::string_view p : cluster::all_policy_names()) {
    std::printf("  %-18s %s\n", std::string(p).c_str(),
                std::string(cluster::policy_description(p)).c_str());
  }
  std::printf("\nscheduling policies (--sched-policy):\n");
  std::printf("  %-18s %s\n", "fifo",
              "arrival order; reproduces the legacy semaphore byte-for-byte");
  std::printf("  %-18s %s\n", "priority",
              "strict class priority (interactive > standard > batch)");
  std::printf("  %-18s %s\n", "edf",
              "earliest absolute deadline first; FIFO for deadline-free work");
  std::printf("  %-18s %s\n", "wfq",
              "weighted fair queueing over classes (--weights=A,B,C)");
  std::printf("\npower governors (--governor, needs --power):\n");
  for (const std::string_view g : power::all_governor_names()) {
    std::printf("  %-18s %s\n", std::string(g).c_str(),
                std::string(power::governor_description(
                                *power::parse_governor(g)))
                    .c_str());
  }
  std::printf("\npower spec (--power): %s\n",
              power::PowerSpec::grammar());
  std::printf("\nelastic fleet (--migrate, --autoscale, --resize, needs "
              "--power):\n");
  std::printf("  %-18s %s\n", "--migrate",
              "drains checkpoint in-flight attempts and restore them "
              "on another node (migrate, not shed)");
  std::printf("  %-18s %s\n", "--autoscale=SPEC",
              "target-utilization resizer: UTIL[:LOW:HIGH[:MIN]] with "
              "hysteresis watermarks; sleeps the tail at troughs, wakes "
              "it at peaks");
  std::printf("  %-18s %s\n", "--resize=PLAN",
              "explicit rolling resize AT_US:NODES[,...]; each shrink "
              "drains, migrates, then S-sleeps one node at a time");
  return 0;
}

/// The widest synchronizing threadblock (threads) the workload generates
/// under `cfg`, from a small Model-mode probe; 0 when no block syncs.
int widest_sync_block(const std::string& name, workloads::WorkloadConfig cfg) {
  std::unique_ptr<workloads::Workload> w = workloads::make_workload(name);
  cfg.num_tasks = std::min(cfg.num_tasks, 64);
  cfg.mode = gpu::ExecMode::Model;
  w->generate(cfg);
  int widest = 0;
  for (const workloads::TaskSpec& t : w->tasks()) {
    if (t.params.needs_sync) {
      widest = std::max(widest, t.params.threads_per_block);
    }
  }
  return widest;
}

/// --list-workloads: one row per benchmark with its Table-3 shape — default
/// task dimensions, the resource footprint the virtual plane reasons about
/// (shared-memory bytes per block, registers per thread, blocks per
/// dependency wave), and wave depth (generated at a small task count; the
/// traits don't depend on it).
int list_workloads() {
  std::printf("%-6s %12s %9s %10s %9s %6s  %s\n", "name", "threads/task",
              "regs/thr", "shmem/blk", "blk/wave", "waves", "traits");
  for (const std::string_view name : workloads::all_workload_names()) {
    std::unique_ptr<workloads::Workload> w = workloads::make_workload(name);
    workloads::WorkloadConfig cfg;
    cfg.num_tasks = 16;
    w->generate(cfg);
    const workloads::WorkloadTraits tr = w->traits();
    const workloads::TaskSpec& t = w->tasks().front();
    const int waves = w->max_wave() + 1;
    std::int64_t total_blocks = 0;
    for (const workloads::TaskSpec& s : w->tasks()) {
      total_blocks += s.params.num_blocks;
    }
    std::string traits;
    if (tr.irregular) traits += "irregular ";
    if (tr.may_use_shared) traits += "shared-mem ";
    if (tr.needs_sync) traits += "block-sync ";
    std::printf("%-6s %12d %9d %9dB %9lld %6d  %s\n", std::string(name).c_str(),
                t.params.threads_per_block * t.params.num_blocks,
                t.regs_per_thread, t.params.shared_mem_bytes,
                static_cast<long long>(total_blocks / waves), waves,
                traits.empty() ? "-" : traits.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::tune_allocator_for_batch_runs();

  // The run record. Each option writes one field; its value here is the
  // option's default.
  baselines::RunConfig rcfg = harness::paper_platform();
  cluster::DispatcherConfig& dc = rcfg.cluster.dispatcher;
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 4096;
  bool list_wl = false, list_pol = false;
  bool no_shmem = false, no_copies = false, compute = false;
  std::string wl = "MM", runtime = "Pagoda", gpus = "1", arrival = "closed";
  std::string sched_policy = "fifo", task_class = "standard", weights;
  std::string faults, power, governor = "static", autoscale, resize;
  std::string metrics_path, profile_path = "profile.json", trace_path;
  std::string trace_format = "csv", spans_path;
  int period_us = 20;
  double slo_us = 0.0, timeout_us = 0.0;
  // The runtimes CHECK the task shape and TaskTable geometry, so those
  // bounds come from the platform. No block is wider than the device
  // allows, so the --blocks bound keeps a task's thread and warp counts
  // (ints) in range; 1024 rows keep 48 x rows far from int overflow.
  const int max_tpb = rcfg.spec.max_threads_per_block;
  const std::string workloads_help =
      harness::join(workloads::all_workload_names());
  const std::string runtimes_help =
      harness::join(baselines::all_runtime_names()) +
      ", a comma list of them for a comparison table, or all; Cluster with "
      "--gpus";
  std::vector<Option> table = {
      Option("list-workloads", &list_wl, "Table 3 traits per workload"),
      Option("list-policies", &list_pol, "policy and governor catalog"),
      Option("workload", &wl, workloads_help),
      Option("runtime", &runtime, runtimes_help),
      Option("tasks", &wcfg.num_tasks, "tasks to run").range(1),
      Option("task-threads", &wcfg.threads_per_task, "threads per task")
          .range(1, max_tpb),
      Option("blocks", &wcfg.blocks_per_task, "threadblocks per task")
          .range(1, std::numeric_limits<int>::max() / max_tpb),
      Option("seed", &wcfg.seed, "workload and cluster seed"),
      Option("input", &wcfg.input_scale, "input size; 0: default").range(0),
      Option("irregular", &wcfg.irregular_sizes, "irregular input sizes"),
      Option("dynamic-threads", &wcfg.dynamic_threads,
             "threads per task from its input size"),
      Option("no-shmem", &no_shmem, "kernels without shared memory"),
      Option("no-copies", &no_copies, "no input/output data copies"),
      Option("compute", &compute, "run kernels and verify their outputs"),
      Option("batch", &rcfg.batch_size, "batch size; 0: auto").range(0),
      Option("rows", &rcfg.pagoda.rows_per_column, "TaskTable rows per MTB")
          .range(1, 1024),
      Option("two-copy", &rcfg.pagoda.two_copy_spawn,
             "naive two-copy spawn protocol"),
      Option("oversub", &rcfg.pagoda.oversub, "virtual resource factor")
          .only(kVirtual),
      Option("sched-policy", &sched_policy, "QoS order at every layer")
          .one_of(kSchedPolicies).only(kVirtual),
      Option("class", &task_class, "QoS class of the tasks")
          .one_of(kClasses).only(kVirtual),
      Option("weights", &weights, "positive weights A,B,C of interactive,"
             "standard,batch").only(kWfq),
      Option("metrics", &metrics_path, "report; JSON when given a path")
          .bare().only(kSingle),
      Option("metrics-period", &period_us, "sample period, us").range(1),
      Option("profile", &profile_path, "Chrome trace-event file")
          .bare().only(kSingle),
      Option("trace", &trace_path, "raw event trace file").only(kSingle),
      Option("trace-format", &trace_format, "--trace format")
          .one_of(kTraceFormats),
      Option("governor", &governor, "static, dvfs or powercap; see "
             "--list-policies").only(kPower)};
  // The Cluster runtime's options.
  for (const Option& o : {
           Option("gpus", &gpus, "N <= 256, or a comma list of titanx/k40"),
           Option("policy", &rcfg.cluster.policy, "placement policy")
               .one_of(cluster::all_policy_names()),
           Option("arrival", &arrival, cluster::ArrivalConfig::choices()),
           Option("slo-us", &slo_us, "request deadline, us")
               .above(0.0, sim::kMaxSpecMicroseconds),
           Option("queue-limit", &dc.queue_limit, "admission queue bound; "
                  "0: unbounded").range(0),
           Option("faults", &faults,
                  "comma list of task:P xfer:P wedge:P seed:N "
                  "crash:NODE:T_US[:RECOVER_US] "
                  "degrade:T_US:DUR_US:FACTOR[:NODE]"),
           Option("retry-budget", &dc.retry.budget, "retries per request")
               .range(0),
           Option("task-timeout-us", &timeout_us, "deadline, us; 0: none")
               .range(0.0, sim::kMaxSpecMicroseconds),
           Option("trace-spans", &spans_path, "per-request span dump file"),
           Option("power", &power, power::PowerSpec::grammar()),
           Option("power-cap-watts", &dc.power.cap_watts, "fleet cap, W")
               .above(0.0),
           Option("migrate", &dc.migration.enabled,
                  "drains migrate in-flight work instead of shedding it"),
           Option("autoscale", &autoscale, "UTIL[:LOW:HIGH[:MIN]]"),
           Option("resize", &resize, "AT_US:NODES[,...]")}) {
    table.push_back(Option(o).only(kCluster));
  }
  const harness::Options opts(argc, argv, std::move(table));
  if (list_wl) return list_workloads();
  if (list_pol) return list_policies();

  const auto wl_names = workloads::all_workload_names();
  if (std::find(wl_names.begin(), wl_names.end(), wl) == wl_names.end()) {
    std::fprintf(stderr, "error: unknown --workload '%s'; valid workloads:",
                 wl.c_str());
    for (const std::string_view name : wl_names) {
      std::fprintf(stderr, " %s", std::string(name).c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  // --gpus selects the Cluster runtime; --runtime=Cluster works too (with
  // --gpus defaulting to a single Titan X).
  if (!opts.given("runtime") && opts.given("gpus")) runtime = "Cluster";
  const std::vector<std::string> rts = baselines::parse_runtimes(runtime);
  if (rts.empty()) opts.reject("runtime", "unknown runtime");
  const bool multi = rts.size() > 1;
  const std::string rt = rts[0];
  const bool want_cluster = !multi && rt == "Cluster";
  const bool pagoda_rt = rt == "Pagoda" || rt == "PagodaBatching";
  rcfg.pagoda.sched.kind = *sched::parse_policy_kind(sched_policy);
  opts.require(kCluster, want_cluster);
  opts.require(kVirtual, !multi && (pagoda_rt || want_cluster));
  opts.require(kSingle, !multi);
  opts.require(kWfq, rcfg.pagoda.sched.kind == sched::PolicyKind::kWfq);
  opts.require(kPower, opts.given("power"));

  wcfg.use_shared_memory = !no_shmem;
  rcfg.mode = compute ? gpu::ExecMode::Compute : gpu::ExecMode::Model;
  rcfg.include_data_copies = !no_copies;
  rcfg.collect_latencies = true;

  // Virtual resource plane (DESIGN.md §16): ONE factor drives shared-memory
  // and register virtualization inside every MasterKernel plus virtual
  // TaskTable-slot admission in the cluster dispatcher. The virtual
  // TaskTable (oversub x MTB columns x rows) is counted in int slots; every
  // --gpus device has at most the paper platform's SMM count, so its table
  // bounds the factor for every node.
  const double oversub = rcfg.pagoda.oversub;
  const int rows = rcfg.pagoda.rows_per_column;
  const double max_oversub =
      std::floor(std::numeric_limits<int>::max() /
                 (static_cast<double>(rcfg.spec.num_smms) *
                  runtime::MasterKernel::kMtbsPerSmm * rows));
  if (oversub < 1.0 || oversub > max_oversub) {
    std::fprintf(stderr,
                 "error: --oversub must be a finite factor >= 1.0 (1.0 = "
                 "physical reservations) and, with --rows=%d, <= %.0f\n",
                 rows, max_oversub);
    return 1;
  }

  rcfg.task_class = *sched::parse_class(task_class);
  if (opts.given("weights")) {
    const std::optional<std::array<double, sched::kNumClasses>> w =
        sched::parse_weights(weights);
    if (!w.has_value()) opts.reject("weights", "not three positive numbers");
    rcfg.pagoda.sched.weights = *w;
  }
  rcfg.cluster.default_class = rcfg.task_class;

  // Cluster specs are parsed here, once, into typed values; the cross-plane
  // rules are Dispatcher::validate()'s.
  if (want_cluster) {
    // Any QoS option arms sched.* export, even under fifo.
    dc.qos = opts.given("sched-policy") || opts.given("class") ||
             opts.given("weights");
    rcfg.cluster.specs = baselines::parse_fleet(gpus);
    if (rcfg.cluster.specs.empty()) opts.reject("gpus", "not a fleet");
    const std::optional<cluster::ArrivalConfig> acfg =
        cluster::ArrivalConfig::parse(arrival);
    if (!acfg.has_value()) opts.reject("arrival", "not an arrival process");
    rcfg.cluster.arrival = *acfg;
    // A valid rate can still be too slow for the run: offering every task
    // must fit the time cap on average, or the run cannot complete.
    const double span_s = acfg->mean_span_s(wcfg.num_tasks);
    if (span_s > sim::to_seconds(rcfg.time_cap)) {
      std::fprintf(stderr,
                   "error: --arrival '%s' spreads %d tasks over %.4g s on "
                   "average, past the run's %.0f s time cap; raise the rate "
                   "or lower --tasks\n",
                   arrival.c_str(), wcfg.num_tasks, span_s,
                   sim::to_seconds(rcfg.time_cap));
      return 1;
    }
    dc.default_slo = sim::microseconds(slo_us);
    dc.task_timeout = sim::microseconds(timeout_us);

    std::string err;
    std::optional<fault::FaultPlan> plan =
        fault::FaultPlan::parse(faults, &err);
    if (!plan.has_value()) opts.reject("faults", err);
    dc.faults = std::move(*plan);
    // Power plane: --power arms the model; --governor refines it.
    if (opts.given("power")) {
      dc.power.spec = power::PowerSpec::parse(power, &err);
      if (!dc.power.spec.has_value()) opts.reject("power", err);
    }
    const std::optional<power::GovernorKind> gov =
        power::parse_governor(governor);
    if (!gov.has_value()) opts.reject("governor", "unknown governor");
    dc.power.governor = *gov;
    // Elastic plane: --migrate arms checkpoint/restore drains; --autoscale
    // and --resize add a utilization resizer and an explicit plan.
    if (opts.given("autoscale")) {
      std::optional<migrate::AutoscaleConfig> as =
          migrate::parse_autoscale_spec(autoscale, &err);
      if (!as.has_value()) opts.reject("autoscale", err);
      dc.autoscale = std::move(*as);
    }
    if (opts.given("resize")) {
      std::optional<std::vector<migrate::ResizeStep>> steps =
          migrate::parse_resize_spec(resize, &err);
      if (!steps.has_value()) opts.reject("resize", err);
      dc.autoscale.plan = std::move(*steps);
    }

    const std::string invalid = cluster::Dispatcher::validate(
        baselines::cluster_dispatcher_config(rcfg),
        static_cast<int>(rcfg.cluster.specs.size()), rcfg.cluster.policy);
    if (!invalid.empty()) {
      std::fprintf(stderr, "error: %s\n", invalid.c_str());
      return 1;
    }
  }

  // Pagoda keeps a synchronizing threadblock's warps in one MTB, so its
  // 31 executor warps bound the block (Runtime::validate CHECKs each spawn).
  const bool any_pagoda =
      std::any_of(rts.begin(), rts.end(), [](const std::string& r) {
        return r == "Pagoda" || r == "PagodaBatching" || r == "Cluster";
      });
  if (any_pagoda && widest_sync_block(wl, wcfg) >
                        runtime::MasterKernel::kExecutorWarps * 32) {
    std::fprintf(stderr,
                 "error: --task-threads=%d is too wide for %s under Pagoda: "
                 "a synchronizing threadblock needs all its warps resident "
                 "in one MTB (max 31 warps = 992 threads)\n",
                 wcfg.threads_per_task, wl.c_str());
    return 1;
  }

  if (!multi && !harness::runtime_supports(wl, rt, wcfg)) {
    std::fprintf(stderr, "error: %s cannot run %s as configured\n",
                 rt.c_str(), wl.c_str());
    return 1;
  }

  const bool want_metrics = opts.given("metrics");
  const bool want_profile = opts.given("profile");
  const bool want_trace = opts.given("trace");
  const bool want_spans = opts.given("trace-spans");
  const char* mode = compute ? "compute (verified)" : "model";
  rcfg.cluster.seed = wcfg.seed;

  if (multi) {
    // One shared config; every scheme runs under the same engine Session
    // parameters. Cluster (if listed) uses its defaults: one device of the
    // configured spec.
    std::printf("workload   %s  (%d tasks, %d threads/task%s%s)\n", wl.c_str(),
                wcfg.num_tasks, wcfg.threads_per_task,
                wcfg.irregular_sizes ? ", irregular sizes" : "",
                rcfg.include_data_copies ? "" : ", no data copies");
    std::printf("mode       %s\n\n", mode);
    harness::Table table({"runtime", "time", "speedup", "occupancy",
                          "p50 latency", "p99 latency"});
    double base_time = 0.0;  // first supported runtime anchors the speedups
    std::string base_name;
    for (const std::string& r : rts) {
      if (!harness::runtime_supports(wl, r, wcfg)) {
        table.add_row({r, "n/a", "n/a", "n/a", "n/a", "n/a"});
        continue;
      }
      const harness::Measurement m = harness::run_experiment(wl, r, wcfg, rcfg);
      const auto t = static_cast<double>(m.result.elapsed);
      if (base_time == 0.0) {
        base_time = t;
        base_name = r;
      }
      std::string p50 = "-";
      std::string p99 = "-";
      if (!m.result.task_latency_us.empty()) {
        p50 = harness::fmt_us(percentile(m.result.task_latency_us, 50));
        p99 = harness::fmt_us(percentile(m.result.task_latency_us, 99));
      }
      table.add_row({r, harness::fmt_ms(m.result.elapsed),
                     harness::fmt_x(base_time / t),
                     harness::fmt_pct(m.result.occupancy), p50, p99});
    }
    table.print(std::cout);
    if (!base_name.empty()) {
      std::printf("\nspeedups are relative to %s\n", base_name.c_str());
    }
    return 0;
  }

  // Fail fast on unwritable output paths BEFORE the run starts: a bad path
  // must cost an exit 2 up front, not a discarded multi-second simulation.
  const auto open_output = [](bool wanted, const std::string& path,
                              const char* flag) {
    std::ofstream out;
    if (wanted && !(out.open(path), out)) {
      std::fprintf(stderr, "error: %s: cannot open output path '%s'\n", flag,
                   path.c_str());
      std::exit(2);
    }
    return out;
  };
  std::ofstream metrics_out =
      open_output(want_metrics && !metrics_path.empty(), metrics_path,
                  "--metrics");
  std::ofstream profile_out = open_output(want_profile, profile_path,
                                          "--profile");
  std::ofstream trace_out = open_output(want_trace, trace_path, "--trace");
  std::ofstream spans_out = open_output(want_spans, spans_path,
                                        "--trace-spans");

  obs::CollectorConfig ccfg;
  ccfg.sample_period = sim::microseconds(static_cast<double>(period_us));
  ccfg.timeline = want_profile || (want_trace && !pagoda_rt);
  ccfg.trace = want_trace && pagoda_rt;
  ccfg.spans = want_spans;
  obs::Collector collector(ccfg);
  if (want_metrics || want_profile || want_trace || want_spans) {
    rcfg.collector = &collector;
  }

  const harness::Measurement m = harness::run_experiment(wl, rt, wcfg, rcfg);

  std::printf("workload   %s  (%d tasks, %d threads/task%s%s)\n", wl.c_str(),
              wcfg.num_tasks, wcfg.threads_per_task,
              wcfg.irregular_sizes ? ", irregular sizes" : "",
              rcfg.include_data_copies ? "" : ", no data copies");
  std::printf("runtime    %s\n", rt.c_str());
  if (want_cluster) {
    const cluster::DispatcherConfig& dc = rcfg.cluster.dispatcher;
    std::printf("cluster    %zu GPU(s), policy %s, arrival %s, sched %s\n",
                rcfg.cluster.specs.size(), rcfg.cluster.policy.c_str(),
                arrival.c_str(),
                std::string(sched::to_string(rcfg.pagoda.sched.kind)).c_str());
    if (dc.power.enabled()) {
      std::printf("power      spec %s, governor %s", power.c_str(),
                  governor.c_str());
      if (dc.power.cap_watts > 0.0) {
        std::printf(", cap %.1f W", dc.power.cap_watts);
      }
      std::printf("\n");
    }
    if (dc.migration.enabled) {
      std::printf("elastic    migrate on");
      if (!autoscale.empty()) std::printf(", autoscale %s", autoscale.c_str());
      if (!resize.empty()) std::printf(", resize %s", resize.c_str());
      std::printf("\n");
    }
  }
  std::printf("mode       %s\n", mode);
  std::printf("time       %.3f ms\n", m.result.elapsed_ms());
  std::printf("occupancy  %.1f%%\n", m.result.occupancy * 100.0);
  std::printf("PCIe wire  H2D %.2f ms busy, D2H %.2f ms busy\n",
              sim::to_milliseconds(m.result.h2d_wire_busy),
              sim::to_milliseconds(m.result.d2h_wire_busy));
  if (!m.result.task_latency_us.empty()) {
    std::printf("latency    mean %.1f us   p50 %.1f us   p99 %.1f us\n",
                arithmetic_mean(m.result.task_latency_us),
                percentile(m.result.task_latency_us, 50),
                percentile(m.result.task_latency_us, 99));
  }

  if (want_metrics) {
    if (metrics_path.empty()) {
      std::printf("\n");
      m.metrics.write_text(std::cout);
    } else {
      m.metrics.write_json(metrics_out);
      std::printf("metrics    -> %s\n", metrics_path.c_str());
    }
  }
  if (want_profile) {
    collector.timeline().write_chrome_trace(profile_out);
    std::printf("profile    %zu spans, %zu counter samples -> %s\n",
                collector.timeline().num_spans(),
                collector.timeline().num_counter_samples(),
                profile_path.c_str());
    if (collector.timeline().dropped_events() > 0) {
      std::printf("profile    WARNING: %lld events dropped at the buffer "
                  "cap\n",
                  static_cast<long long>(
                      collector.timeline().dropped_events()));
    }
  }
  if (want_trace) {
    if (pagoda_rt) {
      if (trace_format == "chrome") {
        collector.trace().write_chrome_trace(trace_out);
      } else {
        collector.trace().write_csv(trace_out);
      }
      std::printf("trace      %zu events -> %s\n",
                  collector.trace().events().size(), trace_path.c_str());
    } else {
      if (trace_format == "chrome") {
        collector.timeline().write_chrome_trace(trace_out);
      } else {
        collector.timeline().write_csv(trace_out);
      }
      std::printf("trace      %zu spans -> %s\n",
                  collector.timeline().num_spans(), trace_path.c_str());
    }
  }
  if (want_spans) {
    const obs::RequestTracer& tracer = collector.request_tracer();
    tracer.write_json(spans_out);
    std::printf("spans      %zu requests, %zu dropped -> %s\n",
                tracer.records().size(), tracer.drops().size(),
                spans_path.c_str());
  }
  return 0;
}
