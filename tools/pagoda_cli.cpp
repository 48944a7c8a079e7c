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
//   pagoda_cli --list
//
// Prints end-to-end time, occupancy, wire utilization and per-task latency
// percentiles. `--metrics` adds the full observability snapshot (text report
// to stdout, or the stable JSON form when given a path); `--profile` writes
// a Chrome/Perfetto trace-event file with task spans, PCIe transfers, kernel
// grids and counter tracks; `--trace` dumps the raw event trace for ANY
// runtime — the Pagoda protocol trace for Pagoda runtimes, the generic
// timeline for the rest.
//
// This is the only place that parses spec strings: --faults, --power,
// --governor, --autoscale, --resize and --arrival become the typed
// baselines::ClusterOptions (an embedded cluster::DispatcherConfig), and the
// cross-flag rules are cluster::Dispatcher::validate()'s single list, printed
// here as a usage error. Int flags are range-checked (Flags::get_int_in)
// before they narrow. Bad input ends in exit 1 (2 for an unparsable
// number), never in a CHECK abort. The Cluster runtime drives the fleet
// through cluster::OpenLoopRunner, the run loop every cluster caller shares.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
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
using harness::Flags;

namespace {

int list_options() {
  std::printf("workloads: ");
  for (const auto wl : workloads::all_workload_names()) {
    std::printf("%s ", std::string(wl).c_str());
  }
  std::printf("\nruntimes:  ");
  for (const std::string_view rt : baselines::all_runtime_names()) {
    std::printf("%s ", std::string(rt).c_str());
  }
  std::printf("(or a comma list, or \"all\" for a comparison table)\n");
  std::printf(
      "flags:     --tasks=N --task-threads=N --blocks=N --seed=N --input=N\n"
      "           --irregular --dynamic-threads --no-shmem --no-copies\n"
      "           --compute --batch=N --rows=N --two-copy\n"
      "           --metrics[=out.json] --metrics-period=US\n"
      "           --profile[=out.json] --trace=out.csv "
      "--trace-format=csv|chrome\n"
      "           --list-workloads   (Table 3 traits per workload)\n"
      "vres:      --oversub=F  (virtual resource plane, F >= 1.0;\n"
      "            1.0 = physical reservations, byte-identical baseline)\n"
      "qos:       --sched-policy=fifo|priority|edf|wfq\n"
      "           --class=interactive|standard|batch --weights=A,B,C (wfq)\n"
      "cluster:   --gpus=N | --gpus=titanx,k40,...   (selects the Cluster "
      "runtime)\n"
      "           --policy=NAME --arrival=SPEC --slo-us=X --queue-limit=N\n"
      "           --faults=SPEC --retry-budget=N --task-timeout-us=X\n"
      "           --trace-spans=out.json   (per-request causal span dump;\n"
      "            analyze with tools/trace_report)\n"
      "power:     --power=SPEC --governor=NAME --power-cap-watts=X\n"
      "           --list-policies   (placement/sched/governor catalog)\n"
      "elastic:   --migrate   (checkpoint/restore drains instead of "
      "shedding)\n"
      "           --autoscale=UTIL[:LOW:HIGH[:MIN]] (needs --migrate "
      "--power)\n"
      "           --resize=AT_US:NODES[,...]        (rolling-resize plan)\n"
      "faults:    comma list of task:P | xfer:P | wedge:P |\n"
      "           crash:NODE:T_US[:RECOVER_US] |\n"
      "           degrade:T_US:DUR_US:FACTOR[:NODE] | seed:N\n");
  std::printf("policies:  ");
  for (const std::string_view p : cluster::all_policy_names()) {
    std::printf("%s ", std::string(p).c_str());
  }
  std::printf("\narrivals:  %s\n",
              std::string(cluster::ArrivalConfig::choices()).c_str());
  return 0;
}

const char* policy_desc(std::string_view name) {
  if (name == "round-robin") {
    return "rotate over nodes, blind to load (the baseline)";
  }
  if (name == "least-outstanding") {
    return "fewest placed-but-unfinished requests wins";
  }
  if (name == "least-loaded") {
    return "executor occupancy + outstanding work per unit capacity";
  }
  if (name == "data-affinity") {
    return "route keyed requests to the node already holding their data";
  }
  if (name == "power-cap") {
    return "least-loaded, refuses admission while fleet watts >= the cap";
  }
  if (name == "energy-min") {
    return "pack the fewest awake nodes so the governor can sleep the rest";
  }
  if (name == "vres-aware") {
    return "max virtual slot headroom (pairs with --oversub)";
  }
  return "";
}

/// --list-policies: every pluggable decision maker — placement policies,
/// QoS scheduling policies and power governors — with one-line descriptions.
/// Strict-validation errors for the corresponding flags point here.
int list_policies() {
  std::printf("placement policies (--policy):\n");
  for (const std::string_view p : cluster::all_policy_names()) {
    std::printf("  %-18s %s\n", std::string(p).c_str(), policy_desc(p));
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

bool is_runtime_name(const std::string& name) {
  for (const std::string_view rt : baselines::all_runtime_names()) {
    if (name == rt) return true;
  }
  return false;
}

/// --runtime= value: one name, a comma list, or "all". Empty vector (after
/// the printed error) on an unknown name.
std::vector<std::string> parse_runtimes(const std::string& v) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos <= v.size()) {
    const std::size_t comma = v.find(',', pos);
    names.push_back(v.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (names.size() == 1 && names[0] == "all") {
    names.assign(baselines::all_runtime_names().begin(),
                 baselines::all_runtime_names().end());
    return names;
  }
  for (const std::string& n : names) {
    if (!is_runtime_name(n)) {
      std::fprintf(stderr, "error: unknown --runtime '%s'; valid runtimes:",
                   n.c_str());
      for (const std::string_view rt : baselines::all_runtime_names()) {
        std::fprintf(stderr, " %s", std::string(rt).c_str());
      }
      std::fprintf(stderr, " all\n");
      return {};
    }
  }
  return names;
}

/// --gpus= value: a device count ("4") or a comma list of spec names
/// ("titanx,k40"). Empty vector on a malformed value.
std::vector<gpu::GpuSpec> parse_gpus(const std::string& v) {
  std::vector<gpu::GpuSpec> specs;
  if (v.find_first_not_of("0123456789") == std::string::npos && !v.empty()) {
    const int n = std::stoi(v);
    if (n < 1 || n > 256) return {};
    specs.assign(static_cast<std::size_t>(n), gpu::GpuSpec::titan_x());
    return specs;
  }
  std::size_t pos = 0;
  while (pos <= v.size()) {
    const std::size_t comma = v.find(',', pos);
    const std::string name = v.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (name == "titanx" || name == "titan_x") {
      specs.push_back(gpu::GpuSpec::titan_x());
    } else if (name == "k40" || name == "tesla_k40") {
      specs.push_back(gpu::GpuSpec::tesla_k40());
    } else {
      return {};
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return specs;
}

/// --weights= value: three comma-separated positive finite doubles
/// (interactive,standard,batch). nullopt on anything else.
std::optional<std::array<double, sched::kNumClasses>> parse_weights(
    const std::string& v) {
  std::array<double, sched::kNumClasses> w{};
  std::size_t pos = 0;
  for (int i = 0; i < sched::kNumClasses; ++i) {
    const std::size_t comma = v.find(',', pos);
    const bool last = i == sched::kNumClasses - 1;
    if (last != (comma == std::string::npos)) return std::nullopt;
    const std::string part = v.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    errno = 0;
    char* end = nullptr;
    w[static_cast<std::size_t>(i)] = std::strtod(part.c_str(), &end);
    if (errno != 0 || part.empty() || end != part.c_str() + part.size() ||
        !(w[static_cast<std::size_t>(i)] > 0.0) ||
        !std::isfinite(w[static_cast<std::size_t>(i)])) {
      return std::nullopt;
    }
    pos = comma + 1;
  }
  return w;
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
  const Flags flags(argc, argv);
  const std::string bad = flags.unknown(
      {"list", "list-workloads", "list-policies", "help", "workload",
       "runtime", "tasks", "task-threads", "seed", "input",
       "blocks", "irregular", "dynamic-threads", "no-shmem", "compute",
       "no-copies", "batch", "rows", "two-copy", "trace", "trace-format",
       "metrics", "metrics-period", "profile", "gpus", "policy", "arrival",
       "slo-us", "queue-limit", "faults", "retry-budget", "task-timeout-us",
       "sched-policy", "class", "weights", "trace-spans", "power", "governor",
       "power-cap-watts", "migrate", "autoscale", "resize",
       "oversub"});
  if (!bad.empty()) {
    std::fprintf(stderr, "error: unknown argument '%s' (try --help)\n",
                 bad.c_str());
    return 1;
  }
  if (flags.has("list") || flags.has("help")) return list_options();
  if (flags.has("list-workloads")) return list_workloads();
  if (flags.has("list-policies")) return list_policies();

  const std::string wl = flags.get("workload", "MM");
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
  // Any cluster flag selects the Cluster runtime; --runtime=Cluster works
  // too (with --gpus defaulting to a single Titan X).
  const std::vector<std::string> rts = parse_runtimes(
      flags.get("runtime", flags.has("gpus") ? "Cluster" : "Pagoda"));
  if (rts.empty()) return 1;
  const bool multi = rts.size() > 1;
  if (flags.has("gpus") && (multi || rts[0] != "Cluster")) {
    std::fprintf(stderr, "error: --gpus only applies to --runtime=Cluster\n");
    return 1;
  }
  for (const char* f : {"faults", "retry-budget", "task-timeout-us",
                        "trace-spans", "power", "governor",
                        "power-cap-watts", "migrate", "autoscale",
                        "resize"}) {
    if (flags.has(f) && (multi || rts[0] != "Cluster")) {
      std::fprintf(stderr, "error: --%s only applies to --runtime=Cluster\n",
                   f);
      return 1;
    }
  }
  const std::string rt = rts[0];
  const bool want_cluster = !multi && rt == "Cluster";
  const bool pagoda_rt = rt == "Pagoda" || rt == "PagodaBatching";

  // Every int flag is range-checked here, before it narrows: out-of-range
  // values are usage errors (exit 1), never a truncation, a silent
  // "unbounded" or an abort mid-run. The runtimes CHECK the task shape and
  // TaskTable geometry, so those bounds come from the platform.
  baselines::RunConfig rcfg = harness::paper_platform();
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = flags.get_int_in("tasks", 4096, 1);
  wcfg.threads_per_task = flags.get_int_in("task-threads", 128, 1,
                                           rcfg.spec.max_threads_per_block);
  wcfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0x9A60DA));
  wcfg.input_scale = flags.get_int_in("input", 0, 0);
  wcfg.blocks_per_task = flags.get_int_in("blocks", 1, 1);
  wcfg.irregular_sizes = flags.has("irregular");
  wcfg.dynamic_threads = flags.has("dynamic-threads");
  wcfg.use_shared_memory = !flags.has("no-shmem");

  rcfg.mode = flags.has("compute") ? gpu::ExecMode::Compute
                                   : gpu::ExecMode::Model;
  rcfg.include_data_copies = !flags.has("no-copies");
  rcfg.collect_latencies = true;
  rcfg.batch_size = flags.get_int_in("batch", 0, 0);
  const int rows = flags.get_int_in("rows", 32, 1);
  rcfg.pagoda.rows_per_column = rows;
  rcfg.pagoda.two_copy_spawn = flags.has("two-copy");
  const int period_us = flags.get_int_in("metrics-period", 20, 1);

  // Virtual resource plane (DESIGN.md §16): ONE factor drives shared-memory
  // and register virtualization inside every MasterKernel plus virtual
  // TaskTable-slot admission in the cluster dispatcher. 1.0 (the default)
  // is byte-identical to physical reservations.
  const double oversub = flags.get_double("oversub", 1.0);
  if (flags.has("oversub")) {
    if (flags.get("oversub", "").empty()) {
      std::fprintf(stderr,
                   "error: --oversub needs a factor (e.g. --oversub=1.5)\n");
      return 1;
    }
    if (multi || !(pagoda_rt || rt == "Cluster")) {
      std::fprintf(stderr,
                   "error: --oversub needs a single Pagoda, PagodaBatching "
                   "or Cluster runtime (the virtual resource plane lives in "
                   "the MasterKernel)\n");
      return 1;
    }
    if (oversub < 1.0) {
      std::fprintf(stderr,
                   "error: --oversub must be a finite factor >= 1.0 "
                   "(1.0 = physical reservations; e.g. --oversub=1.5 "
                   "admits 1.5x the declared footprints)\n");
      return 1;
    }
  }
  rcfg.pagoda.oversub = oversub;

  // The virtual TaskTable (oversub x MTB columns x rows) is counted in int
  // slots. Every --gpus device has at most the paper platform's SMM count,
  // so its table bounds the factor for every node.
  const double table_entries = static_cast<double>(rcfg.spec.num_smms) *
                               runtime::MasterKernel::kMtbsPerSmm *
                               static_cast<double>(rows);
  const double max_oversub =
      std::floor(std::numeric_limits<int>::max() / table_entries);
  if (oversub > max_oversub) {
    std::fprintf(stderr,
                 "error: --oversub=%g with --rows=%d overflows the virtual "
                 "TaskTable; the factor must be <= %.0f\n",
                 oversub, rows, max_oversub);
    return 1;
  }

  // QoS scheduling: one --sched-policy flag drives every layer that orders
  // work (cluster admission, host spawn order, scheduler-warp claim order).
  const bool qos_flags = flags.has("sched-policy") || flags.has("class") ||
                         flags.has("weights");
  if (qos_flags && (multi || !(pagoda_rt || want_cluster))) {
    std::fprintf(stderr,
                 "error: --sched-policy/--class/--weights need a single "
                 "Pagoda, PagodaBatching or Cluster runtime\n");
    return 1;
  }
  rcfg.pagoda.sched.kind = *sched::parse_policy_kind(flags.get_enum(
      "sched-policy", "fifo", {"fifo", "priority", "edf", "wfq"}));
  rcfg.task_class = *sched::parse_class(flags.get_enum(
      "class", "standard", {"interactive", "standard", "batch"}));
  if (flags.has("weights")) {
    if (rcfg.pagoda.sched.kind != sched::PolicyKind::kWfq) {
      std::fprintf(stderr,
                   "error: --weights only applies to --sched-policy=wfq\n");
      return 1;
    }
    const std::optional<std::array<double, sched::kNumClasses>> w =
        parse_weights(flags.get("weights"));
    if (!w.has_value()) {
      std::fprintf(stderr,
                   "error: bad --weights '%s' (want three positive numbers: "
                   "interactive,standard,batch — e.g. --weights=4,2,1)\n",
                   flags.get("weights").c_str());
      return 1;
    }
    rcfg.pagoda.sched.weights = *w;
  }
  rcfg.cluster.default_class = rcfg.task_class;

  // Cluster specs are parsed here, once, into typed values; the cross-plane
  // rules are Dispatcher::validate()'s. What remains below is flag syntax:
  // malformed specs and flags given without the plane they refine.
  const std::string arrival = flags.get("arrival", "closed");
  const std::string power = flags.get("power");
  const std::string governor = flags.get("governor", "static");
  const std::string autoscale = flags.get("autoscale");
  const std::string resize = flags.get("resize");
  if (want_cluster) {
    cluster::DispatcherConfig& dc = rcfg.cluster.dispatcher;
    dc.qos = qos_flags;  // arm sched.* export even under fifo
    rcfg.cluster.specs = parse_gpus(flags.get("gpus", "1"));
    if (rcfg.cluster.specs.empty()) {
      std::fprintf(stderr,
                   "error: bad --gpus value '%s' (want a count or a comma "
                   "list of titanx/k40)\n",
                   flags.get("gpus").c_str());
      return 1;
    }
    rcfg.cluster.policy =
        flags.get_enum("policy", "round-robin", cluster::all_policy_names());
    // get_enum validates the arrival *kind*; the rate/factor tail still
    // needs the full parser.
    flags.get_enum("arrival", "closed",
                   {"closed", "poisson:RATE", "bursty:RATE[:FACTOR]",
                    "diurnal:RATE[:FACTOR[:ON_US]]"});
    const std::optional<cluster::ArrivalConfig> acfg =
        cluster::ArrivalConfig::parse(arrival);
    if (!acfg.has_value()) {
      std::fprintf(stderr, "error: bad --arrival '%s'; valid forms: %s\n",
                   arrival.c_str(),
                   std::string(cluster::ArrivalConfig::choices()).c_str());
      return 1;
    }
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
    const double slo_us = flags.get_double("slo-us", 0.0);
    if (slo_us < 0.0 || slo_us > sim::kMaxSpecMicroseconds) {
      std::fprintf(stderr, "error: --slo-us must be in [0, 1e12]\n");
      return 1;
    }
    if (flags.has("slo-us") && slo_us == 0.0) {
      std::fprintf(stderr,
                   "error: --slo-us=0 is ambiguous; omit the flag to disable "
                   "SLO accounting, or pass a positive deadline "
                   "(e.g. --slo-us=5000)\n");
      return 1;
    }
    dc.default_slo = sim::microseconds(slo_us);
    dc.queue_limit = flags.get_int_in("queue-limit", 0, 0);
    rcfg.cluster.seed = wcfg.seed;

    std::string err;
    std::optional<fault::FaultPlan> plan =
        fault::FaultPlan::parse(flags.get("faults"), &err);
    if (!plan.has_value()) {
      std::fprintf(stderr,
                   "error: bad --faults spec: %s\n"
                   "valid forms (comma list): task:P xfer:P wedge:P "
                   "crash:NODE:T_US[:RECOVER_US] "
                   "degrade:T_US:DUR_US:FACTOR[:NODE] seed:N\n",
                   err.c_str());
      return 1;
    }
    dc.faults = std::move(*plan);
    const double timeout_us = flags.get_double("task-timeout-us", 0.0);
    if (timeout_us < 0.0 || timeout_us > sim::kMaxSpecMicroseconds) {
      std::fprintf(stderr, "error: --task-timeout-us must be in [0, 1e12]\n");
      return 1;
    }
    dc.task_timeout = sim::microseconds(timeout_us);
    dc.retry.budget = flags.get_int_in("retry-budget", dc.retry.budget, 0);

    // Power plane: --power arms the model; --governor and --power-cap-watts
    // refine it and are meaningless without it, so they fail fast.
    if (flags.has("power") && power.empty()) {
      std::fprintf(stderr,
                   "error: --power needs a spec (e.g. --power=default or "
                   "--power=default:floor=2); see --list-policies\n");
      return 1;
    }
    if (!power.empty()) {
      dc.power.spec = power::PowerSpec::parse(power, &err);
      if (!dc.power.spec.has_value()) {
        std::fprintf(stderr, "error: bad --power spec: %s\n", err.c_str());
        return 1;
      }
    }
    if (flags.has("governor") && power.empty()) {
      std::fprintf(stderr,
                   "error: --governor needs the power plane; add "
                   "--power=SPEC (see --list-policies)\n");
      return 1;
    }
    const std::optional<power::GovernorKind> gov =
        power::parse_governor(governor);
    if (!gov.has_value()) {
      std::fprintf(stderr, "error: unknown --governor '%s'; valid governors:",
                   governor.c_str());
      for (const std::string_view g : power::all_governor_names()) {
        std::fprintf(stderr, " %s", std::string(g).c_str());
      }
      std::fprintf(stderr, " (see --list-policies)\n");
      return 1;
    }
    dc.power.governor = *gov;
    dc.power.cap_watts = flags.get_double("power-cap-watts", 0.0);
    if (flags.has("power-cap-watts") && dc.power.cap_watts <= 0.0) {
      std::fprintf(stderr, "error: --power-cap-watts must be > 0\n");
      return 1;
    }

    // Elastic plane: --migrate arms checkpoint/restore drains; --autoscale
    // and --resize add a utilization resizer and an explicit plan.
    dc.migration.enabled = flags.has("migrate");
    if (flags.has("autoscale")) {
      std::optional<migrate::AutoscaleConfig> as =
          migrate::parse_autoscale_spec(autoscale, &err);
      if (!as.has_value()) {
        std::fprintf(stderr,
                     "error: bad --autoscale spec: %s "
                     "(want UTIL[:LOW:HIGH[:MIN]], e.g. --autoscale=0.6)\n",
                     err.c_str());
        return 1;
      }
      dc.autoscale = std::move(*as);
    }
    if (flags.has("resize")) {
      std::optional<std::vector<migrate::ResizeStep>> steps =
          migrate::parse_resize_spec(resize, &err);
      if (!steps.has_value()) {
        std::fprintf(stderr,
                     "error: bad --resize spec: %s "
                     "(want AT_US:NODES[,...], e.g. --resize=50000:8)\n",
                     err.c_str());
        return 1;
      }
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

  const bool want_metrics = flags.has("metrics");
  const std::string metrics_path = flags.get("metrics");
  const bool want_profile = flags.has("profile");
  const std::string profile_path = flags.get("profile", "profile.json");
  const bool want_trace = flags.has("trace");
  const std::string trace_path = flags.get("trace");
  if (want_trace && trace_path.empty()) {
    std::fprintf(stderr, "error: --trace needs a path (--trace=out.csv)\n");
    return 1;
  }
  const std::string trace_format = flags.get("trace-format", "csv");
  if (trace_format != "csv" && trace_format != "chrome") {
    std::fprintf(stderr, "error: --trace-format must be csv or chrome\n");
    return 1;
  }
  const bool want_spans = flags.has("trace-spans");
  const std::string spans_path = flags.get("trace-spans");
  if (want_spans && spans_path.empty()) {
    std::fprintf(stderr,
                 "error: --trace-spans needs a path "
                 "(--trace-spans=spans.json)\n");
    return 1;
  }

  if (multi) {
    if (want_metrics || want_profile || want_trace) {
      std::fprintf(stderr,
                   "error: --metrics/--profile/--trace need a single "
                   "--runtime\n");
      return 1;
    }
    // One shared config; every scheme runs under the same engine Session
    // parameters. Cluster (if listed) uses its defaults: one device of the
    // configured spec.
    rcfg.cluster.seed = wcfg.seed;
    std::printf("workload   %s  (%d tasks, %d threads/task%s%s)\n", wl.c_str(),
                wcfg.num_tasks, wcfg.threads_per_task,
                wcfg.irregular_sizes ? ", irregular sizes" : "",
                rcfg.include_data_copies ? "" : ", no data copies");
    std::printf("mode       %s\n\n",
                rcfg.mode == gpu::ExecMode::Compute ? "compute (verified)"
                                                    : "model");
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
  const auto open_output = [](const std::string& path,
                              const char* flag) -> std::ofstream {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: %s: cannot open output path '%s'\n", flag,
                   path.c_str());
      std::exit(2);
    }
    return out;
  };
  std::optional<std::ofstream> metrics_out;
  std::optional<std::ofstream> profile_out;
  std::optional<std::ofstream> trace_out;
  std::optional<std::ofstream> spans_out;
  if (want_metrics && !metrics_path.empty()) {
    metrics_out = open_output(metrics_path, "--metrics");
  }
  if (want_profile) profile_out = open_output(profile_path, "--profile");
  if (want_trace) trace_out = open_output(trace_path, "--trace");
  if (want_spans) spans_out = open_output(spans_path, "--trace-spans");

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
  std::printf("mode       %s\n",
              rcfg.mode == gpu::ExecMode::Compute ? "compute (verified)"
                                                  : "model");
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
      m.metrics.write_json(*metrics_out);
      std::printf("metrics    -> %s\n", metrics_path.c_str());
    }
  }
  if (want_profile) {
    collector.timeline().write_chrome_trace(*profile_out);
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
        collector.trace().write_chrome_trace(*trace_out);
      } else {
        collector.trace().write_csv(*trace_out);
      }
      std::printf("trace      %zu events -> %s\n",
                  collector.trace().events().size(), trace_path.c_str());
    } else {
      if (trace_format == "chrome") {
        collector.timeline().write_chrome_trace(*trace_out);
      } else {
        collector.timeline().write_csv(*trace_out);
      }
      std::printf("trace      %zu spans -> %s\n",
                  collector.timeline().num_spans(), trace_path.c_str());
    }
  }
  if (want_spans) {
    const obs::RequestTracer& tracer = collector.request_tracer();
    tracer.write_json(*spans_out);
    std::printf("spans      %zu requests, %zu dropped -> %s\n",
                tracer.records().size(), tracer.drops().size(),
                spans_path.c_str());
  }
  return 0;
}
