// perfbench_driver: runs one benchmark workload for a host-time budget and
// prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload=paper_mix|fleet|planes --seed=N
//                    --seconds=S --trace=0|1
//
// A run repeats "set up, simulate, tear down" on the inputs generated from
// --seed while another repetition fits in --seconds of host time (at least
// kMinReps times untraced, once traced). One cold repetition before them
// faults in the heap the timed ones reuse; it gives the one-shot CPU,
// page-fault and peak-memory figures.
// Host times are medians over the timed repetitions, in reference seconds:
// every timed repetition runs between two runs of a fixed reference kernel,
// and its host times are scaled by how fast that kernel ran around it.
// Simulated results are deterministic, so every repetition must reproduce
// the same outcome digest.
//
// --trace=0 reports the end-to-end metrics from untraced repetitions.
// --trace=1 arms the obs::Collector (metrics, request spans, the Pagoda
// protocol trace), wraps host timers around the calls into each layer, and
// reports the per-layer metrics; one untraced repetition gives the baseline
// for obs.trace_overhead_x.
//
// Exit code 0 with "correct": false in the JSON means a check failed; any
// other exit code means the driver itself could not run.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/task_runtime.h"
#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "common/stats.h"
#include "engine/session.h"
#include "fault/plan.h"
#include "harness/calibration.h"
#include "harness/flags.h"
#include "obs/collector.h"
#include "obs/trace_span.h"
#include "pagoda/trace.h"
#include "power/power_spec.h"
#include "sim/process.h"
#include "workloads/workload.h"

using namespace pagoda;

namespace {

constexpr int kMinReps = 3;
constexpr sim::Duration kTimeCap = sim::seconds(600.0);

/// Reference kernel size, and the time it is defined to take. Host times
/// are reported in reference seconds: host seconds x kRefKernelS / the
/// kernel's measured time around them. kRefKernelS is about the kernel's
/// time on a shared 4-core x86 cloud host, so reference seconds come close
/// to wall seconds there.
constexpr std::uint64_t kRefLive = 4096;
constexpr int kRefEvents = 400000;
constexpr double kRefKernelS = 0.1;

// ---------------------------------------------------------------------------
// Workload definitions. On a 4-core x86 host one warm untraced repetition
// takes about 0.35 s (paper_mix), 1.8 s (fleet) and 0.7 s (planes).

/// paper_mix: the paper's Table 3 kernels on one Titan X under the Pagoda
/// runtime (Fig 5 settings: 128 threads/task, data copies on). Irregular
/// sizes make the seed change task shapes, not only input values (Model
/// mode timing does not read values).
struct MixKernel {
  const char* name;
  int tasks;
};
constexpr std::array<MixKernel, 5> kMix = {{
    {"MM", 2048}, {"DCT", 1024}, {"MB", 4096}, {"3DES", 2048}, {"SLUD", 2048},
}};
constexpr int kVerifyTasks = 48;  // per kernel, Compute mode

/// fleet: 128 Titan X nodes, round-robin, MM requests arriving Poisson at
/// ~200k req/s per node (light load), on the default sharded core.
constexpr int kFleetNodes = 128;
constexpr int kFleetRequests = 8192;
constexpr double kFleetRatePerNode = 200.0e3;

/// planes: 8 nodes with every opt-in plane armed together. Bursts at 4x the
/// mean rate approach saturation while the resize has the fleet at 5 nodes.
/// Short burst phases keep the arrival span, and so throughput, steady from
/// seed to seed.
constexpr int kPlanesNodes = 8;
constexpr int kPlanesRequests = 32000;
constexpr double kPlanesRate = 500.0e3;
constexpr double kPlanesBurst = 4.0;
constexpr sim::Duration kPlanesBurstOn = sim::microseconds(25.0);

// ---------------------------------------------------------------------------
// Host measurement helpers.

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Rusage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double max_rss_mb = 0.0;
};

Rusage rusage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  r.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  r.minor_faults = static_cast<double>(ru.ru_minflt);
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

volatile std::uint64_t g_reference_sink;

/// Host-speed reference: a discrete-event loop of the simulator's shape (a
/// binary-heap event queue, a std::function callback and a small heap
/// allocation per event) that shares none of its code, so no change to the
/// simulator moves it. Other tenants of a shared host slow the simulator by
/// up to 60% for seconds at a time; this loop slows with it, where sorting,
/// hashing and pointer-chasing loops do not (see README.md).
double reference_kernel_s() {
  struct Event {
    std::uint64_t at;
    std::uint64_t id;
    std::function<void()> fn;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::uint64_t acc = 0;
  const double t0 = now_s();
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::vector<std::unique_ptr<std::array<std::uint64_t, 6>>> live(kRefLive);
  for (std::uint64_t i = 0; i < kRefLive; ++i) {
    queue.push({next() % 1000, i, nullptr});
  }
  for (int n = 0; n < kRefEvents; ++n) {
    Event e = queue.top();
    queue.pop();
    auto obj = std::make_unique<std::array<std::uint64_t, 6>>();
    (*obj)[0] = e.at ^ e.id;
    acc += (*obj)[0];
    live[e.id] = std::move(obj);
    if (e.fn) e.fn();
    const std::uint64_t id = e.id;
    queue.push({e.at + 1 + next() % 1000, id, [&acc, id] { acc += id; }});
  }
  g_reference_sink = acc;
  return now_s() - t0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return percentile(v, 50);
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : percentile(v, p);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : arithmetic_mean(v);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over the simulated outcome: completed count, virtual end time and
/// the per-request latency vector, bit for bit.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// ---------------------------------------------------------------------------
// One repetition's outcome.

struct Phases {
  // Per-request bucket means (all terminal requests) and the same means
  // over requests whose latency exceeds the p99.
  std::array<double, obs::kNumPhases> mean_us{};
  std::array<double, obs::kNumPhases> tail_us{};
};

struct Rep {
  // host
  double setup_s = 0.0;
  double generate_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double export_s = 0.0;
  double speed = 1.0;  // reference seconds per host second around this rep
  Rusage cpu{};  // deltas over the repetition (max_rss_mb: absolute)
  std::int64_t offers = 0;
  double offer_s = 0.0;
  std::int64_t picks = 0;
  double pick_s = 0.0;

  // simulated
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t slo_met = 0;
  double sim_seconds = 0.0;
  double busy_warp_seconds = 0.0;  // occupancy numerator
  double warp_seconds = 0.0;       // occupancy denominator
  double energy_j = 0.0;
  std::vector<double> latency_us;
  std::uint64_t digest = 0;
  std::string summary;  // one human-readable line about the simulated run

  std::vector<std::string> errors;
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  // per-layer (traced repetitions only)
  std::map<std::string, double> layer;
};

// ---------------------------------------------------------------------------
// Layer probes.

/// Timing decorator around a placement policy: counts host time per pick().
class TimedPolicy final : public cluster::PlacementPolicy {
 public:
  TimedPolicy(std::unique_ptr<cluster::PlacementPolicy> inner, Rep& rep,
              bool timed)
      : inner_(std::move(inner)), rep_(rep), timed_(timed) {}
  std::string_view name() const override { return inner_->name(); }
  int pick(const cluster::Cluster& c, const cluster::Request& r) override {
    if (!timed_) return inner_->pick(c, r);
    const auto t0 = std::chrono::steady_clock::now();
    const int node = inner_->pick(c, r);
    rep_.pick_s += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    ++rep_.picks;
    return node;
  }
  void set_power_cap(double w) override { inner_->set_power_cap(w); }

 private:
  std::unique_ptr<cluster::PlacementPolicy> inner_;
  Rep& rep_;
  bool timed_;
};

/// Sum of a registry counter over every node prefix ("devNN.<suffix>").
std::int64_t sum_counters(const obs::MetricsRegistry& m,
                          const std::string& suffix, int nodes) {
  std::int64_t s = 0;
  for (int i = 0; i < nodes; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "dev%02d.", i);
    s += m.counter_value(buf + suffix);
  }
  return s;
}

double mean_gauges(const obs::MetricsRegistry& m, const std::string& suffix,
                   int nodes) {
  double s = 0.0;
  for (int i = 0; i < nodes; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "dev%02d.", i);
    s += m.gauge_value(buf + suffix);
  }
  return s / static_cast<double>(nodes);
}

/// pagoda.spawn/claim_wait/exec per-task samples, us.
struct PagodaTimes {
  std::vector<double> spawn, claim_wait, exec;
};

void add_protocol_times(const runtime::TraceRecorder& tr, PagodaTimes& out) {
  for (const runtime::TraceRecorder::TaskTimeline& t : tr.timelines()) {
    if (!t.complete()) continue;
    out.spawn.push_back(sim::to_microseconds(t.entry_copied - t.spawned));
    out.claim_wait.push_back(sim::to_microseconds(t.scheduled - t.entry_copied));
    out.exec.push_back(sim::to_microseconds(t.completed - t.scheduled));
  }
}

void put_pagoda_times(const PagodaTimes& p, Rep& rep) {
  rep.layer["pagoda.spawn_us"] = mean(p.spawn);
  rep.layer["pagoda.spawn_p99_us"] = pct(p.spawn, 99);
  rep.layer["pagoda.claim_wait_us"] = mean(p.claim_wait);
  rep.layer["pagoda.claim_wait_p99_us"] = pct(p.claim_wait, 99);
  rep.layer["pagoda.exec_us"] = mean(p.exec);
  rep.layer["pagoda.exec_p99_us"] = pct(p.exec, 99);
}

/// Phase bucket means over completed requests, plus the tail (> p99) means.
/// Also checks that every record's buckets tile its end-to-end latency.
Phases phase_means(const obs::RequestTracer& tracer, Rep& rep) {
  Phases out;
  const std::vector<obs::RequestTracer::Record>& recs = tracer.records();
  std::vector<double> lat;
  lat.reserve(recs.size());
  for (const obs::RequestTracer::Record& r : recs) {
    sim::Duration sum = 0;
    for (const sim::Duration b : r.buckets) sum += b;
    rep.check(sum == r.done - r.arrival, "phase buckets do not tile latency");
    lat.push_back(sim::to_microseconds(r.done - r.arrival));
  }
  const double p99 = pct(lat, 99);
  std::int64_t n = 0;
  std::int64_t tail = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const bool in_tail = lat[i] > p99;
    ++n;
    if (in_tail) ++tail;
    for (int p = 0; p < obs::kNumPhases; ++p) {
      const double us = sim::to_microseconds(recs[i].buckets[p]);
      out.mean_us[p] += us;
      if (in_tail) out.tail_us[p] += us;
    }
  }
  for (int p = 0; p < obs::kNumPhases; ++p) {
    out.mean_us[p] = ratio(out.mean_us[p], static_cast<double>(n));
    out.tail_us[p] = ratio(out.tail_us[p], static_cast<double>(tail));
  }
  rep.check(tracer.live() == 0, "requests left unresolved in the tracer");
  return out;
}

void put_phases(const Phases& ph, Rep& rep) {
  for (int p = 0; p < obs::kNumPhases; ++p) {
    const std::string name(obs::to_string(static_cast<obs::Phase>(p)));
    rep.layer["phase." + name + ".mean_us"] = ph.mean_us[p];
    rep.layer["tail." + name + ".mean_us"] = ph.tail_us[p];
  }
}

// ---------------------------------------------------------------------------
// paper_mix

workloads::WorkloadConfig mix_config(const MixKernel& k, std::uint64_t seed,
                                     int index, gpu::ExecMode mode) {
  workloads::WorkloadConfig w;
  w.num_tasks = k.tasks;
  w.threads_per_task = 128;
  w.irregular_sizes = true;
  w.mode = mode;
  w.seed = seed * 1000003ULL + static_cast<std::uint64_t>(index);
  return w;
}

baselines::RunConfig mix_run_config(gpu::ExecMode mode) {
  baselines::RunConfig r = harness::paper_platform();
  r.mode = mode;
  r.include_data_copies = true;
  r.collect_latencies = true;
  return r;
}

Rep run_paper_mix(std::uint64_t seed, bool traced) {
  Rep rep;
  const Rusage before = rusage_now();
  Digest dg;
  PagodaTimes ptimes;
  std::int64_t allocs = 0, alloc_failures = 0, copybacks = 0, h2d_bytes = 0;
  double busy_frac_w = 0.0, exec_util_w = 0.0, h2d_util_w = 0.0,
         d2h_util_w = 0.0;
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    const MixKernel& k = kMix[i];
    const double t0 = now_s();
    std::unique_ptr<workloads::Workload> w = workloads::make_workload(k.name);
    w->generate(mix_config(k, seed, static_cast<int>(i),
                           gpu::ExecMode::Model));
    const double t1 = now_s();
    // The Pagoda runtime builds its own Session inside run(); a stand-alone
    // build of the same Session times the engine layer's share of set-up.
    {
      engine::SessionConfig sc;
      const baselines::RunConfig r = mix_run_config(gpu::ExecMode::Model);
      sc.spec = r.spec;
      sc.pcie = r.pcie;
      sc.host = r.host;
      sc.pagoda_runtime = true;
      sc.pagoda = r.pagoda;
      sc.pagoda.mode = gpu::ExecMode::Model;
      engine::Session s(sc);
      s.start();
      s.shutdown();
    }
    const double t2 = now_s();

    baselines::RunConfig rcfg = mix_run_config(gpu::ExecMode::Model);
    obs::CollectorConfig ccfg;
    ccfg.trace = true;
    obs::Collector collector(ccfg);
    if (traced) rcfg.collector = &collector;
    std::unique_ptr<baselines::TaskRuntime> rt =
        baselines::make_runtime("Pagoda");
    const engine::RunResult res = rt->run(*w, rcfg);
    const double t3 = now_s();

    rep.generate_s += t1 - t0;
    rep.build_s += t2 - t1;
    rep.run_s += t3 - t2;
    rep.check(res.completed, std::string(k.name) + " did not complete");
    rep.check(res.tasks == k.tasks,
              std::string(k.name) + " completed " + std::to_string(res.tasks) +
                  " of " + std::to_string(k.tasks) + " tasks");
    rep.offered += k.tasks;
    rep.completed += res.tasks;
    rep.slo_met += res.tasks;  // no deadlines: completing meets the SLO
    const double secs = sim::to_seconds(res.elapsed);
    rep.sim_seconds += secs;
    rep.busy_warp_seconds += res.occupancy * secs;
    rep.warp_seconds += secs;
    rep.latency_us.insert(rep.latency_us.end(), res.task_latency_us.begin(),
                          res.task_latency_us.end());
    dg.add(static_cast<std::uint64_t>(res.tasks));
    dg.add(static_cast<std::uint64_t>(res.elapsed));
    for (const double l : res.task_latency_us) dg.add(l);

    if (traced) {
      const double te = now_s();
      std::ostringstream sink;
      collector.metrics().write_json(sink);
      collector.trace().write_csv(sink);
      rep.export_s += now_s() - te;
      const obs::MetricsRegistry& m = collector.metrics();
      add_protocol_times(collector.trace(), ptimes);
      allocs += m.counter_value("pagoda.shmem.allocs");
      alloc_failures += m.counter_value("pagoda.shmem.alloc_failures");
      copybacks += m.counter_value("pagoda.single_copybacks") +
                   m.counter_value("pagoda.aggregate_copybacks");
      h2d_bytes += m.counter_value("pcie.h2d.bytes");
      busy_frac_w += m.gauge_value("pagoda.sched.busy_fraction") * secs;
      exec_util_w += m.gauge_value("pagoda.executors.utilization") * secs;
      h2d_util_w += m.gauge_value("pcie.h2d.wire_utilization") * secs;
      d2h_util_w += m.gauge_value("pcie.d2h.wire_utilization") * secs;
    }
  }
  rep.setup_s = rep.generate_s + rep.build_s;
  rep.digest = dg.value();
  const Rusage after = rusage_now();
  rep.cpu = {after.user_s - before.user_s, after.sys_s - before.sys_s,
             after.minor_faults - before.minor_faults, after.max_rss_mb};

  if (traced) {
    put_pagoda_times(ptimes, rep);
    const double tasks = static_cast<double>(rep.completed);
    rep.layer["pagoda.sched.busy_fraction"] =
        ratio(busy_frac_w, rep.sim_seconds);
    rep.layer["pagoda.executors.utilization"] =
        ratio(exec_util_w, rep.sim_seconds);
    rep.layer["pagoda.shmem.alloc_fail_ratio"] =
        ratio(static_cast<double>(alloc_failures), static_cast<double>(allocs));
    rep.layer["pagoda.copybacks_per_task"] =
        ratio(static_cast<double>(copybacks), tasks);
    rep.layer["pcie.h2d.wire_utilization"] = ratio(h2d_util_w, rep.sim_seconds);
    rep.layer["pcie.d2h.wire_utilization"] = ratio(d2h_util_w, rep.sim_seconds);
    rep.layer["pcie.h2d.bytes_per_task"] =
        ratio(static_cast<double>(h2d_bytes), tasks);
    put_phases(Phases{}, rep);  // no dispatcher: no request phases
  }
  return rep;
}

/// Untimed Compute-mode pass: every mix kernel executes its real math on a
/// few tasks and must match its CPU reference.
std::vector<std::string> verify_paper_mix(std::uint64_t seed) {
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    MixKernel k = kMix[i];
    k.tasks = kVerifyTasks;
    std::unique_ptr<workloads::Workload> w = workloads::make_workload(k.name);
    w->generate(mix_config(k, seed, static_cast<int>(i),
                           gpu::ExecMode::Compute));
    const engine::RunResult res = baselines::make_runtime("Pagoda")->run(
        *w, mix_run_config(gpu::ExecMode::Compute));
    if (!res.completed || res.tasks != k.tasks) {
      errors.push_back(std::string(k.name) + " compute pass did not complete");
    } else if (!w->verify()) {
      errors.push_back(std::string(k.name) +
                       " output differs from the CPU reference");
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// fleet and planes: the cluster driven through Cluster + Dispatcher.

struct ClusterScenario {
  int nodes = 0;
  int requests = 0;
  std::string policy;
  bool planes = false;
};

cluster::NodeConfig node_config(const ClusterScenario& sc) {
  const baselines::RunConfig paper = harness::paper_platform();
  cluster::NodeConfig nc;
  nc.spec = paper.spec;
  nc.pcie = paper.pcie;
  nc.host = paper.host;
  nc.pagoda.mode = gpu::ExecMode::Model;
  if (sc.planes) {
    nc.pagoda.rows_per_column = 4;
    nc.pagoda.oversub = 1.5;
    nc.pagoda.sched.kind = sched::PolicyKind::kEdf;
  }
  return nc;
}

cluster::DispatcherConfig dispatcher_config(const ClusterScenario& sc,
                                            std::uint64_t seed,
                                            sim::Duration expected_span) {
  cluster::DispatcherConfig dc;
  dc.host = harness::paper_platform().host;
  if (!sc.planes) return dc;
  std::string err;
  dc.faults = *fault::FaultPlan::parse("xfer:0.01", &err);
  dc.faults.seed = seed;
  dc.retry.seed = seed;
  dc.retry.budget = 6;
  dc.sched.kind = sched::PolicyKind::kEdf;
  dc.qos = true;
  dc.oversub = 1.5;
  dc.power.spec = power::PowerSpec::default_spec();
  dc.power.governor = power::GovernorKind::kDvfs;
  dc.migration.enabled = true;
  // Rolling resize inside the stream: shrink to 5 nodes a fifth of the way
  // in, restore the full fleet at 60%.
  dc.autoscale.plan = {{expected_span / 5, 5}, {expected_span * 3 / 5, 8}};
  return dc;
}

/// Request classes of the planes mix. Only standard requests move data, so
/// only they can hit an injected transfer fault; they carry no deadline, so
/// a failed attempt is always retried (the dispatcher sheds a failed request
/// whose deadline is blown, or a batch request while nodes are drained).
/// Every request therefore completes, while retries, drains, migrations and
/// virtual over-admission all happen.
cluster::RequestProfile planes_profile(sched::Class cls) {
  cluster::RequestProfile p;
  p.cls = cls;
  p.h2d_bytes = 0;
  p.d2h_bytes = 0;
  switch (cls) {
    case sched::Class::kInteractive:
      p.threads_per_task = 64;
      p.compute_cycles = 6000.0;
      p.stall_cycles = 12000.0;
      p.slo = sim::milliseconds(2.0);
      break;
    case sched::Class::kStandard:
      p.threads_per_task = 128;
      p.compute_cycles = 24000.0;
      p.stall_cycles = 48000.0;
      p.h2d_bytes = 8192;
      p.d2h_bytes = 2048;
      break;
    case sched::Class::kBatch:
      p.threads_per_task = 256;
      p.compute_cycles = 96000.0;
      p.stall_cycles = 192000.0;
      p.slo = sim::milliseconds(20.0);
      break;
  }
  return p;
}

/// Deterministic class interleave: 1 interactive, 2 standard, 1 batch, so
/// the median request is a standard one rather than a class boundary.
sched::Class planes_class(int index) {
  switch (index % 4) {
    case 0: return sched::Class::kInteractive;
    case 3: return sched::Class::kBatch;
    default: return sched::Class::kStandard;
  }
}

struct ClusterBox {
  static engine::SessionConfig clock_only() {
    engine::SessionConfig c;
    c.device = false;  // every GpuNode brings up its own device session
    return c;
  }

  engine::Session session{clock_only()};
  sim::Simulation& sim = session.sim();
  cluster::Cluster fleet;
  cluster::Dispatcher disp;
  sim::Time end_time = 0;
  bool done = false;

  ClusterBox(const ClusterScenario& sc, std::unique_ptr<TimedPolicy> policy,
             cluster::DispatcherConfig dc)
      : fleet(sim, std::vector<cluster::NodeConfig>(
                       static_cast<std::size_t>(sc.nodes), node_config(sc))),
        disp(fleet, std::move(policy), std::move(dc)) {}
};

sim::Process cluster_source(ClusterBox& box, const ClusterScenario& sc,
                            const workloads::Workload* w,
                            cluster::ArrivalConfig acfg, std::uint64_t seed,
                            Rep& rep, bool timed) {
  cluster::ArrivalSequence seq(acfg, seed);
  for (int i = 0; i < sc.requests; ++i) {
    const sim::Duration gap = seq.next_gap();
    if (gap > 0) co_await box.sim.delay(gap);
    cluster::Request r;
    if (w != nullptr) {
      const workloads::TaskSpec& t = w->tasks()[static_cast<std::size_t>(i)];
      r.params = t.params;
      r.h2d_bytes = t.h2d_bytes;
      r.d2h_bytes = t.d2h_bytes;
      r.index = i;
    } else {
      r = cluster::synth_request(planes_profile(planes_class(i)), seed, i);
    }
    if (timed) {
      const auto t0 = std::chrono::steady_clock::now();
      box.disp.offer(std::move(r));
      rep.offer_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      ++rep.offers;
    } else {
      box.disp.offer(std::move(r));
    }
  }
  box.disp.close();
}

sim::Process cluster_drainer(ClusterBox& box) {
  co_await box.disp.drain();
  box.end_time = box.sim.now();
  box.done = true;
}

Rep run_cluster(const ClusterScenario& sc, std::uint64_t seed, bool traced) {
  Rep rep;
  const Rusage before = rusage_now();
  const double t0 = now_s();

  std::unique_ptr<workloads::Workload> w;
  cluster::ArrivalConfig acfg;
  if (!sc.planes) {
    w = workloads::make_workload("MM");
    workloads::WorkloadConfig wc;
    wc.num_tasks = sc.requests;
    wc.threads_per_task = 128;
    wc.seed = seed;
    wc.irregular_sizes = true;  // the seed shapes the requests
    wc.mode = gpu::ExecMode::Model;
    w->generate(wc);
    acfg.kind = cluster::ArrivalKind::Poisson;
    acfg.rate_per_sec = kFleetRatePerNode * sc.nodes;
  } else {
    acfg.kind = cluster::ArrivalKind::Bursty;
    acfg.rate_per_sec = kPlanesRate;
    acfg.burst_factor = kPlanesBurst;
    acfg.mean_on = kPlanesBurstOn;
  }
  const double t1 = now_s();

  const sim::Duration span = sim::seconds(
      static_cast<double>(sc.requests) / acfg.rate_per_sec);
  auto policy = std::make_unique<TimedPolicy>(cluster::make_policy(sc.policy),
                                              rep, traced);
  auto box = std::make_unique<ClusterBox>(sc, std::move(policy),
                                          dispatcher_config(sc, seed, span));
  obs::CollectorConfig ccfg;
  ccfg.spans = true;
  obs::Collector collector(ccfg);
  if (traced) {
    for (int i = 0; i < box->fleet.size(); ++i) {
      char prefix[16];
      std::snprintf(prefix, sizeof(prefix), "dev%02d.", i);
      box->fleet.node(i).session().attach_collector(collector, prefix);
    }
    box->disp.install_sampler(collector);
    box->disp.set_tracer(&collector.request_tracer());
  }
  box->fleet.start();
  const double t2 = now_s();

  box->sim.spawn(cluster_source(*box, sc, w.get(), acfg, seed, rep, traced));
  box->sim.spawn(cluster_drainer(*box));
  box->sim.run_until(kTimeCap);
  const double t3 = now_s();

  rep.generate_s = t1 - t0;
  rep.build_s = t2 - t1;
  rep.setup_s = t2 - t0;
  rep.run_s = t3 - t2;

  const cluster::Dispatcher& d = box->disp;
  const cluster::Dispatcher::Stats& st = d.stats();
  rep.check(box->done, "cluster did not drain before the time cap");
  rep.check(st.slot_releases == st.completed + st.shed,
            "ledger: slot_releases != completed + shed");
  rep.check(st.slot_releases == st.admitted,
            "ledger: slot_releases != admitted");
  rep.check(st.offered == sc.requests, "not every request was offered");
  rep.offered = st.offered;
  rep.completed = st.completed;
  rep.failed = st.dropped + st.shed;
  rep.slo_met = st.completed - st.slo_late;
  rep.sim_seconds = sim::to_seconds(box->end_time);
  rep.busy_warp_seconds = box->fleet.executor_busy_warp_seconds();
  double warp_capacity = 0.0;
  for (int i = 0; i < box->fleet.size(); ++i) {
    warp_capacity += static_cast<double>(
        box->fleet.node(i).device().spec().max_resident_warps());
    if (const power::NodePower* np = box->fleet.node(i).power()) {
      rep.energy_j += np->energy_joules(box->end_time);
    }
  }
  rep.warp_seconds = warp_capacity * rep.sim_seconds;
  rep.latency_us.assign(d.latencies_us().begin(), d.latencies_us().end());
  Digest dg;
  dg.add(static_cast<std::uint64_t>(st.completed));
  dg.add(static_cast<std::uint64_t>(st.shed + st.dropped));
  dg.add(static_cast<std::uint64_t>(box->end_time));
  for (const double l : rep.latency_us) dg.add(l);
  rep.digest = dg.value();
  char ledger[256];
  std::snprintf(ledger, sizeof(ledger),
                "ledger offered %" PRId64 " admitted %" PRId64
                " completed %" PRId64 " shed %" PRId64 " dropped %" PRId64
                " slo_late %" PRId64 " retries %" PRId64 " migrated %" PRId64
                " declined %" PRId64 " evicted %" PRId64 " wake %" PRId64
                " overadm %" PRId64,
                st.offered, st.admitted, st.completed, st.shed, st.dropped,
                st.slo_late, st.retries, st.migrated, st.migrate_declined,
                st.evicted, st.power_wakeup_waits, st.vres_over_admissions);
  rep.summary = ledger;

  if (traced) {
    const double te = now_s();
    d.export_metrics(collector.metrics());
    collector.finish(box->end_time, st.completed);
    std::ostringstream sink;
    collector.metrics().write_json(sink);
    collector.request_tracer().write_json(sink);
    rep.export_s = now_s() - te;

    const obs::MetricsRegistry& m = collector.metrics();
    const int n = box->fleet.size();
    const double completed = static_cast<double>(st.completed);
    const Phases ph = phase_means(collector.request_tracer(), rep);
    put_phases(ph, rep);
    // The request tracer's table_wait / warp_wait / exec buckets are the
    // cluster-side view of the same Pagoda protocol intervals.
    PagodaTimes pt;
    for (const obs::RequestTracer::Record& r :
         collector.request_tracer().records()) {
      pt.spawn.push_back(sim::to_microseconds(
          r.buckets[static_cast<int>(obs::Phase::kTableWait)]));
      pt.claim_wait.push_back(sim::to_microseconds(
          r.buckets[static_cast<int>(obs::Phase::kWarpWait)]));
      pt.exec.push_back(
          sim::to_microseconds(r.buckets[static_cast<int>(obs::Phase::kExec)]));
    }
    put_pagoda_times(pt, rep);
    rep.layer["pagoda.sched.busy_fraction"] =
        mean_gauges(m, "pagoda.sched.busy_fraction", n);
    rep.layer["pagoda.executors.utilization"] =
        mean_gauges(m, "pagoda.executors.utilization", n);
    rep.layer["pagoda.shmem.alloc_fail_ratio"] =
        ratio(static_cast<double>(
                  sum_counters(m, "pagoda.shmem.alloc_failures", n)),
              static_cast<double>(sum_counters(m, "pagoda.shmem.allocs", n)));
    rep.layer["pagoda.copybacks_per_task"] = ratio(
        static_cast<double>(sum_counters(m, "pagoda.single_copybacks", n) +
                            sum_counters(m, "pagoda.aggregate_copybacks", n)),
        completed);
    rep.layer["pcie.h2d.wire_utilization"] =
        mean_gauges(m, "pcie.h2d.wire_utilization", n);
    rep.layer["pcie.d2h.wire_utilization"] =
        mean_gauges(m, "pcie.d2h.wire_utilization", n);
    rep.layer["pcie.h2d.bytes_per_task"] =
        ratio(static_cast<double>(sum_counters(m, "pcie.h2d.bytes", n)),
              completed);
    rep.layer["cluster.load_imbalance"] = d.load_imbalance();
    rep.layer["sched.interactive.latency.p99_us"] =
        pct({d.class_latencies_us(sched::Class::kInteractive).begin(),
             d.class_latencies_us(sched::Class::kInteractive).end()},
            99);
    rep.layer["sched.batch.latency.p99_us"] =
        pct({d.class_latencies_us(sched::Class::kBatch).begin(),
             d.class_latencies_us(sched::Class::kBatch).end()},
            99);
    rep.layer["sched.evicted"] = static_cast<double>(st.evicted);
    rep.layer["fault.attempts_per_request"] =
        ratio(static_cast<double>(st.slot_acquires),
              static_cast<double>(st.slot_releases));
    rep.layer["fault.retries"] = static_cast<double>(st.retries);
    rep.layer["fault.redispatched"] = static_cast<double>(st.redispatched);
    rep.layer["power.wakeup_waits"] =
        static_cast<double>(st.power_wakeup_waits);
    rep.layer["power.joules_per_req"] = ratio(rep.energy_j, completed);
    rep.layer["migrate.migrated"] = static_cast<double>(st.migrated);
    rep.layer["migrate.declined_ratio"] =
        ratio(static_cast<double>(st.migrate_declined),
              static_cast<double>(st.migrated + st.migrate_declined));
    rep.layer["vres.over_admissions"] =
        static_cast<double>(st.vres_over_admissions);
    rep.layer["pagoda.vres.spills"] =
        static_cast<double>(sum_counters(m, "pagoda.vres.spills", n));
  }
  box->fleet.shutdown();
  box.reset();
  w.reset();
  const Rusage after = rusage_now();
  rep.cpu = {after.user_s - before.user_s, after.sys_s - before.sys_s,
             after.minor_faults - before.minor_faults, after.max_rss_mb};
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting.

/// Every per-layer metric, in output order, with its unit. Layers a
/// workload bypasses report 0.
std::vector<std::pair<std::string, std::string>> layer_metric_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"sim.run_s", "s"},
      {"sim.host_us_per_task", "us"},
      {"host.cpu_user_s", "s"},
      {"host.cpu_sys_s", "s"},
      {"host.minor_faults", "count"},
      {"host.ref_kernel_s", "s"},
      {"workloads.generate_s", "s"},
      {"engine.build_s", "s"},
      {"cluster.offer_us", "us"},
      {"cluster.pick_ns", "ns"},
      {"cluster.load_imbalance", "ratio"},
  };
  for (int p = 0; p < obs::kNumPhases; ++p) {
    v.push_back({"phase." +
                     std::string(obs::to_string(static_cast<obs::Phase>(p))) +
                     ".mean_us",
                 "us"});
  }
  for (int p = 0; p < obs::kNumPhases; ++p) {
    v.push_back({"tail." +
                     std::string(obs::to_string(static_cast<obs::Phase>(p))) +
                     ".mean_us",
                 "us"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"pagoda.spawn_us", "us"},
      {"pagoda.spawn_p99_us", "us"},
      {"pagoda.claim_wait_us", "us"},
      {"pagoda.claim_wait_p99_us", "us"},
      {"pagoda.exec_us", "us"},
      {"pagoda.exec_p99_us", "us"},
      {"pagoda.sched.busy_fraction", "fraction"},
      {"pagoda.executors.utilization", "fraction"},
      {"pagoda.shmem.alloc_fail_ratio", "ratio"},
      {"pagoda.copybacks_per_task", "count"},
      {"pcie.h2d.wire_utilization", "fraction"},
      {"pcie.d2h.wire_utilization", "fraction"},
      {"pcie.h2d.bytes_per_task", "bytes"},
      {"sched.interactive.latency.p99_us", "us"},
      {"sched.batch.latency.p99_us", "us"},
      {"sched.evicted", "count"},
      {"fault.attempts_per_request", "ratio"},
      {"fault.retries", "count"},
      {"fault.redispatched", "count"},
      {"power.wakeup_waits", "count"},
      {"power.joules_per_req", "J"},
      {"migrate.migrated", "count"},
      {"migrate.declined_ratio", "ratio"},
      {"vres.over_admissions", "count"},
      {"pagoda.vres.spills", "count"},
      {"obs.trace_overhead_x", "ratio"},
      {"obs.export_s", "s"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload=paper_mix|fleet|planes "
               "--seed=N --seconds=S --trace=0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Serve allocations below 1 GiB from the heap and never return it to the
  // kernel: after the first repetitions, set-up and simulation reuse pages
  // already faulted in, so host timings measure the simulator's own work
  // and not the kernel's page-fault path, whose cost swings widely on a
  // shared host. The heap then grows past a one-shot run's peak, so peak
  // RSS is read after the cold repetition.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const harness::Flags flags(argc, argv);
  if (!flags.unknown({"workload", "seed", "seconds", "trace"}).empty()) {
    return usage();
  }
  const std::string workload = flags.get("workload");
  const std::int64_t seed_arg = flags.get_int("seed", -1);
  const std::int64_t seconds = flags.get_int("seconds", 0);
  const std::string trace_arg = flags.get("trace", "0");
  if ((workload != "paper_mix" && workload != "fleet" &&
       workload != "planes") ||
      seed_arg < 0 || seconds < 1 || (trace_arg != "0" && trace_arg != "1")) {
    return usage();
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const bool traced = trace_arg == "1";

  ClusterScenario sc;
  if (workload == "fleet") {
    sc = {kFleetNodes, kFleetRequests, "round-robin", false};
  } else if (workload == "planes") {
    sc = {kPlanesNodes, kPlanesRequests, "vres-aware", true};
  }
  auto run_once = [&](bool with_trace) {
    return workload == "paper_mix" ? run_paper_mix(seed, with_trace)
                                   : run_cluster(sc, seed, with_trace);
  };

  const Rep cold = run_once(false);
  std::vector<std::string> errors = cold.errors;
  if (workload == "paper_mix") {
    const std::vector<std::string> v = verify_paper_mix(seed);
    errors.insert(errors.end(), v.begin(), v.end());
  }

  // A traced repetition can cost tens of untraced ones (planes: ~25x), so
  // the traced run asks for one repetition at least, not kMinReps.
  // Each timed repetition sits between two reference-kernel runs, whose
  // mean gives its host speed.
  std::vector<double> ref_s = {reference_kernel_s()};
  auto run_timed = [&](bool with_trace) {
    Rep r = run_once(with_trace);
    ref_s.push_back(reference_kernel_s());
    r.speed = 2.0 * kRefKernelS / (ref_s[ref_s.size() - 2] + ref_s.back());
    return r;
  };
  std::vector<Rep> reps;
  Rep untraced;
  if (traced) untraced = run_timed(false);
  const int min_reps = traced ? 1 : kMinReps;
  // Stop before a repetition as long as the last one would overrun.
  const double start = now_s();
  double last_s = 0.0;
  while (static_cast<int>(reps.size()) < min_reps ||
         now_s() - start + last_s < static_cast<double>(seconds)) {
    const double t = now_s();
    reps.push_back(run_timed(traced));
    last_s = now_s() - t;
  }

  const Rep& first = reps.front();
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Rep& r : reps) {
    for (const std::string& e : r.errors) errors.push_back(e);
    if (r.digest != first.digest) {
      errors.push_back("simulated outcome differs between repetitions");
    }
    attempted += r.offered;
    failed += r.failed;
  }
  if (cold.digest != first.digest) {
    errors.push_back("simulated outcome differs between repetitions");
  }
  if (traced && untraced.digest != first.digest) {
    errors.push_back("traced and untraced runs simulate different outcomes");
  }
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());

  // Host times: the median over repetitions, each in reference seconds.
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r) * r.speed);
    return median(v);
  };
  const double run_s = med([](const Rep& r) { return r.run_s; });

  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  if (!traced) {
    const double p50 = pct(first.latency_us, 50);
    const double p99 = pct(first.latency_us, 99);
    out = {
        {"host_wall_s", {run_s, "s"}},
        {"setup_s", {med([](const Rep& r) { return r.setup_s; }), "s"}},
        {"host_peak_rss_mb", {cold.cpu.max_rss_mb, "MB"}},
        {"sim_tasks_per_s",
         {ratio(static_cast<double>(first.completed), first.sim_seconds),
          "1/s"}},
        {"sim_latency_p50_us", {p50, "us"}},
        {"sim_latency_p99_us", {p99, "us"}},
        {"sim_occupancy",
         {ratio(first.busy_warp_seconds, first.warp_seconds), "fraction"}},
        {"served_frac",
         {ratio(static_cast<double>(first.completed),
                static_cast<double>(first.offered)),
          "fraction"}},
        {"slo_met_frac",
         {ratio(static_cast<double>(first.slo_met),
                static_cast<double>(first.offered)),
          "fraction"}},
    };
  } else {
    std::map<std::string, double> layer;
    // Simulated layer values repeat exactly; host ones are medians.
    for (const auto& [k, v] : first.layer) layer[k] = v;
    layer["sim.run_s"] = run_s;
    layer["sim.host_us_per_task"] =
        ratio(run_s * 1e6, static_cast<double>(first.offered));
    // What a one-shot run pays: the cold repetition, untraced.
    layer["host.cpu_user_s"] = cold.cpu.user_s;
    layer["host.cpu_sys_s"] = cold.cpu.sys_s;
    layer["host.minor_faults"] = cold.cpu.minor_faults;
    layer["workloads.generate_s"] =
        med([](const Rep& r) { return r.generate_s; });
    layer["engine.build_s"] = med([](const Rep& r) { return r.build_s; });
    layer["cluster.offer_us"] = med([](const Rep& r) {
      return ratio(r.offer_s * 1e6, static_cast<double>(r.offers));
    });
    layer["cluster.pick_ns"] = med([](const Rep& r) {
      return ratio(r.pick_s * 1e9, static_cast<double>(r.picks));
    });
    layer["host.ref_kernel_s"] = median(ref_s);
    layer["obs.trace_overhead_x"] =
        ratio(run_s, untraced.run_s * untraced.speed);
    layer["obs.export_s"] = med([](const Rep& r) { return r.export_s; });
    for (const auto& [name, unit] : layer_metric_names()) {
      const auto it = layer.find(name);
      out.push_back({name, {it == layer.end() ? 0.0 : it->second, unit}});
    }
  }

  // Human-readable lines first, the JSON object last.
  std::printf("workload %s seed %" PRIu64 " trace %d reps %zu\n",
              workload.c_str(), seed, traced ? 1 : 0, reps.size());
  std::printf("digest %016" PRIx64 " completed %" PRId64
              " virtual_end_s %.9g latency_samples %zu\n",
              first.digest, first.completed, first.sim_seconds,
              first.latency_us.size());
  if (!first.summary.empty()) std::printf("%s\n", first.summary.c_str());
  std::printf("per-rep host run_s/setup_s/speed:");
  for (const Rep& r : reps) {
    std::printf(" %.4f/%.4f/%.3f", r.run_s, r.setup_s, r.speed);
  }
  std::printf("\n");
  for (const std::string& e : errors) std::printf("check failed: %s\n", e.c_str());
  for (const auto& [name, vu] : out) {
    std::printf("%-36s %18.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"digest\": \"%016" PRIx64
              "\", \"reps\": %zu, \"latency_samples\": %zu, \"metrics\": {",
              errors.empty() ? "true" : "false", attempted, failed,
              first.digest, reps.size(), first.latency_us.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].first.c_str(),
                json_number(out[i].second.first).c_str(),
                out[i].second.second.c_str());
  }
  std::printf("}}\n");
  return 0;
}
