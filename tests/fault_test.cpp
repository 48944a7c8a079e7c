// Fault plane tests: plan parsing, deterministic backoff, the watchdog state
// machine, node crash/recovery and the drain/reinstate lifecycle — plus a
// chaos soak that replays randomized fault plans over many seeds and pins the
// layer's exactly-once invariants.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "closure_events.h"
#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/open_loop.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "common/rng.h"
#include "fault/plan.h"
#include "fault/retry.h"
#include "fault/watchdog.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace pagoda::fault {
namespace {

// --- plan parsing -------------------------------------------------------------

TEST(FaultPlan, EmptySpecDisablesEverything) {
  std::string err;
  const auto plan = FaultPlan::parse("", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_FALSE(plan->enabled());
  EXPECT_FALSE(plan->needs_deadline());
  // A disabled plan must never inject, whatever the key.
  for (std::uint64_t uid = 0; uid < 100; ++uid) {
    EXPECT_FALSE(plan->task_fails(uid, 1));
    EXPECT_FALSE(plan->wedges(uid, 1));
    EXPECT_FALSE(plan->transfer_corrupts(0, uid));
  }
}

TEST(FaultPlan, FullSpecRoundTrips) {
  std::string err;
  const auto plan = FaultPlan::parse(
      "task:0.05,xfer:0.1,wedge:0.01,crash:1:2000:3000,"
      "degrade:500:1000:0.25:0,seed:42",
      &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_TRUE(plan->enabled());
  EXPECT_TRUE(plan->needs_deadline());
  EXPECT_DOUBLE_EQ(plan->task_fault_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan->transfer_fault_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan->wedge_rate, 0.01);
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_EQ(plan->crashes[0].node, 1);
  EXPECT_EQ(plan->crashes[0].at, sim::microseconds(2000.0));
  EXPECT_TRUE(plan->crashes[0].recovers);
  EXPECT_EQ(plan->crashes[0].recover_after, sim::microseconds(3000.0));
  ASSERT_EQ(plan->degrades.size(), 1u);
  EXPECT_EQ(plan->degrades[0].at, sim::microseconds(500.0));
  EXPECT_EQ(plan->degrades[0].duration, sim::microseconds(1000.0));
  EXPECT_DOUBLE_EQ(plan->degrades[0].factor, 0.25);
  EXPECT_EQ(plan->degrades[0].node, 0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus:1",          // unknown kind
      "task",             // missing rate
      "task:1.5",         // rate out of [0,1]
      "task:-0.1",        // negative rate
      "task:0.1x",        // trailing garbage
      "crash:0",          // missing time
      "crash:0:-5",       // negative time
      "crash:0:100:0",    // recovery must be > 0
      "degrade:0:0:0.5",  // zero duration
      "degrade:0:10:0",   // factor must be in (0,1]
      "degrade:0:10:2",   // factor > 1
      "seed:abc",         // non-numeric
      "task:nan",         // non-finite rate
      "xfer:inf",         // non-finite rate
      "crash:0:inf",      // non-finite time
      "degrade:1:1:nan",  // non-finite factor
      "degrade:1:inf:0.5",  // non-finite duration
      ",",                // empty item
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(spec, &err).has_value()) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(FaultPlan, DecisionsArePureAndRateShaped) {
  std::string err;
  const auto plan = FaultPlan::parse("task:0.2,seed:7", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  int hits = 0;
  constexpr int kN = 20000;
  for (std::uint64_t uid = 0; uid < kN; ++uid) {
    const bool a = plan->task_fails(uid, 1);
    EXPECT_EQ(a, plan->task_fails(uid, 1));  // pure: same key, same verdict
    if (a) ++hits;
  }
  const double rate = static_cast<double>(hits) / kN;
  EXPECT_NEAR(rate, 0.2, 0.02);
  // Different salts decorrelate the channels: a task fault for a key says
  // nothing about a wedge for the same key.
  const auto wedgy = FaultPlan::parse("wedge:0.2,seed:7", &err);
  ASSERT_TRUE(wedgy.has_value());
  int both = 0;
  for (std::uint64_t uid = 0; uid < kN; ++uid) {
    if (plan->task_fails(uid, 1) && wedgy->wedges(uid, 1)) ++both;
  }
  EXPECT_NEAR(static_cast<double>(both) / kN, 0.04, 0.02);
}

// --- backoff ------------------------------------------------------------------

TEST(RetryBackoff, DeterministicGrowthWithCapAndJitter) {
  RetryConfig cfg;
  cfg.seed = 99;
  double prev_nominal = 0.0;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const sim::Duration d = backoff(cfg, 17, attempt);
    EXPECT_EQ(d, backoff(cfg, 17, attempt));  // pure
    // Jitter scales the nominal by (1-jitter, 1]: bound both sides.
    double nominal = static_cast<double>(cfg.base);
    for (int i = 1; i < attempt; ++i) nominal *= cfg.multiplier;
    if (nominal > static_cast<double>(cfg.max))
      nominal = static_cast<double>(cfg.max);
    EXPECT_LE(static_cast<double>(d), nominal);
    EXPECT_GT(static_cast<double>(d), nominal * (1.0 - cfg.jitter));
    prev_nominal = nominal;
  }
  // Attempt 10 nominal hit the cap.
  EXPECT_EQ(prev_nominal, static_cast<double>(cfg.max));
  // Different uids de-synchronize (the thundering-herd fix).
  EXPECT_NE(backoff(cfg, 17, 2), backoff(cfg, 18, 2));
}

TEST(RetryBackoff, ZeroJitterIsExactExponential) {
  RetryConfig cfg;
  cfg.jitter = 0.0;
  EXPECT_EQ(backoff(cfg, 0, 1), cfg.base);
  EXPECT_EQ(backoff(cfg, 0, 2), cfg.base * 2);
  EXPECT_EQ(backoff(cfg, 0, 3), cfg.base * 4);
  EXPECT_EQ(backoff(cfg, 0, 20), cfg.max);
}

// --- watchdog state machine ---------------------------------------------------

TEST(Watchdog, FrozenSignatureWithWorkDiesExactlyOnce) {
  WatchdogConfig cfg;
  cfg.miss_threshold = 3;
  Watchdog wd(cfg, 2);
  const NodeSig frozen{100, 50};
  EXPECT_FALSE(wd.observe(0, frozen, true));  // first sight: baseline
  EXPECT_FALSE(wd.observe(0, frozen, true));  // miss 1
  EXPECT_FALSE(wd.observe(0, frozen, true));  // miss 2
  EXPECT_TRUE(wd.observe(0, frozen, true));   // miss 3: the one transition
  EXPECT_TRUE(wd.dead(0));
  EXPECT_FALSE(wd.observe(0, frozen, true));  // already dead: no re-report
  EXPECT_EQ(wd.deaths_detected(), 1);
  EXPECT_FALSE(wd.dead(1));  // the other node is untouched
}

TEST(Watchdog, ProgressOrIdlenessResetsMisses) {
  Watchdog wd({}, 1);
  NodeSig sig{1, 0};
  EXPECT_FALSE(wd.observe(0, sig, true));
  EXPECT_FALSE(wd.observe(0, sig, true));  // miss 1
  sig.heartbeat += 1;                      // progress
  EXPECT_FALSE(wd.observe(0, sig, true));
  EXPECT_EQ(wd.misses(0), 0);
  // A frozen but idle node is healthy — idleness is not death.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(wd.observe(0, sig, false));
  EXPECT_EQ(wd.misses(0), 0);
  EXPECT_FALSE(wd.dead(0));
}

TEST(Watchdog, ResetRevivesADeadNode) {
  WatchdogConfig cfg;
  cfg.miss_threshold = 1;
  Watchdog wd(cfg, 1);
  const NodeSig frozen{5, 5};
  EXPECT_FALSE(wd.observe(0, frozen, true));
  EXPECT_TRUE(wd.observe(0, frozen, true));
  wd.reset(0);
  EXPECT_FALSE(wd.dead(0));
  EXPECT_EQ(wd.misses(0), 0);
  // It can die again after revival (a second crash is a second death).
  EXPECT_FALSE(wd.observe(0, frozen, true));
  EXPECT_TRUE(wd.observe(0, frozen, true));
  EXPECT_EQ(wd.deaths_detected(), 2);
}

}  // namespace
}  // namespace pagoda::fault

namespace pagoda::cluster {
namespace {

// --- cluster-level fault runs -------------------------------------------------

struct FaultRunSpec {
  int nodes = 2;
  std::string policy = "least-loaded";
  int requests = 64;
  std::uint64_t seed = 0xC0FFEE;
  double arrival_rate = 300.0e3;
  std::string faults;  // FaultPlan spec ("" = fault plane off)
  sim::Duration task_timeout = 0;
  int retry_budget = 3;
  sim::Duration slo = sim::milliseconds(20.0);
  /// Administrative actions applied at virtual times (drain/reinstate).
  std::vector<std::pair<sim::Time, int>> drains;
  std::vector<std::pair<sim::Time, int>> reinstates;
};

struct FaultRunOutput {
  Dispatcher::Stats stats;
  std::vector<int> placements;
  std::vector<std::int64_t> per_node_completed;
  std::vector<std::int64_t> free_slots;
  std::vector<int> capacity;
  std::string metrics_json;
  bool done = false;
  sim::Time end_time = 0;
};

FaultRunOutput run_fault_cluster(const FaultRunSpec& rs) {
  sim::Closures fn;
  DispatcherConfig dc;
  std::string err;
  const auto plan = fault::FaultPlan::parse(rs.faults, &err);
  EXPECT_TRUE(plan.has_value()) << rs.faults << ": " << err;
  dc.faults = *plan;
  if (dc.faults.seed == 0) dc.faults.seed = rs.seed;
  dc.retry.seed = dc.faults.seed;
  dc.retry.budget = rs.retry_budget;
  dc.task_timeout = rs.task_timeout;
  dc.watchdog.probe_period = sim::microseconds(100.0);
  const std::vector<NodeConfig> nodes(static_cast<std::size_t>(rs.nodes));
  OpenLoopRunner runner(nodes, make_policy(rs.policy), dc);
  Dispatcher& disp = runner.dispatcher();
  for (const auto& [t, node] : rs.drains) {
    runner.sim().at(t, fn([&disp, node = node] { disp.drain_node(node); }));
  }
  for (const auto& [t, node] : rs.reinstates) {
    runner.sim().at(t,
                    fn([&disp, node = node] { disp.reinstate_node(node); }));
  }
  ArrivalSource src;
  src.arrival.kind = ArrivalKind::Poisson;
  src.arrival.rate_per_sec = rs.arrival_rate;
  src.seed = rs.seed;
  src.requests = rs.requests;
  RequestProfile profile;
  profile.slo = rs.slo;
  src.make = [&](int i) { return synth_request(profile, rs.seed, i); };
  runner.run(std::move(src), sim::seconds(60.0));

  FaultRunOutput out;
  out.done = runner.done();
  out.end_time = runner.end_time();
  out.stats = disp.stats();
  out.placements = disp.placements();
  for (int i = 0; i < runner.fleet().size(); ++i) {
    out.per_node_completed.push_back(runner.fleet().node(i).completed());
    out.free_slots.push_back(disp.free_slots(i));
    out.capacity.push_back(runner.fleet().node(i).capacity());
  }
  obs::MetricsRegistry m;
  disp.export_metrics(m);
  std::ostringstream os;
  m.write_json(os);
  out.metrics_json = os.str();
  return out;
}

/// The invariants every fault run must satisfy, whatever the plan:
/// exactly-once resolution and exactly-once slot accounting.
void expect_invariants(const FaultRunOutput& out, const char* what) {
  ASSERT_TRUE(out.done) << what;
  EXPECT_EQ(out.stats.offered, out.stats.admitted + out.stats.dropped) << what;
  EXPECT_EQ(out.stats.completed + out.stats.shed, out.stats.admitted) << what;
  EXPECT_EQ(out.stats.slot_releases, out.stats.admitted) << what;
  // Every slot grant was returned: each node's semaphore is back at its full
  // TaskTable capacity, dead or alive (death recovery releases the sweep).
  for (std::size_t i = 0; i < out.free_slots.size(); ++i) {
    EXPECT_EQ(out.free_slots[i], out.capacity[i]) << what << " node " << i;
  }
}

TEST(FaultCluster, TaskFaultsAllRetriedToCompletion) {
  FaultRunSpec rs;
  rs.faults = "task:0.1";
  const FaultRunOutput out = run_fault_cluster(rs);
  expect_invariants(out, "task faults");
  EXPECT_GT(out.stats.injected_task_faults, 0);
  EXPECT_EQ(out.stats.retries, out.stats.injected_task_faults);
  EXPECT_EQ(out.stats.shed, 0);  // budget 3 absorbs a 10% fault rate
  EXPECT_EQ(out.stats.completed, out.stats.admitted);
  // Retried attempts claim fresh slots: acquires outnumber request releases.
  EXPECT_EQ(out.stats.slot_acquires,
            out.stats.slot_releases + out.stats.retries);
}

TEST(FaultCluster, ZeroBudgetShedsEveryFault) {
  FaultRunSpec rs;
  rs.faults = "task:0.15";
  rs.retry_budget = 0;
  const FaultRunOutput out = run_fault_cluster(rs);
  expect_invariants(out, "no retries");
  EXPECT_GT(out.stats.injected_task_faults, 0);
  EXPECT_EQ(out.stats.retries, 0);
  EXPECT_EQ(out.stats.shed, out.stats.injected_task_faults);
  // Shed requests carry an SLO, so every shed is charged as a violation.
  EXPECT_GE(out.stats.slo_violations, out.stats.shed);
}

TEST(FaultCluster, WedgesRecoverViaDeadline) {
  FaultRunSpec rs;
  rs.faults = "wedge:0.08";
  rs.task_timeout = sim::microseconds(1500.0);
  const FaultRunOutput out = run_fault_cluster(rs);
  expect_invariants(out, "wedges");
  EXPECT_GT(out.stats.injected_wedges, 0);
  // Every wedge is invisible until its deadline fires.
  EXPECT_EQ(out.stats.detected_timeouts, out.stats.injected_wedges);
  EXPECT_EQ(out.stats.completed, out.stats.admitted);
}

TEST(FaultCluster, CrashDetectedRecoveredAndNothingLost) {
  FaultRunSpec rs;
  rs.requests = 128;
  rs.arrival_rate = 150.0e3;
  rs.faults = "crash:1:200:400";
  rs.task_timeout = sim::microseconds(1500.0);
  const FaultRunOutput out = run_fault_cluster(rs);
  expect_invariants(out, "crash+recover");
  EXPECT_EQ(out.stats.injected_crashes, 1);
  EXPECT_EQ(out.stats.detected_node_deaths, 1);
  EXPECT_EQ(out.stats.nodes_recovered, 1);
  EXPECT_EQ(out.stats.completed, out.stats.admitted);
  // The recovered node serves again after reinstatement.
  EXPECT_GT(out.per_node_completed[1], 0);
}

TEST(FaultCluster, CrashWithoutRecoveryStillResolvesEverything) {
  FaultRunSpec rs;
  rs.requests = 128;
  rs.arrival_rate = 150.0e3;
  rs.faults = "crash:0:200";
  rs.task_timeout = sim::microseconds(1500.0);
  const FaultRunOutput out = run_fault_cluster(rs);
  expect_invariants(out, "crash, no recovery");
  EXPECT_EQ(out.stats.detected_node_deaths, 1);
  EXPECT_EQ(out.stats.nodes_recovered, 0);
  // The death sweep found the dead node's in-flight records (allocated at
  // spawn, freed as they resolve) and the survivor picked up their work.
  EXPECT_GT(out.stats.redispatched, 0);
  EXPECT_GT(out.per_node_completed[1], 0);
}

TEST(FaultCluster, DrainReinstateLifecycle) {
  // Draining node 0 before traffic starts steers everything to node 1.
  FaultRunSpec rs;
  rs.policy = "round-robin";
  rs.drains = {{0, 0}};
  const FaultRunOutput drained = run_fault_cluster(rs);
  expect_invariants(drained, "drained");
  EXPECT_EQ(drained.per_node_completed[0], 0);
  for (const int p : drained.placements) EXPECT_EQ(p, 1);

  // Reinstating mid-run returns the node to rotation.
  rs.reinstates = {{sim::microseconds(50.0), 0}};
  const FaultRunOutput back = run_fault_cluster(rs);
  expect_invariants(back, "reinstated");
  EXPECT_GT(back.per_node_completed[0], 0);
}

TEST(FaultCluster, ArmedButEmptyPlanInjectsNothing) {
  // A task deadline arms the machinery without any injection source: the
  // run must complete fault-free with every fault counter at zero.
  FaultRunSpec rs;
  rs.task_timeout = sim::milliseconds(50.0);
  const FaultRunOutput out = run_fault_cluster(rs);
  expect_invariants(out, "armed, empty");
  EXPECT_EQ(out.stats.injected_task_faults, 0);
  EXPECT_EQ(out.stats.detected_timeouts, 0);
  EXPECT_EQ(out.stats.retries + out.stats.shed, 0);
  EXPECT_NE(out.metrics_json.find("fault.injected.task_faults"),
            std::string::npos);
}

// --- determinism --------------------------------------------------------------

TEST(FaultDeterminism, SameSeedAndPlanIsByteIdentical) {
  // The headline contract: same seed + same plan -> byte-identical metrics
  // across two independent runs, backoff timings included (the latency
  // histogram in the JSON would differ if any retry fired at another time).
  FaultRunSpec rs;
  rs.faults = "task:0.3,wedge:0.05,xfer:0.1,crash:1:300:500";
  rs.task_timeout = sim::microseconds(1500.0);
  rs.requests = 96;
  const FaultRunOutput a = run_fault_cluster(rs);
  const FaultRunOutput b = run_fault_cluster(rs);
  expect_invariants(a, "run a");
  expect_invariants(b, "run b");
  EXPECT_GT(a.stats.retries, 0);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(FaultDeterminism, PlanSeedChangesTheFaultSet) {
  FaultRunSpec rs;
  rs.faults = "task:0.3,seed:1";
  const FaultRunOutput a = run_fault_cluster(rs);
  rs.faults = "task:0.3,seed:2";
  const FaultRunOutput b = run_fault_cluster(rs);
  expect_invariants(a, "seed 1");
  expect_invariants(b, "seed 2");
  EXPECT_NE(a.metrics_json, b.metrics_json);
}

// --- chaos soak ---------------------------------------------------------------

TEST(FaultChaos, FiftySeedSoakHoldsEveryInvariant) {
  // Randomized plans over 50 seeds: rates, crash node, crash timing and
  // recovery all derived from the seed. Whatever combination comes up, the
  // exactly-once invariants must hold and the run must be reproducible.
  for (int s = 0; s < 50; ++s) {
    const std::uint64_t seed = 0xC0FFEE + static_cast<std::uint64_t>(s);
    const double task_rate =
        static_cast<double>(hash_index(seed, 1) % 30) / 100.0;    // [0, 0.30)
    const double wedge_rate =
        static_cast<double>(hash_index(seed, 2) % 6) / 100.0;     // [0, 0.06)
    const double xfer_rate =
        static_cast<double>(hash_index(seed, 3) % 10) / 100.0;    // [0, 0.10)
    const int crash_node = static_cast<int>(hash_index(seed, 4) % 2);
    const bool crash = (hash_index(seed, 5) % 4) != 0;   // 3 in 4 runs crash
    const bool recover = (hash_index(seed, 6) % 2) != 0;
    std::ostringstream spec;
    spec << "task:" << task_rate << ",wedge:" << wedge_rate
         << ",xfer:" << xfer_rate;
    if (crash) {
      spec << ",crash:" << crash_node << ":"
           << 100 + hash_index(seed, 7) % 400;
      if (recover) spec << ":" << 300 + hash_index(seed, 8) % 300;
    }
    FaultRunSpec rs;
    rs.seed = seed;
    rs.faults = spec.str();
    rs.task_timeout = sim::microseconds(1500.0);
    rs.retry_budget = static_cast<int>(hash_index(seed, 9) % 4);  // 0..3
    const FaultRunOutput out = run_fault_cluster(rs);
    expect_invariants(out, rs.faults.c_str());
    // Reproducibility spot-check on a slice of the soak (a full double run
    // of all 50 seeds would double the test's wall time for little gain).
    if (s % 10 == 0) {
      const FaultRunOutput again = run_fault_cluster(rs);
      EXPECT_EQ(out.metrics_json, again.metrics_json) << rs.faults;
      EXPECT_EQ(out.end_time, again.end_time) << rs.faults;
    }
  }
}

// A PCIe-bound node is busy, not dead. On this run both nodes' TaskTable
// entry copies queue behind input copies for the whole run: the
// MasterKernel heartbeat and completion count hold still across several
// probes while the H2D link keeps landing transfers. Nothing is injected,
// so the watchdog must declare no death and every request must complete.
TEST(FaultCluster, PcieBoundNodeIsNotDeclaredDead) {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 512;
  wcfg.seed = 0x9A60DA;
  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.mode = gpu::ExecMode::Model;
  rcfg.cluster.specs = {gpu::GpuSpec::titan_x(), gpu::GpuSpec::titan_x()};
  rcfg.cluster.dispatcher.task_timeout = sim::microseconds(4000.0);
  rcfg.cluster.seed = wcfg.seed;
  obs::Collector collector(obs::CollectorConfig{});
  rcfg.collector = &collector;
  harness::Measurement m =
      harness::run_experiment("DCT", "Cluster", wcfg, rcfg);
  EXPECT_EQ(m.metrics.counter("cluster.requests.completed").value(), 512);
  EXPECT_EQ(m.metrics.counter("fault.detected.node_deaths").value(), 0);
  EXPECT_EQ(m.metrics.counter("fault.redispatched").value(), 0);
}

// A crash swallows completions, so the crashed node's records stay tracked
// until their deadlines. Oversubscribed, the dispatcher grants more slots
// than the TaskTable has entries, so a new spawn can land in an entry whose
// swallowed record is still tracked, before or after the node recovers. The
// stale record waits out its deadline with the wedged attempts, and the run
// resolves every request.
TEST(FaultCluster, OversubscribedSpawnReusesASwallowedEntry) {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 1024;
  wcfg.seed = 0x9A60DA;
  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.mode = gpu::ExecMode::Model;
  rcfg.pagoda.rows_per_column = 3;
  rcfg.pagoda.oversub = 4.0;
  rcfg.cluster.specs = {gpu::GpuSpec::titan_x(), gpu::GpuSpec::titan_x(),
                        gpu::GpuSpec::titan_x()};
  const auto arrival = ArrivalConfig::parse("poisson:3e6");
  ASSERT_TRUE(arrival.has_value());
  rcfg.cluster.arrival = *arrival;
  std::string err;
  const auto plan =
      fault::FaultPlan::parse("crash:1:150:200,task:0.02", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  rcfg.cluster.dispatcher.faults = *plan;
  rcfg.cluster.dispatcher.task_timeout = sim::microseconds(1500.0);
  rcfg.cluster.seed = wcfg.seed;
  obs::Collector collector(obs::CollectorConfig{});
  rcfg.collector = &collector;
  const harness::Measurement m =
      harness::run_experiment("MM", "Cluster", wcfg, rcfg);
  const obs::MetricsRegistry& r = m.metrics;
  EXPECT_EQ(r.counter_value("fault.injected.crashes"), 1);
  EXPECT_EQ(r.counter_value("fault.nodes.recovered"), 1);
  EXPECT_GT(r.counter_value("fault.detected.timeouts"), 0);
  EXPECT_EQ(r.counter_value("cluster.requests.admitted"), 1024);
  EXPECT_EQ(r.counter_value("cluster.requests.completed") +
                r.counter_value("cluster.requests.shed"),
            r.counter_value("cluster.requests.admitted"));
}

// --- end-to-end compute verification -------------------------------------------

TEST(FaultCompute, RetriedTasksVerifyAgainstCpuReferences) {
  // Compute mode executes real kernels and run_experiment() CHECKs every
  // output against the workload's CPU reference — so a surviving run proves
  // retried/redispatched tasks produced correct bytes, not just completions.
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 96;
  wcfg.threads_per_task = 64;
  baselines::RunConfig rcfg;
  rcfg.mode = gpu::ExecMode::Compute;
  rcfg.cluster.specs = {gpu::GpuSpec::titan_x(), gpu::GpuSpec::titan_x()};
  rcfg.cluster.policy = "least-loaded";
  rcfg.cluster.dispatcher.faults.task_fault_rate = 0.15;
  rcfg.cluster.dispatcher.faults.transfer_fault_rate = 0.1;
  rcfg.cluster.dispatcher.task_timeout = sim::microseconds(3000.0);
  rcfg.cluster.seed = wcfg.seed;
  const harness::Measurement m =
      harness::run_experiment("MM", "Cluster", wcfg, rcfg);
  EXPECT_EQ(m.result.tasks, wcfg.num_tasks);
}

}  // namespace
}  // namespace pagoda::cluster
