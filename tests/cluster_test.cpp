// Cluster serving layer tests: placement determinism, SLO/drop accounting
// under constructed overload, exactly-once backpressure release, and
// heterogeneous-spec clusters (parameterized so nothing hard-codes Titan X).
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/open_loop.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "obs/metrics.h"
#include "power/power_spec.h"
#include "sched/policy.h"
#include "sim/process.h"

namespace pagoda::cluster {
namespace {

gpu::GpuSpec spec_by_name(const std::string& name) {
  if (name == "k40") return gpu::GpuSpec::tesla_k40();
  return gpu::GpuSpec::titan_x();
}

struct RunSpec {
  std::vector<std::string> nodes = {"titan_x", "titan_x"};
  std::string policy = "round-robin";
  ArrivalConfig arrival{};
  RequestProfile profile{};
  int requests = 64;
  std::uint64_t seed = 0xC0FFEE;
  int queue_limit = 0;
  /// >0: shrink every node to this many SMMs (tiny TaskTables, so overload
  /// tests can exhaust the per-node slots with few requests).
  int num_smms = 0;
  /// QoS scheduling policy, applied end-to-end (dispatcher + nodes).
  sched::PolicyConfig sched{};
  /// Arm per-class sched.* metric export even under fifo.
  bool qos = false;
  /// Cycle request classes interactive/standard/batch by index so every
  /// class carries traffic.
  bool cycle_classes = false;
};

struct RunOutput {
  Dispatcher::Stats stats;
  std::array<Dispatcher::ClassStats, sched::kNumClasses> cls{};
  std::vector<int> placements;
  std::vector<std::int64_t> per_node_completed;
  std::string metrics_json;
  bool done = false;
  sim::Time end_time = 0;
};

RunOutput run_cluster(const RunSpec& rs) {
  std::vector<NodeConfig> nodes;
  for (const std::string& name : rs.nodes) {
    NodeConfig nc;
    nc.spec = spec_by_name(name);
    if (rs.num_smms > 0) nc.spec.num_smms = rs.num_smms;
    nc.pagoda.sched = rs.sched;
    nodes.push_back(nc);
  }
  DispatcherConfig dc;
  dc.queue_limit = rs.queue_limit;
  dc.sched = rs.sched;
  dc.qos = rs.qos;
  OpenLoopRunner runner(nodes, make_policy(rs.policy), dc);
  runner.run({rs.arrival, rs.seed, rs.requests,
              [&rs](int i) {
                Request r = synth_request(rs.profile, rs.seed, i);
                if (rs.cycle_classes) {
                  r.cls = static_cast<sched::Class>(i % sched::kNumClasses);
                }
                return r;
              }},
             sim::seconds(60.0));

  const Dispatcher& disp = runner.dispatcher();
  RunOutput out;
  out.done = runner.done();
  out.end_time = runner.end_time();
  out.stats = disp.stats();
  for (int c = 0; c < sched::kNumClasses; ++c) {
    out.cls[static_cast<std::size_t>(c)] =
        disp.class_stats(static_cast<sched::Class>(c));
  }
  out.placements = disp.placements();
  for (int i = 0; i < runner.fleet().size(); ++i) {
    out.per_node_completed.push_back(runner.fleet().node(i).completed());
  }
  obs::MetricsRegistry m;
  disp.export_metrics(m);
  std::ostringstream os;
  m.write_json(os);
  out.metrics_json = os.str();
  return out;
}

RunSpec poisson_spec(const std::string& policy) {
  RunSpec rs;
  rs.policy = policy;
  rs.arrival.kind = ArrivalKind::Poisson;
  rs.arrival.rate_per_sec = 150.0e3;
  rs.profile.slo = sim::milliseconds(5.0);
  rs.profile.num_keys = 16;  // give data-affinity something to key on
  return rs;
}

// --- determinism --------------------------------------------------------------

TEST(ClusterDeterminism, SameSeedSamePlacementsAndMetrics) {
  // The determinism contract of the whole layer: a (config, seed) pair
  // replays the identical placement sequence and a byte-identical metrics
  // snapshot, for every policy.
  for (const std::string_view policy : all_policy_names()) {
    const RunSpec rs = poisson_spec(std::string(policy));
    const RunOutput a = run_cluster(rs);
    const RunOutput b = run_cluster(rs);
    ASSERT_TRUE(a.done) << policy;
    ASSERT_TRUE(b.done) << policy;
    EXPECT_EQ(a.placements, b.placements) << policy;
    EXPECT_EQ(a.metrics_json, b.metrics_json) << policy;
    EXPECT_EQ(a.end_time, b.end_time) << policy;
  }
}

TEST(ClusterDeterminism, SeedsChangeTheArrivalTrace) {
  RunSpec rs = poisson_spec("round-robin");
  const RunOutput a = run_cluster(rs);
  rs.seed += 1;
  const RunOutput b = run_cluster(rs);
  ASSERT_TRUE(a.done && b.done);
  EXPECT_NE(a.end_time, b.end_time);
}

// --- placement policies -------------------------------------------------------

TEST(ClusterPlacement, RoundRobinRotates) {
  RunSpec rs = poisson_spec("round-robin");
  rs.requests = 10;
  const RunOutput out = run_cluster(rs);
  ASSERT_TRUE(out.done);
  ASSERT_EQ(out.placements.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out.placements[static_cast<std::size_t>(i)], i % 2);
}

TEST(ClusterPlacement, DataAffinitySkipsRepeatCopies) {
  // 16 keys over 64 requests: after each key's first copy the node holds it
  // resident, so the affinity policy must skip most H2D input copies.
  const RunOutput affinity = run_cluster(poisson_spec("data-affinity"));
  const RunOutput rr = run_cluster(poisson_spec("round-robin"));
  ASSERT_TRUE(affinity.done && rr.done);
  EXPECT_GT(affinity.stats.affinity_hits, 0);
  EXPECT_LT(affinity.stats.h2d_bytes_copied, rr.stats.h2d_bytes_copied);
}

// --- SLO accounting and admission control -------------------------------------

TEST(ClusterSlo, OverloadProducesDropsAndViolations) {
  // Constructed overload: a tiny backlog bound with a far-too-fast arrival
  // stream. Drops must be deterministic, counted, and charged as SLO misses.
  RunSpec rs = poisson_spec("least-outstanding");
  rs.arrival.rate_per_sec = 5.0e6;
  rs.profile.compute_cycles = 200000.0;
  rs.profile.stall_cycles = 400000.0;
  rs.requests = 256;
  rs.queue_limit = 8;
  rs.num_smms = 1;  // 64 TaskTable slots per node, so overload really queues
  const RunOutput out = run_cluster(rs);
  ASSERT_TRUE(out.done);
  EXPECT_GT(out.stats.dropped, 0);
  EXPECT_EQ(out.stats.offered, out.stats.admitted + out.stats.dropped);
  EXPECT_EQ(out.stats.completed, out.stats.admitted);
  // Every drop carries the request's SLO, so it must be charged as a miss.
  EXPECT_GE(out.stats.slo_violations, out.stats.dropped);
}

TEST(ClusterSlo, ImpossibleDeadlineViolatesEverywhere) {
  RunSpec rs = poisson_spec("round-robin");
  rs.profile.slo = sim::microseconds(1.0);  // below any attainable latency
  const RunOutput out = run_cluster(rs);
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.stats.slo_violations, out.stats.offered);
}

TEST(ClusterBackpressure, SlotsReleasedExactlyOncePerAdmitted) {
  // The per-node slot semaphore must see exactly one release per admitted
  // request — double release would overcommit TaskTables, a missing one
  // would deadlock later runs.
  for (const std::string_view policy : all_policy_names()) {
    RunSpec rs = poisson_spec(std::string(policy));
    rs.requests = 128;
    const RunOutput out = run_cluster(rs);
    ASSERT_TRUE(out.done) << policy;
    EXPECT_EQ(out.stats.slot_releases, out.stats.admitted) << policy;
    EXPECT_EQ(out.stats.completed, out.stats.admitted) << policy;
  }
}

// --- heterogeneous clusters (cross_arch idiom) --------------------------------

class ClusterArch : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterArch, MixedFleetServesEverything) {
  RunSpec rs = poisson_spec("least-loaded");
  const std::string param = GetParam();
  if (param == "titan_x") {
    rs.nodes = {"titan_x", "titan_x"};
  } else if (param == "k40") {
    rs.nodes = {"k40", "k40"};
  } else {
    rs.nodes = {"titan_x", "k40"};
  }
  rs.requests = 96;
  const RunOutput out = run_cluster(rs);
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.stats.completed, out.stats.offered);
  // Load-aware placement must use the whole fleet, whatever its makeup.
  for (const std::int64_t c : out.per_node_completed) EXPECT_GT(c, 0);
}

INSTANTIATE_TEST_SUITE_P(Fleets, ClusterArch,
                         ::testing::Values("titan_x", "k40", "mixed"));

// --- QoS scheduling -----------------------------------------------------------

constexpr std::array<sched::PolicyKind, 4> kSchedKinds = {
    sched::PolicyKind::kFifo, sched::PolicyKind::kPriority,
    sched::PolicyKind::kEdf, sched::PolicyKind::kWfq};

TEST(ClusterQos, PerClassLedgerBalancesUnderEveryPolicy) {
  // The per-class exactly-once invariant: every admitted request of every
  // class releases its slot exactly once, as a completion or a shed —
  // whatever order the policy serves them in.
  for (const sched::PolicyKind kind : kSchedKinds) {
    RunSpec rs = poisson_spec("round-robin");
    rs.sched.kind = kind;
    rs.qos = true;
    rs.cycle_classes = true;
    rs.requests = 120;
    const RunOutput out = run_cluster(rs);
    ASSERT_TRUE(out.done) << sched::to_string(kind);
    std::int64_t admitted = 0;
    for (const Dispatcher::ClassStats& cs : out.cls) {
      EXPECT_EQ(cs.offered, cs.admitted + cs.dropped) << sched::to_string(kind);
      EXPECT_EQ(cs.slot_releases, cs.completed + cs.shed)
          << sched::to_string(kind);
      EXPECT_EQ(cs.slot_releases, cs.admitted) << sched::to_string(kind);
      EXPECT_GT(cs.offered, 0) << sched::to_string(kind);
      admitted += cs.admitted;
    }
    EXPECT_EQ(admitted, out.stats.admitted) << sched::to_string(kind);
  }
}

TEST(ClusterQos, LedgerHoldsUnderOverloadWithDropsAndEvictions) {
  // Overload with a tight backlog bound: fifo drops at the door; non-fifo
  // policies may additionally displace parked batch work (evictions). The
  // ledger must balance either way, and evictions are a subset of sheds.
  for (const sched::PolicyKind kind : kSchedKinds) {
    RunSpec rs = poisson_spec("least-outstanding");
    rs.sched.kind = kind;
    rs.qos = true;
    rs.cycle_classes = true;
    rs.arrival.rate_per_sec = 5.0e6;
    rs.profile.compute_cycles = 200000.0;
    rs.profile.stall_cycles = 400000.0;
    rs.requests = 256;
    rs.queue_limit = 8;
    rs.num_smms = 1;
    const RunOutput out = run_cluster(rs);
    ASSERT_TRUE(out.done) << sched::to_string(kind);
    EXPECT_GT(out.stats.dropped, 0) << sched::to_string(kind);
    for (const Dispatcher::ClassStats& cs : out.cls) {
      EXPECT_EQ(cs.offered, cs.admitted + cs.dropped) << sched::to_string(kind);
      EXPECT_EQ(cs.slot_releases, cs.completed + cs.shed)
          << sched::to_string(kind);
      EXPECT_EQ(cs.slot_releases, cs.admitted) << sched::to_string(kind);
      EXPECT_LE(cs.evicted, cs.shed) << sched::to_string(kind);
    }
    if (kind == sched::PolicyKind::kFifo) {
      EXPECT_EQ(out.stats.evicted, 0);
    }
  }
}

TEST(ClusterQos, SchedMetricsExportedOnlyWhenArmed) {
  RunSpec rs = poisson_spec("round-robin");
  rs.requests = 32;
  const RunOutput plain = run_cluster(rs);
  ASSERT_TRUE(plain.done);
  EXPECT_EQ(plain.metrics_json.find("sched."), std::string::npos)
      << "fifo without --qos must not grow the metrics snapshot";

  rs.qos = true;
  rs.cycle_classes = true;
  const RunOutput armed = run_cluster(rs);
  ASSERT_TRUE(armed.done);
  for (const char* key :
       {"sched.interactive.completed", "sched.standard.completed",
        "sched.batch.completed", "sched.interactive.latency.p99_us",
        "sched.evicted"}) {
    EXPECT_NE(armed.metrics_json.find(key), std::string::npos) << key;
  }
}

TEST(ClusterQos, NonFifoPoliciesAreDeterministic) {
  for (const sched::PolicyKind kind : kSchedKinds) {
    RunSpec rs = poisson_spec("least-loaded");
    rs.sched.kind = kind;
    rs.qos = true;
    rs.cycle_classes = true;
    const RunOutput a = run_cluster(rs);
    const RunOutput b = run_cluster(rs);
    ASSERT_TRUE(a.done && b.done) << sched::to_string(kind);
    EXPECT_EQ(a.placements, b.placements) << sched::to_string(kind);
    EXPECT_EQ(a.metrics_json, b.metrics_json) << sched::to_string(kind);
    EXPECT_EQ(a.end_time, b.end_time) << sched::to_string(kind);
  }
}

// --- configuration rules ------------------------------------------------------

TEST(DispatcherValidate, AcceptsValidConfigsAndNamesEachViolatedRule) {
  constexpr int kNodes = 2;
  EXPECT_EQ(Dispatcher::validate(DispatcherConfig{}, kNodes, "round-robin"),
            "");
  // A config with every prerequisite plane armed, for the elastic rules.
  const auto elastic = [] {
    DispatcherConfig dc;
    dc.migration.enabled = true;
    dc.power.spec = power::PowerSpec::default_spec();
    dc.autoscale.enabled = true;
    return dc;
  };
  struct Row {
    const char* rule;
    std::function<void(DispatcherConfig&)> edit;
    std::string_view policy;
    const char* message;  // "" = must be accepted
  };
  const std::vector<Row> rows = {
      {"oversub below 1", [](DispatcherConfig& dc) { dc.oversub = 0.5; },
       "round-robin", "oversub must be >= 1.0"},
      {"wedge plan, no deadline",
       [](DispatcherConfig& dc) { dc.faults.wedge_rate = 0.1; },
       "round-robin", "--task-timeout-us"},
      {"wedge plan with a deadline",
       [](DispatcherConfig& dc) {
         dc.faults.wedge_rate = 0.1;
         dc.task_timeout = sim::microseconds(2000.0);
       },
       "round-robin", ""},
      {"crash node past the fleet",
       [](DispatcherConfig& dc) {
         dc.faults.crashes.push_back({kNodes, 0, false, 0});
         dc.task_timeout = sim::microseconds(2000.0);
       },
       "round-robin", "crash targets node 2"},
      {"negative crash node",
       [](DispatcherConfig& dc) {
         dc.faults.crashes.push_back({-1, 0, false, 0});
         dc.task_timeout = sim::microseconds(2000.0);
       },
       "round-robin", "crash targets node -1"},
      {"degrade node past the fleet",
       [](DispatcherConfig& dc) {
         dc.faults.degrades.push_back({0, sim::microseconds(10.0), 0.5, 7});
       },
       "round-robin", "degrade targets node 7"},
      {"degrade of every node",
       [](DispatcherConfig& dc) {
         dc.faults.degrades.push_back({0, sim::microseconds(10.0), 0.5, -1});
       },
       "round-robin", ""},
      {"autoscale without migrate",
       [](DispatcherConfig& dc) { dc.autoscale.enabled = true; },
       "round-robin", "--migrate"},
      {"resize without power",
       [](DispatcherConfig& dc) {
         dc.migration.enabled = true;
         dc.autoscale.plan = {{sim::microseconds(100.0), 1}};
       },
       "round-robin", "--power"},
      {"autoscale with energy-min placement",
       [&](DispatcherConfig& dc) { dc = elastic(); }, "energy-min",
       "energy-min"},
      {"autoscale with sleep management",
       [&](DispatcherConfig& dc) {
         dc = elastic();
         dc.power.manage_sleep = true;
       },
       "least-outstanding", "energy-min"},
      {"autoscale MIN past the fleet",
       [&](DispatcherConfig& dc) {
         dc = elastic();
         dc.autoscale.min_nodes = kNodes + 1;
       },
       "least-outstanding", "MIN=3"},
      {"resize target past the fleet",
       [&](DispatcherConfig& dc) {
         dc = elastic();
         dc.autoscale.plan = {{sim::microseconds(100.0), 1},
                              {sim::microseconds(200.0), kNodes + 1}};
       },
       "least-outstanding", "--resize targets 3"},
      {"autoscale and resize within the fleet",
       [&](DispatcherConfig& dc) {
         dc = elastic();
         dc.autoscale.min_nodes = kNodes;
         dc.autoscale.plan = {{sim::microseconds(100.0), kNodes}};
       },
       "least-outstanding", ""},
      {"power cap without the power plane",
       [](DispatcherConfig& dc) { dc.power.cap_watts = 100.0; },
       "power-cap", "needs the power plane"},
      {"power cap without an enforcer",
       [](DispatcherConfig& dc) {
         dc.power.spec = power::PowerSpec::default_spec();
         dc.power.cap_watts = 100.0;
       },
       "least-loaded", "enforcer"},
      {"power cap enforced by the governor",
       [](DispatcherConfig& dc) {
         dc.power.spec = power::PowerSpec::default_spec();
         dc.power.governor = power::GovernorKind::kPowerCap;
         dc.power.cap_watts = 100.0;
       },
       "least-loaded", ""},
      {"power cap enforced by placement",
       [](DispatcherConfig& dc) {
         dc.power.spec = power::PowerSpec::default_spec();
         dc.power.cap_watts = 100.0;
       },
       "power-cap", ""},
  };
  for (const Row& row : rows) {
    DispatcherConfig dc;
    row.edit(dc);
    const std::string got = Dispatcher::validate(dc, kNodes, row.policy);
    if (row.message[0] == '\0') {
      EXPECT_EQ(got, "") << row.rule;
    } else {
      EXPECT_NE(got.find(row.message), std::string::npos)
          << row.rule << ": got '" << got << "'";
    }
  }
}

// --- data-affinity cache eviction order ---------------------------------------

TEST(ClusterCache, LruEvictsLeastRecentlyUsedNotOldestInsert) {
  sim::Simulation sim;
  NodeConfig nc;
  nc.cache_keys = 3;
  Cluster fleet(sim, {nc});
  GpuNode& n = fleet.node(0);
  n.cache_insert(1);
  n.cache_insert(2);
  n.cache_insert(3);
  // Touch 1: under FIFO eviction it would still die first; under LRU it is
  // now the most recently used and key 2 is the victim.
  n.cache_touch(1);
  n.cache_insert(4);
  EXPECT_TRUE(n.cache_contains(1));
  EXPECT_FALSE(n.cache_contains(2));
  EXPECT_TRUE(n.cache_contains(3));
  EXPECT_TRUE(n.cache_contains(4));
  // Reinserting a resident key promotes it instead of duplicating it.
  n.cache_insert(3);
  n.cache_insert(5);  // LRU order is now [1, 4, 3]: evicts 1
  EXPECT_FALSE(n.cache_contains(1));
  EXPECT_TRUE(n.cache_contains(4));
  // cache_contains is a pure read: probing 4 must not save it. Next victim
  // is still 4.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(n.cache_contains(4));
  n.cache_insert(6);
  EXPECT_FALSE(n.cache_contains(4));
  EXPECT_TRUE(n.cache_contains(3) && n.cache_contains(5) &&
              n.cache_contains(6));
  n.cache_clear();
  for (const std::uint64_t k : {3ull, 5ull, 6ull}) {
    EXPECT_FALSE(n.cache_contains(k));
  }
}

// --- traffic parsing ----------------------------------------------------------

TEST(ClusterTraffic, ArrivalSpecParsing) {
  EXPECT_TRUE(ArrivalConfig::parse("closed").has_value());
  const auto poisson = ArrivalConfig::parse("poisson:2500");
  ASSERT_TRUE(poisson.has_value());
  EXPECT_EQ(poisson->kind, ArrivalKind::Poisson);
  EXPECT_DOUBLE_EQ(poisson->rate_per_sec, 2500.0);
  const auto bursty = ArrivalConfig::parse("bursty:1e5:12");
  ASSERT_TRUE(bursty.has_value());
  EXPECT_EQ(bursty->kind, ArrivalKind::Bursty);
  EXPECT_DOUBLE_EQ(bursty->burst_factor, 12.0);

  EXPECT_FALSE(ArrivalConfig::parse("poisson").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("poisson:").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("poisson:-5").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("poisson:10:3").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:10:1").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:10x").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("sawtooth:10").has_value());
  // Non-finite numbers: NaN slips past `<= 0` range checks.
  EXPECT_FALSE(ArrivalConfig::parse("poisson:nan").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("poisson:inf").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:1000:nan").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:1000:inf").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:1000:4:nan").has_value());
  // Rates, factors and phase lengths whose largest exponential draw (about
  // 37x its mean) would overflow sim::Duration.
  EXPECT_FALSE(ArrivalConfig::parse("poisson:1e-300").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("poisson:1e-12").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("poisson:1e-6").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:1e-6:2").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:1000:1e300").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:1000:1e9").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:1e-6").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:1000:1e300").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:1000:1e12").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:1000:4:1e12").has_value());
  // The bounds sit far below any rate a run can finish: these still parse.
  EXPECT_TRUE(ArrivalConfig::parse("poisson:1e-3").has_value());
  EXPECT_TRUE(ArrivalConfig::parse("bursty:1000:1e6").has_value());
  EXPECT_TRUE(ArrivalConfig::parse("diurnal:1000:1e6:1e9").has_value());
  // Valid gaps, but phases far shorter than the gaps between arrivals:
  // next_gap() would end ~1e5 phases per draw (bursty: 1 + 1 / (rate x
  // factor x 200 us) steps; diurnal: 1 + 1 / (rate x ON_US)). Past 1e4
  // steps the spec is refused; just inside the bound it still parses.
  EXPECT_FALSE(ArrivalConfig::parse("bursty:1e-2:4").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:1e-3:4").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("bursty:0.1:4").has_value());
  EXPECT_TRUE(ArrivalConfig::parse("bursty:0.2:4").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:1e-3").has_value());
  EXPECT_FALSE(ArrivalConfig::parse("diurnal:10:4:1").has_value());
  EXPECT_TRUE(ArrivalConfig::parse("diurnal:1e-2").has_value());
  // A valid rate can still be too slow for a run: 32 requests at 1e-3/s
  // take 32000 s on average, past the 3600 s default time cap, so
  // pagoda_cli rejects the spec; at 1e-2/s they take 3200 s.
  EXPECT_DOUBLE_EQ(ArrivalConfig::parse("poisson:1e-3")->mean_span_s(32),
                   32000.0);
  EXPECT_DOUBLE_EQ(ArrivalConfig::parse("poisson:1e-2")->mean_span_s(32),
                   3200.0);
  EXPECT_DOUBLE_EQ(ArrivalConfig::parse("bursty:1:4")->mean_span_s(32),
                   32.0);
  EXPECT_DOUBLE_EQ(ArrivalConfig::parse("closed")->mean_span_s(32), 0.0);
}

TEST(ClusterTraffic, PoissonGapsMatchTheConfiguredRate) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::Poisson;
  cfg.rate_per_sec = 1.0e5;
  ArrivalSequence seq(cfg, 99);
  double total_s = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) total_s += sim::to_seconds(seq.next_gap());
  const double mean_gap_us = total_s / kN * 1e6;
  EXPECT_NEAR(mean_gap_us, 10.0, 0.5);  // 1/100k s = 10 us
}

TEST(ClusterTraffic, BurstyKeepsTheLongRunMeanRate) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::Bursty;
  cfg.rate_per_sec = 1.0e5;
  cfg.burst_factor = 8.0;
  ArrivalSequence seq(cfg, 7);
  double total_s = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) total_s += sim::to_seconds(seq.next_gap());
  const double mean_gap_us = total_s / kN * 1e6;
  EXPECT_NEAR(mean_gap_us, 10.0, 1.0);
}

TEST(ClusterTraffic, UnknownPolicyNameReturnsNull) {
  EXPECT_EQ(make_policy("bogus"), nullptr);
  for (const std::string_view name : all_policy_names()) {
    const auto p = make_policy(name);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), name);
  }
}

}  // namespace
}  // namespace pagoda::cluster
