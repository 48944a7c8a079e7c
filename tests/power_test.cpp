// Power-plane tests: spec parsing, the energy conservation invariant
// (integrated energy == residency/issue-table decomposition, read at
// mid-window instants across many seeds), governor determinism, the
// passivity guarantee (power off == static floor-0 timing, bit for bit),
// S-state sleep/wake lifecycle with wake-latency charging and trace-phase
// tiling, and the diurnal MMPP-2 arrival process.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/open_loop.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "obs/trace_span.h"
#include "power/governor.h"
#include "power/power_model.h"
#include "power/power_spec.h"
#include "sim/process.h"

namespace pagoda::power {
namespace {

// --- spec parsing ------------------------------------------------------------

TEST(PowerSpec, ParsesDefaultAndFloor) {
  std::string err;
  const auto plain = PowerSpec::parse("default", &err);
  ASSERT_TRUE(plain.has_value()) << err;
  EXPECT_EQ(plain->p_floor, 0);
  EXPECT_DOUBLE_EQ(plain->p_clock_scale[0], 1.0);

  for (int floor = 0; floor < kNumPStates; ++floor) {
    const auto spec = PowerSpec::parse(
        "default:floor=" + std::to_string(floor), &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->p_floor, floor);
  }
}

TEST(PowerSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                  // empty
      "bogus",             // unknown table
      "default:floor=4",   // out of range
      "default:floor=-1",  // negative
      "default:floor=x",   // not a number
      "default:floor=",    // missing value
      "default:junk=1",    // unknown option
      "default:",          // dangling colon
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(PowerSpec::parse(spec, &err).has_value()) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(Governor, NameRoundTrip) {
  for (const std::string_view name : all_governor_names()) {
    const auto kind = parse_governor(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_FALSE(governor_description(*kind).empty());
  }
  EXPECT_FALSE(parse_governor("bogus").has_value());
  EXPECT_FALSE(parse_governor("").has_value());
}

// --- cluster harness ---------------------------------------------------------

struct RunSpec {
  int gpus = 2;
  int requests = 384;
  std::uint64_t seed = 1;
  double rate_per_sec = 100.0e3;
  std::string placement = "energy-min";
  bool power_on = true;
  int p_floor = 3;
  GovernorKind governor = GovernorKind::kDvfs;
  double cap_watts = 0.0;
  bool manage_sleep = true;
  /// Instants (virtual time) at which a probe coroutine checks the
  /// conservation invariant mid-run — between transition edges.
  std::vector<sim::Time> probe_at;
};

std::vector<cluster::NodeConfig> nodes(const RunSpec& rs) {
  cluster::NodeConfig nc;
  nc.pagoda.rows_per_column = 4;
  return std::vector<cluster::NodeConfig>(static_cast<std::size_t>(rs.gpus),
                                          nc);
}

cluster::DispatcherConfig disp_config(const RunSpec& rs) {
  cluster::DispatcherConfig dc;
  dc.qos = true;
  if (rs.power_on) {
    PowerSpec spec = PowerSpec::default_spec();
    spec.p_floor = rs.p_floor;
    dc.power.spec = spec;
    dc.power.governor = rs.governor;
    dc.power.cap_watts = rs.cap_watts;
    dc.power.manage_sleep = rs.manage_sleep;
  }
  return dc;
}

/// The conservation identity from power_model.h, recomputed from the
/// residency and issue tables alone.
double decomposed_energy(const NodePower& np, sim::Time now) {
  const PowerSpec& spec = np.spec();
  double j = np.s_residency_seconds(0, now) * spec.node_base_watts;
  for (int s = 1; s < kNumSStates; ++s) {
    j += np.s_residency_seconds(s, now) *
         spec.s_watts[static_cast<std::size_t>(s)];
  }
  for (int i = 0; i < np.num_smms(); ++i) {
    const SmmPower& sp = np.smm_power(i);
    for (int p = 0; p < kNumPStates; ++p) {
      j += sp.c0_residency_seconds(p, now) *
           spec.p_static_watts[static_cast<std::size_t>(p)];
      j += sp.issued_work(p, now) *
           spec.p_dynamic_joules[static_cast<std::size_t>(p)];
    }
    for (int c = 1; c < kNumCStates; ++c) {
      j += sp.c_residency_seconds(c, now) *
           spec.c_watts[static_cast<std::size_t>(c)];
    }
  }
  return j;
}

void expect_conservation(const cluster::Cluster& fleet, sim::Time now) {
  for (int i = 0; i < fleet.size(); ++i) {
    const NodePower* np = fleet.node(i).power();
    ASSERT_NE(np, nullptr);
    const double integrated = np->energy_joules(now);
    const double decomposed = decomposed_energy(*np, now);
    EXPECT_NEAR(integrated, decomposed,
                1e-9 * std::max(1.0, std::abs(integrated)))
        << "node " << i << " at t=" << now;
  }
}

sim::Process probe(sim::Simulation& sim, const cluster::Cluster& fleet,
                   std::vector<sim::Time> at, int& probes_run) {
  for (const sim::Time t : at) {
    if (t > sim.now()) co_await sim.delay(t - sim.now());
    expect_conservation(fleet, sim.now());
    probes_run += 1;
  }
}

struct RunResultLite {
  std::vector<int> placements;
  std::vector<double> latencies_us;
  std::vector<double> node_energy_j;
  sim::Time end_time = 0;
  cluster::Dispatcher::Stats stats;
  PowerGovernor::Stats gov;
  std::uint64_t wakeups = 0;
  std::uint64_t transitions = 0;
  int probes_run = 0;
};

RunResultLite run_cluster(const RunSpec& rs,
                          obs::RequestTracer* tracer = nullptr) {
  int probes_run = 0;  // outlives the probe process
  cluster::OpenLoopRunner runner(nodes(rs),
                                 cluster::make_policy(rs.placement),
                                 disp_config(rs));
  const cluster::Cluster& fleet = runner.fleet();
  const cluster::Dispatcher& disp = runner.dispatcher();
  if (tracer != nullptr) runner.dispatcher().set_tracer(tracer);
  if (!rs.probe_at.empty()) {
    runner.sim().spawn(probe(runner.sim(), fleet, rs.probe_at, probes_run));
  }
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Diurnal;
  src.arrival.rate_per_sec = rs.rate_per_sec;
  src.arrival.burst_factor = 8.0;
  src.arrival.mean_on = sim::milliseconds(20.0);
  src.seed = rs.seed;
  src.requests = rs.requests;
  cluster::RequestProfile prof;
  prof.slo = sim::milliseconds(5.0);
  src.make = [&](int i) { return cluster::synth_request(prof, rs.seed, i); };
  EXPECT_TRUE(runner.run(std::move(src), sim::seconds(600.0)));
  const sim::Time end_time = runner.end_time();

  RunResultLite out;
  out.placements = disp.placements();
  out.latencies_us.assign(disp.latencies_us().begin(),
                          disp.latencies_us().end());
  out.end_time = end_time;
  out.stats = disp.stats();
  out.probes_run = probes_run;
  if (rs.power_on) {
    EXPECT_NE(disp.governor(), nullptr);
    out.gov = disp.governor()->stats();
    for (int i = 0; i < fleet.size(); ++i) {
      const NodePower* np = fleet.node(i).power();
      EXPECT_NE(np, nullptr);
      out.node_energy_j.push_back(np->energy_joules(end_time));
      out.wakeups += np->wakeups();
      out.transitions += np->transitions();
    }
    expect_conservation(fleet, end_time);
  } else {
    for (int i = 0; i < fleet.size(); ++i) {
      EXPECT_EQ(fleet.node(i).power(), nullptr);
    }
  }
  return out;
}

// --- energy conservation -----------------------------------------------------

// The core invariant, across >= 20 seeds of a state-churning scenario
// (energy-min packing + dvfs + sleep on diurnal traffic drives P, C and S
// transitions), with mid-window probe reads between transition edges — a
// read must extrapolate both sides of the identity consistently.
TEST(EnergyConservation, HoldsAcrossSeedsWithMidWindowReads) {
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    RunSpec rs;
    rs.seed = seed;
    // Prime-ish offsets so probes land inside residency windows, not on
    // governor tick edges (multiples of 50 us).
    rs.probe_at = {sim::microseconds(1313.0), sim::microseconds(7373.0),
                   sim::milliseconds(13.37)};
    const RunResultLite r = run_cluster(rs);
    EXPECT_EQ(r.stats.completed, 384) << "seed " << seed;
    EXPECT_EQ(r.probes_run, 3) << "seed " << seed;
    EXPECT_GT(r.transitions, 0u) << "seed " << seed;
  }
}

// Same invariant under the powercap governor (cap pressure forces extra
// P-state churn) and under static pinning (no churn at all).
TEST(EnergyConservation, HoldsUnderPowercapAndStatic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunSpec rs;
    rs.seed = seed;
    rs.placement = "power-cap";
    rs.governor = GovernorKind::kPowerCap;
    rs.cap_watts = 150.0;
    rs.manage_sleep = false;
    rs.probe_at = {sim::microseconds(7373.0)};
    run_cluster(rs);

    RunSpec st;
    st.seed = seed;
    st.placement = "least-outstanding";
    st.governor = GovernorKind::kStatic;
    st.p_floor = 2;
    st.manage_sleep = false;
    st.probe_at = {sim::microseconds(7373.0)};
    const RunResultLite r = run_cluster(st);
    EXPECT_EQ(r.stats.completed, 384);
  }
}

// --- determinism and passivity -----------------------------------------------

// Two identical runs must agree bit-for-bit: placements, latencies, energy.
TEST(PowerDeterminism, IdenticalRunsAreByteIdentical) {
  RunSpec rs;
  rs.seed = 7;
  const RunResultLite a = run_cluster(rs);
  const RunResultLite b = run_cluster(rs);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.latencies_us, b.latencies_us);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.node_energy_j.size(), b.node_energy_j.size());
  for (std::size_t i = 0; i < a.node_energy_j.size(); ++i) {
    EXPECT_EQ(a.node_energy_j[i], b.node_energy_j[i]);  // exact doubles
  }
  EXPECT_EQ(a.gov.checks, b.gov.checks);
  EXPECT_EQ(a.gov.nodes_slept, b.gov.nodes_slept);
  EXPECT_EQ(a.wakeups, b.wakeups);
}

// Power off vs static floor-0: the governor pins P0 (clock scale exactly
// 1.0), so every timing-visible quantity must match the power-off run
// exactly — the plane meters energy without perturbing the simulation.
TEST(PowerPassivity, StaticFloorZeroMatchesPowerOffTiming) {
  RunSpec off;
  off.seed = 11;
  off.placement = "least-outstanding";
  off.power_on = false;
  const RunResultLite a = run_cluster(off);

  RunSpec metered = off;
  metered.power_on = true;
  metered.p_floor = 0;
  metered.governor = GovernorKind::kStatic;
  metered.manage_sleep = false;
  const RunResultLite b = run_cluster(metered);

  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.latencies_us, b.latencies_us);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  // ... while actually metering: energy accrues, nothing else changes.
  double total = 0.0;
  for (const double j : b.node_energy_j) total += j;
  EXPECT_GT(total, 0.0);
  EXPECT_EQ(b.stats.power_wakeup_waits, 0);
}

// --- sleep/wake lifecycle ----------------------------------------------------

// Diurnal traffic on an energy-min fleet: troughs put surplus nodes to
// sleep, the next peak wakes them, and requests granted onto a waking node
// are charged the residual S->active latency — visible in the dispatcher
// ledger AND as the power_wakeup trace phase, which must tile exactly.
TEST(SleepLifecycle, WakeLatencyIsChargedAndPhasesTile) {
  obs::RequestTracer tracer;
  RunSpec rs;
  rs.seed = 3;
  rs.requests = 4096;
  // Hot enough that a trough packs onto one node and the next peak
  // saturates it — forcing the governor to wake the sleeper mid-peak.
  rs.rate_per_sec = 800.0e3;
  const RunResultLite r = run_cluster(rs, &tracer);

  EXPECT_GT(r.gov.nodes_slept, 0u);
  EXPECT_GT(r.gov.nodes_woken, 0u);
  EXPECT_GT(r.wakeups, 0u);
  EXPECT_GT(r.stats.power_wakeup_waits, 0);

  // Every terminal record tiles: sum(buckets) == done - arrival. Requests
  // that waited on a wake-up carry it in the power_wakeup bucket.
  std::int64_t with_wakeup = 0;
  for (const obs::RequestTracer::Record& rec : tracer.records()) {
    sim::Duration sum = 0;
    for (const sim::Duration d : rec.buckets) sum += d;
    EXPECT_EQ(sum, rec.done - rec.arrival) << "uid " << rec.uid;
    const sim::Duration wake =
        rec.buckets[static_cast<std::size_t>(obs::Phase::kPowerWakeup)];
    EXPECT_GE(wake, 0);
    if (wake > 0) with_wakeup += 1;
  }
  EXPECT_EQ(with_wakeup, r.stats.power_wakeup_waits);
  // The S3 wake-up is 10 ms: at least one charged request must carry a
  // multi-millisecond power_wakeup bucket.
  sim::Duration max_wake = 0;
  for (const obs::RequestTracer::Record& rec : tracer.records()) {
    max_wake = std::max(
        max_wake,
        rec.buckets[static_cast<std::size_t>(obs::Phase::kPowerWakeup)]);
  }
  EXPECT_GT(max_wake, sim::milliseconds(1.0));
}

// Exactly-once ledger still balances when sleep management reshapes the
// fleet mid-run.
TEST(SleepLifecycle, LedgerBalancesUnderSleepManagement) {
  RunSpec rs;
  rs.seed = 5;
  rs.requests = 1024;
  const RunResultLite r = run_cluster(rs);
  EXPECT_EQ(r.stats.completed + r.stats.shed, r.stats.admitted);
  EXPECT_EQ(r.stats.slot_releases, r.stats.admitted);
  EXPECT_EQ(r.stats.dropped, 0);
}

// --- diurnal arrivals --------------------------------------------------------

TEST(DiurnalArrivals, ParseAcceptsAndRejects) {
  const auto full = cluster::ArrivalConfig::parse("diurnal:50000:6:10000");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->kind, cluster::ArrivalKind::Diurnal);
  EXPECT_DOUBLE_EQ(full->rate_per_sec, 50000.0);
  EXPECT_DOUBLE_EQ(full->burst_factor, 6.0);
  EXPECT_EQ(full->mean_on, sim::microseconds(10000.0));

  const auto defaults = cluster::ArrivalConfig::parse("diurnal:50000");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_DOUBLE_EQ(defaults->burst_factor, 4.0);

  for (const char* bad :
       {"diurnal", "diurnal:", "diurnal:0", "diurnal:-5", "diurnal:1000:1",
        "diurnal:1000:0.5", "diurnal:1000:4:0", "diurnal:1000:4:-3",
        "diurnal:1000:4:5:6"}) {
    EXPECT_FALSE(cluster::ArrivalConfig::parse(bad).has_value()) << bad;
  }
}

// Same seed -> bit-identical gap stream; different seed -> different.
TEST(DiurnalArrivals, DeterministicPerSeed) {
  cluster::ArrivalConfig cfg;
  cfg.kind = cluster::ArrivalKind::Diurnal;
  cfg.rate_per_sec = 50000.0;
  cluster::ArrivalSequence a(cfg, 42), b(cfg, 42), c(cfg, 43);
  bool differs = false;
  for (int i = 0; i < 4096; ++i) {
    const sim::Duration ga = a.next_gap();
    EXPECT_EQ(ga, b.next_gap());
    if (ga != c.next_gap()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// MMPP-2 statistics: equal mean phase lengths -> ~50% duty cycle, and the
// long-run mean rate converges to the configured rate (the peak/trough
// construction preserves the mean by design).
TEST(DiurnalArrivals, DutyCycleAndMeanRateConverge) {
  cluster::ArrivalConfig cfg;
  cfg.kind = cluster::ArrivalKind::Diurnal;
  cfg.rate_per_sec = 50000.0;
  cfg.burst_factor = 8.0;
  cfg.mean_on = sim::milliseconds(5.0);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    cluster::ArrivalSequence seq(cfg, seed);
    const int n = 200000;
    sim::Duration total = 0;
    for (int i = 0; i < n; ++i) total += seq.next_gap();
    const double occupancy = seq.on_fraction();
    EXPECT_GT(occupancy, 0.40) << "seed " << seed;
    EXPECT_LT(occupancy, 0.60) << "seed " << seed;
    const double mean_rate =
        static_cast<double>(n) / sim::to_seconds(total);
    EXPECT_NEAR(mean_rate, cfg.rate_per_sec, 0.05 * cfg.rate_per_sec)
        << "seed " << seed;
  }
}

// The peak phase must actually run hotter than the trough: split the gap
// stream by phase and compare conditional rates.
TEST(DiurnalArrivals, PeakRunsHotterThanTrough) {
  cluster::ArrivalConfig cfg;
  cfg.kind = cluster::ArrivalKind::Diurnal;
  cfg.rate_per_sec = 50000.0;
  cfg.burst_factor = 8.0;
  cfg.mean_on = sim::milliseconds(5.0);
  cluster::ArrivalSequence seq(cfg, 9);
  sim::Duration prev_gap = 0;
  std::vector<double> gaps;
  for (int i = 0; i < 100000; ++i) {
    gaps.push_back(sim::to_seconds(seq.next_gap()));
    (void)prev_gap;
  }
  // The gap distribution is bimodal (rate ratio 8): the mean gap must sit
  // well above the pure-peak mean and below the pure-trough mean.
  double sum = 0.0;
  for (const double g : gaps) sum += g;
  const double mean_gap = sum / static_cast<double>(gaps.size());
  const double peak_rate = cfg.rate_per_sec * 2.0 * cfg.burst_factor /
                           (cfg.burst_factor + 1.0);
  EXPECT_GT(mean_gap, 1.0 / peak_rate);
  EXPECT_LT(mean_gap, cfg.burst_factor / peak_rate);
}

}  // namespace
}  // namespace pagoda::power
