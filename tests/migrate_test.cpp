// Migration-plane tests: checkpoint image round-trip / byte-stability /
// malformed-image rejection, autoscale + resize spec parsing, migrate-not-
// shed drains through the dispatcher (exactly-once ledger, migrate_xfer
// trace tiling), the host-side TaskTable revoke, the PR4 x PR7 seam (a wake
// arriving while a drain is still in progress cancels the drain instead of
// double-reinstating the node), and the autoscaler's trough/peak behavior
// composed with a DVFS governor.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/open_loop.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "migrate/autoscaler.h"
#include "migrate/checkpoint.h"
#include "migrate/migrate.h"
#include "obs/trace_span.h"
#include "power/governor.h"
#include "power/power_spec.h"
#include "sim/process.h"

namespace pagoda::migrate {
namespace {

// --- checkpoint image --------------------------------------------------------

TaskCheckpoint sample_checkpoint() {
  TaskCheckpoint cp;
  cp.uid = 0xDEADBEEFCAFEBABEull;
  cp.arrival = 123456;
  cp.attempt = 2;
  cp.cls = sched::Class::kInteractive;
  cp.slo = 5000000;
  cp.cost = 42.5;
  cp.h2d_bytes = 4096;
  cp.d2h_bytes = 1024;
  cp.data_key = 77;
  cp.index = 913;
  cp.params.num_blocks = 3;
  cp.params.threads_per_block = 96;
  cp.params.shared_mem_bytes = 512;
  cp.params.shmem_used_256 = 1;  // the vres hints (image version 2)
  cp.params.regs_used = 24;
  cp.params.needs_sync = true;
  cp.params.sched_class = 0;
  cp.params.deadline_us = 987654;
  struct Args {
    int a = 17;
    double b = 2.75;
  } args;
  cp.params.set_args(args);
  cp.point = SafePoint::kStaged;
  cp.source_node = 5;
  return cp;
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  const TaskCheckpoint cp = sample_checkpoint();
  const std::vector<std::byte> image = serialize(cp);
  TaskCheckpoint out;
  ASSERT_TRUE(deserialize(image, &out));
  EXPECT_EQ(out.uid, cp.uid);
  EXPECT_EQ(out.arrival, cp.arrival);
  EXPECT_EQ(out.attempt, cp.attempt);
  EXPECT_EQ(out.cls, cp.cls);
  EXPECT_EQ(out.slo, cp.slo);
  EXPECT_DOUBLE_EQ(out.cost, cp.cost);
  EXPECT_EQ(out.h2d_bytes, cp.h2d_bytes);
  EXPECT_EQ(out.d2h_bytes, cp.d2h_bytes);
  EXPECT_EQ(out.data_key, cp.data_key);
  EXPECT_EQ(out.index, cp.index);
  EXPECT_EQ(out.params.num_blocks, cp.params.num_blocks);
  EXPECT_EQ(out.params.threads_per_block, cp.params.threads_per_block);
  EXPECT_EQ(out.params.shared_mem_bytes, cp.params.shared_mem_bytes);
  EXPECT_EQ(out.params.shmem_used_256, cp.params.shmem_used_256);
  EXPECT_EQ(out.params.regs_used, cp.params.regs_used);
  EXPECT_EQ(out.params.needs_sync, cp.params.needs_sync);
  EXPECT_EQ(out.params.sched_class, cp.params.sched_class);
  EXPECT_EQ(out.params.deadline_us, cp.params.deadline_us);
  EXPECT_EQ(out.params.args_size, cp.params.args_size);
  EXPECT_EQ(std::memcmp(out.params.args.data(), cp.params.args.data(),
                        static_cast<std::size_t>(cp.params.args_size)),
            0);
  EXPECT_EQ(out.point, cp.point);
  EXPECT_EQ(out.source_node, cp.source_node);
  // The kernel ref never crosses the wire; the restoring side re-binds it.
  EXPECT_EQ(out.params.fn, nullptr);
}

TEST(Checkpoint, ByteStableAcrossReserialization) {
  const TaskCheckpoint cp = sample_checkpoint();
  const std::vector<std::byte> a = serialize(cp);
  const std::vector<std::byte> b = serialize(cp);
  EXPECT_EQ(a, b);
  EXPECT_EQ(image_digest(a), image_digest(b));

  // Round-tripping and re-serializing must also reproduce the bytes: the
  // image is a pure function of attempt state, not of which host wrote it.
  TaskCheckpoint out;
  ASSERT_TRUE(deserialize(a, &out));
  EXPECT_EQ(serialize(out), a);
}

TEST(Checkpoint, RejectsMalformedImages) {
  const std::vector<std::byte> good = serialize(sample_checkpoint());
  TaskCheckpoint out;

  // Empty and truncated buffers.
  EXPECT_FALSE(deserialize({}, &out));
  for (const std::size_t keep : {std::size_t{1}, std::size_t{4},
                                 good.size() / 2, good.size() - 1}) {
    EXPECT_FALSE(deserialize({good.data(), keep}, &out)) << keep;
  }
  // Trailing garbage.
  std::vector<std::byte> longer = good;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(deserialize(longer, &out));
  // Any single flipped byte must fail the digest (or a range check).
  for (const std::size_t at : {std::size_t{0}, std::size_t{5},
                               good.size() / 2, good.size() - 1}) {
    std::vector<std::byte> bad = good;
    bad[at] ^= std::byte{0x40};
    EXPECT_FALSE(deserialize(bad, &out)) << at;
  }
  // `out` stays untouched through every rejection.
  TaskCheckpoint fresh;
  EXPECT_EQ(out.uid, fresh.uid);
  EXPECT_EQ(out.index, fresh.index);
}

TEST(Checkpoint, TransferBytesBySafePoint) {
  TaskCheckpoint cp = sample_checkpoint();
  cp.h2d_bytes = 4096;
  cp.point = SafePoint::kQueued;
  EXPECT_EQ(transfer_bytes(cp), 0);  // nothing ever reached the node
  cp.point = SafePoint::kStaged;
  const std::int64_t staged = transfer_bytes(cp);
  EXPECT_GE(staged, cp.h2d_bytes);  // the staged payload moves
  cp.point = SafePoint::kTableParked;
  EXPECT_GT(transfer_bytes(cp), staged);  // plus the revoked descriptor
}

// --- spec parsing ------------------------------------------------------------

TEST(AutoscaleSpec, ParsesValidForms) {
  std::string err;
  const auto util = parse_autoscale_spec("0.6", &err);
  ASSERT_TRUE(util.has_value()) << err;
  EXPECT_TRUE(util->enabled);
  EXPECT_DOUBLE_EQ(util->low_watermark, 0.3);   // UTIL / 2
  EXPECT_DOUBLE_EQ(util->high_watermark, 0.8);  // (1 + UTIL) / 2

  const auto full = parse_autoscale_spec("0.5:0.2:0.9:3", &err);
  ASSERT_TRUE(full.has_value()) << err;
  EXPECT_DOUBLE_EQ(full->low_watermark, 0.2);
  EXPECT_DOUBLE_EQ(full->high_watermark, 0.9);
  EXPECT_EQ(full->min_nodes, 3);
}

TEST(AutoscaleSpec, RejectsMalformedForms) {
  const char* bad[] = {"",     "x",         "0",       "1.5",
                       "0.6:", "0.6:0.9:0.3",  // low >= high
                       "0.6:0.3:0.9:0",        // min < 1
                       "0.6:0.3",              // two fields is neither form
                       "0.6:0.3:1.5"};         // high > 1
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(parse_autoscale_spec(spec, &err).has_value()) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(ResizeSpec, ParsesAndRejects) {
  std::string err;
  const auto plan = parse_resize_spec("1000:4,2500:16", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->size(), 2u);
  EXPECT_EQ((*plan)[0].at, sim::microseconds(1000.0));
  EXPECT_EQ((*plan)[0].target, 4);
  EXPECT_EQ((*plan)[1].target, 16);

  const char* bad[] = {"", "1000", "1000:", "1000:0", ":4", "x:4",
                       "2000:4,1000:8",  // not increasing
                       "1000:4,1000:8"};
  for (const char* spec : bad) {
    EXPECT_FALSE(parse_resize_spec(spec, &err).has_value()) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

// --- cluster harness ---------------------------------------------------------

struct RunSpec {
  int gpus = 2;
  int requests = 256;
  std::uint64_t seed = 1;
  double rate_per_sec = 100.0e3;
  bool migrate = true;
  bool power = false;
  power::GovernorKind governor = power::GovernorKind::kStatic;
  AutoscaleConfig autoscale{};
  /// Nodes to drain_node() at the given instants (administrative drains).
  std::vector<std::pair<sim::Time, int>> drains;
  /// reinstate_node() instants (the wake-during-drain seam).
  std::vector<std::pair<sim::Time, int>> reinstates;
  bool trace = false;
};

struct RunOutput {
  cluster::Dispatcher::Stats stats;
  MigrationManager::Stats mig;
  Autoscaler::Stats scale;
  bool has_scale = false;
  std::vector<obs::RequestTracer::Record> records;
  bool done = false;
};

sim::Process admin(sim::Simulation& sim, cluster::Dispatcher& disp,
                   const RunSpec& rs) {
  sim::Time at = 0;
  for (const auto& [when, node] : rs.drains) {
    if (when > at) co_await sim.delay(when - at);
    at = when;
    disp.drain_node(node);
  }
  for (const auto& [when, node] : rs.reinstates) {
    if (when > at) co_await sim.delay(when - at);
    at = when;
    disp.reinstate_node(node);
  }
}

RunOutput run_cluster(const RunSpec& rs) {
  cluster::NodeConfig nc;
  nc.pagoda.rows_per_column = 4;
  std::vector<cluster::NodeConfig> nodes(static_cast<std::size_t>(rs.gpus),
                                         nc);
  cluster::DispatcherConfig dc;
  dc.migration.enabled = rs.migrate;
  if (rs.power) {
    dc.power.spec = power::PowerSpec::default_spec();
    dc.power.governor = rs.governor;
  }
  dc.autoscale = rs.autoscale;
  obs::RequestTracer tracer;  // outlives the runner's fleet shutdown
  cluster::OpenLoopRunner runner(
      nodes, cluster::make_policy("least-outstanding"), dc);
  cluster::Dispatcher& disp = runner.dispatcher();
  if (rs.trace) disp.set_tracer(&tracer);
  if (!rs.drains.empty() || !rs.reinstates.empty()) {
    runner.sim().spawn(admin(runner.sim(), disp, rs));
  }
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Poisson;
  src.arrival.rate_per_sec = rs.rate_per_sec;
  src.seed = rs.seed;
  src.requests = rs.requests;
  // Heavy enough that spawned entries outnumber free scheduler warps: the
  // table holds released-but-unclaimed entries (revocable) and the slot
  // queue holds parked waiters (the kQueued safe point) when a drain hits.
  cluster::RequestProfile profile;
  profile.threads_per_task = 256;
  profile.compute_cycles = 120000.0;
  profile.stall_cycles = 240000.0;
  src.make = [&](int i) { return cluster::synth_request(profile, rs.seed, i); };

  RunOutput out;
  out.done = runner.run(std::move(src), sim::seconds(60.0));
  out.stats = disp.stats();
  if (disp.migration() != nullptr) out.mig = disp.migration()->stats();
  if (disp.autoscaler() != nullptr) {
    out.scale = disp.autoscaler()->stats();
    out.has_scale = true;
  }
  out.records = tracer.records();
  return out;
}

/// Every admitted request resolved exactly once, nothing was lost.
void expect_lossless(const RunOutput& out) {
  EXPECT_TRUE(out.done);
  EXPECT_EQ(out.stats.shed, 0);
  EXPECT_EQ(out.stats.dropped, 0);
  EXPECT_EQ(out.stats.completed, out.stats.admitted);
  EXPECT_EQ(out.stats.slot_releases, out.stats.completed + out.stats.shed);
}

// --- migrate-not-shed drains -------------------------------------------------

TEST(DrainMigration, DrainMovesWorkInsteadOfSheddingIt) {
  RunSpec rs;
  rs.gpus = 3;
  rs.requests = 768;
  rs.rate_per_sec = 2.0e6;  // oversubscribed: slot queues hold waiters
  rs.drains = {{sim::microseconds(300.0), 0}};
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  // The drain caught in-flight work and every checkpoint was restored.
  EXPECT_GT(out.stats.migrated, 0);
  // Oversubscription puts waiters on the slot queue (kQueued) and leaves
  // unclaimed TaskTable entries for the revoke path (kTableParked).
  EXPECT_GT(out.mig.queued, 0u);
  EXPECT_GT(out.mig.table_parked, 0u);
  EXPECT_EQ(out.mig.restores, out.mig.checkpoints);
  EXPECT_EQ(static_cast<std::int64_t>(out.mig.restores), out.stats.migrated);
  EXPECT_EQ(out.mig.checkpoints,
            out.mig.queued + out.mig.staged + out.mig.table_parked);
  EXPECT_GT(out.mig.image_bytes, 0u);
}

TEST(DrainMigration, RevokeLosersRunInPlace) {
  // Drain all but one node repeatedly: some TaskTable revokes will race a
  // scheduler-warp claim and lose; those attempts must finish on the
  // draining node (declined counted, nothing shed, ledger intact).
  RunSpec rs;
  rs.gpus = 2;
  rs.requests = 512;
  rs.rate_per_sec = 200.0e3;
  rs.drains = {{sim::microseconds(200.0), 0},
               {sim::microseconds(900.0), 1}};
  rs.reinstates = {{sim::microseconds(700.0), 0}};
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  EXPECT_GT(out.stats.migrated, 0);
  EXPECT_EQ(static_cast<std::int64_t>(out.mig.declined),
            out.stats.migrate_declined);
}

TEST(DrainMigration, MigrateXferPhaseTilesTheSpan) {
  RunSpec rs;
  rs.gpus = 3;
  rs.requests = 512;
  rs.rate_per_sec = 1.0e6;
  rs.trace = true;
  rs.drains = {{sim::microseconds(300.0), 0}};
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  ASSERT_GT(out.stats.migrated, 0);
  // Migrated requests resolve with >= 2 attempts, a migrate_xfer bucket and
  // an intact tiling: the buckets sum to the request's wall time.
  int with_xfer = 0;
  for (const obs::RequestTracer::Record& r : out.records) {
    sim::Duration total = 0;
    for (const sim::Duration d : r.buckets) total += d;
    EXPECT_EQ(total, r.done - r.arrival) << r.uid;
    const sim::Duration xfer =
        r.buckets[static_cast<std::size_t>(obs::Phase::kMigrateXfer)];
    if (xfer > 0) {
      with_xfer += 1;
      EXPECT_GE(r.attempts, 2) << r.uid;
    }
  }
  EXPECT_GT(with_xfer, 0);
}

TEST(DrainMigration, DisarmedDrainKeepsLegacyFinishInPlace) {
  RunSpec rs;
  rs.gpus = 3;
  rs.requests = 256;
  rs.migrate = false;
  rs.drains = {{sim::microseconds(300.0), 0}};
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  EXPECT_EQ(out.stats.migrated, 0);
  EXPECT_EQ(out.mig.checkpoints, 0u);
}

// --- the PR4 x PR7 seam: wake arriving mid-drain -----------------------------

TEST(WakeDuringDrain, CancelsThePendingDrainWithoutDoubleReinstate) {
  // A resize plan that shrinks and then grows again almost immediately: the
  // grow lands while the shrink's drain is still waiting for in-flight work,
  // so the autoscaler must cancel the pending drain (restore_node once)
  // rather than sleep + wake the node or reinstate it twice.
  RunSpec rs;
  rs.gpus = 2;
  rs.requests = 384;
  rs.rate_per_sec = 150.0e3;
  rs.power = true;
  rs.autoscale.plan = {{sim::microseconds(200.0), 1},
                       {sim::microseconds(260.0), 2}};
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  ASSERT_TRUE(out.has_scale);
  EXPECT_EQ(out.scale.resize_events, 2u);
  EXPECT_EQ(out.scale.drains_started, 1u);
  EXPECT_EQ(out.scale.drains_cancelled, 1u);
  // The node never finished quiescing, so it never slept and never needed
  // an S-state wake; the cancel path alone returned it to placement.
  EXPECT_EQ(out.scale.nodes_slept, 0u);
  EXPECT_EQ(out.scale.nodes_woken, 0u);
}

TEST(WakeDuringDrain, CompletedDrainWakesFromSleepInstead) {
  // Same plan with a long gap: the drain finishes, the node S-sleeps, and
  // the grow step must wake it (not cancel anything).
  RunSpec rs;
  rs.gpus = 2;
  rs.requests = 384;
  rs.rate_per_sec = 150.0e3;
  rs.power = true;
  rs.autoscale.plan = {{sim::microseconds(200.0), 1},
                       {sim::microseconds(2600.0), 2}};
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  ASSERT_TRUE(out.has_scale);
  EXPECT_EQ(out.scale.drains_started, 1u);
  EXPECT_EQ(out.scale.drains_cancelled, 0u);
  EXPECT_EQ(out.scale.nodes_slept, 1u);
  EXPECT_EQ(out.scale.nodes_woken, 1u);
}

// --- autoscaler policy -------------------------------------------------------

TEST(Autoscaler, SleepsTheTroughAndStaysLossless) {
  RunSpec rs;
  rs.gpus = 4;
  rs.requests = 512;
  rs.rate_per_sec = 40.0e3;  // light load: most of the fleet is surplus
  rs.power = true;
  rs.autoscale.enabled = true;
  rs.autoscale.low_watermark = 0.3;
  rs.autoscale.high_watermark = 0.85;
  rs.autoscale.min_nodes = 1;
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  ASSERT_TRUE(out.has_scale);
  EXPECT_GT(out.scale.checks, 0u);
  EXPECT_GT(out.scale.nodes_slept, 0u);
}

TEST(Autoscaler, ComposesWithDvfsGovernor) {
  RunSpec rs;
  rs.gpus = 4;
  rs.requests = 512;
  rs.power = true;
  rs.governor = power::GovernorKind::kDvfs;
  rs.autoscale.enabled = true;
  rs.autoscale.low_watermark = 0.3;
  rs.autoscale.high_watermark = 0.85;
  rs.autoscale.min_nodes = 1;
  const RunOutput out = run_cluster(rs);
  expect_lossless(out);
  ASSERT_TRUE(out.has_scale);
  EXPECT_GT(out.scale.checks, 0u);
}

TEST(Autoscaler, DeterministicAcrossReruns) {
  RunSpec rs;
  rs.gpus = 4;
  rs.requests = 384;
  rs.power = true;
  rs.autoscale.enabled = true;
  rs.autoscale.low_watermark = 0.3;
  rs.autoscale.high_watermark = 0.85;
  rs.autoscale.min_nodes = 1;
  rs.autoscale.plan = {{sim::microseconds(300.0), 2},
                       {sim::microseconds(1500.0), 4}};
  const RunOutput a = run_cluster(rs);
  const RunOutput b = run_cluster(rs);
  expect_lossless(a);
  EXPECT_EQ(a.stats.migrated, b.stats.migrated);
  EXPECT_EQ(a.mig.checkpoints, b.mig.checkpoints);
  EXPECT_EQ(a.mig.image_digest, b.mig.image_digest);
  EXPECT_EQ(a.mig.xfer_bytes, b.mig.xfer_bytes);
  EXPECT_EQ(a.scale.nodes_slept, b.scale.nodes_slept);
  EXPECT_EQ(a.scale.checks, b.scale.checks);
}

}  // namespace
}  // namespace pagoda::migrate
