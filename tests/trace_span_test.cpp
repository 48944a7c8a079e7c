// Request-tracing tests: deterministic span identity, the phase-bucket
// tiling invariant (buckets sum EXACTLY to end-to-end latency), span
// lifecycles under the fault plane (retried -> linked attempt hops with
// backoff, evicted -> terminal eviction record), byte-stable JSON dumps,
// tracer passivity (armed run identical to disarmed), the Perfetto export,
// and the Timeline event cap (dropped events are counted, never silent).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/open_loop.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "common/rng.h"
#include "fault/plan.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace_span.h"
#include "sim/process.h"

namespace pagoda::obs {
namespace {

// --- span identity ------------------------------------------------------------

TEST(SpanId, IsAPureStructuralFunction) {
  EXPECT_EQ(span_id(0, 1, 0), 0x100u);
  EXPECT_EQ(span_id(1, 1, 0), 0x10100u);
  EXPECT_EQ(span_id(1, 2, 3), 0x10203u);
  // Distinct (uid, attempt, code) keys in range never collide.
  EXPECT_NE(span_id(7, 1, 0), span_id(7, 2, 0));
  EXPECT_NE(span_id(7, 1, 0), span_id(7, 1, 1));
  EXPECT_NE(span_id(7, 1, 0), span_id(8, 1, 0));
  // Phase children are offset by 1 so they never collide with the hop root.
  for (int p = 0; p < kNumPhases; ++p) {
    EXPECT_NE(span_id(3, 1, 1 + p), span_id(3, 1, 0));
  }
}

// --- cluster runs with a tracer attached --------------------------------------

struct TraceRunSpec {
  int nodes = 2;
  std::string policy = "least-loaded";
  int requests = 64;
  std::uint64_t seed = 0xBEEF;
  double arrival_rate = 300.0e3;
  std::string faults;  // FaultPlan spec ("" = fault plane off)
  sim::Duration task_timeout = 0;
  int retry_budget = 3;
  sim::Duration slo = sim::milliseconds(20.0);
  int queue_limit = 0;
  int rows_per_column = 0;  // 0 = node default TaskTable depth
  sched::PolicyKind sched_kind = sched::PolicyKind::kFifo;
  bool mixed_classes = false;  // every 4th request interactive, rest batch
  bool trace = true;           // attach a RequestTracer
};

struct TraceRunOutput {
  cluster::Dispatcher::Stats stats;
  std::vector<RequestTracer::Record> records;
  std::vector<RequestTracer::Drop> drops;
  std::size_t live = 0;
  std::string span_json;
  std::string metrics_json;
  std::vector<int> placements;
  bool done = false;
  sim::Time end_time = 0;
};

/// The open-loop stream of a traced run: Poisson arrivals of plain requests,
/// or (mixed_classes) every 4th one small and interactive, the rest heavy
/// deadline-free batch work.
cluster::ArrivalSource traced_source(const TraceRunSpec& rs) {
  cluster::ArrivalSource src;
  src.arrival.kind = cluster::ArrivalKind::Poisson;
  src.arrival.rate_per_sec = rs.arrival_rate;
  src.seed = rs.seed;
  src.requests = rs.requests;
  cluster::RequestProfile plain;
  plain.slo = rs.slo;
  cluster::RequestProfile interactive;  // small, tight SLO: evicts batch
  interactive.threads_per_task = 64;
  interactive.compute_cycles = 6000.0;
  interactive.stall_cycles = 12000.0;
  interactive.h2d_bytes = 2048;
  interactive.d2h_bytes = 512;
  interactive.slo = sim::milliseconds(2.0);
  interactive.cls = sched::Class::kInteractive;
  cluster::RequestProfile batch;  // heavy, no deadline: the eviction victim
  batch.threads_per_task = 256;
  batch.compute_cycles = 120000.0;
  batch.stall_cycles = 240000.0;
  batch.slo = 0;
  batch.cls = sched::Class::kBatch;
  src.make = [plain, interactive, batch, mixed = rs.mixed_classes,
              seed = rs.seed](int i) {
    const cluster::RequestProfile& p =
        mixed ? (i % 4 == 0 ? interactive : batch) : plain;
    return cluster::synth_request(p, seed, i);
  };
  return src;
}

TraceRunOutput run_traced_cluster(const TraceRunSpec& rs) {
  std::vector<cluster::NodeConfig> nodes(static_cast<std::size_t>(rs.nodes));
  for (cluster::NodeConfig& nc : nodes) {
    nc.pagoda.sched.kind = rs.sched_kind;
    if (rs.rows_per_column > 0) nc.pagoda.rows_per_column = rs.rows_per_column;
  }
  cluster::DispatcherConfig dc;
  std::string err;
  const auto plan = fault::FaultPlan::parse(rs.faults, &err);
  EXPECT_TRUE(plan.has_value()) << rs.faults << ": " << err;
  dc.faults = *plan;
  if (dc.faults.seed == 0) dc.faults.seed = rs.seed;
  dc.retry.seed = dc.faults.seed;
  dc.retry.budget = rs.retry_budget;
  dc.task_timeout = rs.task_timeout;
  dc.queue_limit = rs.queue_limit;
  dc.sched.kind = rs.sched_kind;
  dc.qos = rs.mixed_classes;
  dc.watchdog.probe_period = sim::microseconds(100.0);
  RequestTracer tracer;  // outlives the runner's fleet shutdown
  cluster::OpenLoopRunner runner(nodes, cluster::make_policy(rs.policy), dc);
  cluster::Dispatcher& disp = runner.dispatcher();
  if (rs.trace) disp.set_tracer(&tracer);
  runner.run(traced_source(rs), sim::seconds(60.0));

  TraceRunOutput out;
  out.done = runner.done();
  out.end_time = runner.end_time();
  out.stats = disp.stats();
  out.records = tracer.records();
  out.drops = tracer.drops();
  out.live = tracer.live();
  out.placements = disp.placements();
  std::ostringstream spans_os;
  tracer.write_json(spans_os);
  out.span_json = spans_os.str();
  obs::MetricsRegistry m;
  disp.export_metrics(m);
  std::ostringstream metrics_os;
  m.write_json(metrics_os);
  out.metrics_json = metrics_os.str();
  return out;
}

sim::Duration bucket_sum(const RequestTracer::Record& r) {
  sim::Duration sum = 0;
  for (const sim::Duration d : r.buckets) sum += d;
  return sum;
}

/// The invariants every traced run must satisfy: exactly-once resolution
/// (one record per admitted request, one drop entry per refusal), the
/// bucket-sum tiling identity, and internally consistent spans.
void expect_trace_invariants(const TraceRunOutput& out, const char* what) {
  ASSERT_TRUE(out.done) << what;
  EXPECT_EQ(out.live, 0u) << what;  // drained: nothing unresolved
  EXPECT_EQ(static_cast<std::int64_t>(out.records.size()),
            out.stats.admitted)
      << what;
  EXPECT_EQ(static_cast<std::int64_t>(out.drops.size()), out.stats.dropped)
      << what;
  for (const RequestTracer::Record& r : out.records) {
    // The tiling identity, exact in integer picoseconds.
    EXPECT_EQ(bucket_sum(r), r.done - r.arrival) << what << " uid " << r.uid;
    EXPECT_GE(r.attempts, 1) << what << " uid " << r.uid;
    // Spans cover exactly the non-zero bucket time, in clock order, with
    // 1-based non-decreasing hop numbers.
    sim::Duration span_sum = 0;
    sim::Time prev_start = r.arrival;
    std::int32_t prev_attempt = 1;
    for (const RequestTracer::PhaseSpan& s : r.spans) {
      EXPECT_GT(s.end, s.start) << what << " uid " << r.uid;
      EXPECT_GE(s.start, prev_start) << what << " uid " << r.uid;
      EXPECT_GE(s.attempt, prev_attempt) << what << " uid " << r.uid;
      EXPECT_LE(s.attempt, r.attempts) << what << " uid " << r.uid;
      span_sum += s.end - s.start;
      prev_start = s.start;
      prev_attempt = s.attempt;
    }
    EXPECT_EQ(span_sum, r.done - r.arrival) << what << " uid " << r.uid;
    if (r.terminal == Terminal::kCompleted) {
      EXPECT_TRUE(r.cause.empty()) << what << " uid " << r.uid;
    } else {
      EXPECT_FALSE(r.cause.empty()) << what << " uid " << r.uid;
    }
  }
}

std::int64_t count_terminal(const TraceRunOutput& out, Terminal t) {
  return std::count_if(
      out.records.begin(), out.records.end(),
      [t](const RequestTracer::Record& r) { return r.terminal == t; });
}

// --- lifecycles ---------------------------------------------------------------

TEST(RequestTracer, CleanRunIsSingleHopAndFullyAttributed) {
  TraceRunSpec rs;
  const TraceRunOutput out = run_traced_cluster(rs);
  expect_trace_invariants(out, "clean");
  EXPECT_EQ(count_terminal(out, Terminal::kCompleted), out.stats.completed);
  EXPECT_EQ(out.stats.completed, out.stats.admitted);
  for (const RequestTracer::Record& r : out.records) {
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.buckets[static_cast<int>(Phase::kRetryBackoff)], 0);
    // A clean single-hop request always pays the staged phases.
    EXPECT_GT(r.buckets[static_cast<int>(Phase::kH2d)], 0);
    EXPECT_GT(r.buckets[static_cast<int>(Phase::kExec)], 0);
    EXPECT_GT(r.buckets[static_cast<int>(Phase::kD2h)], 0);
  }
}

TEST(RequestTracer, RetriedRequestsLinkAttemptHopsWithBackoff) {
  TraceRunSpec rs;
  rs.faults = "task:0.25";
  const TraceRunOutput out = run_traced_cluster(rs);
  expect_trace_invariants(out, "retries");
  ASSERT_GT(out.stats.retries, 0);
  std::int64_t multi_hop = 0;
  for (const RequestTracer::Record& r : out.records) {
    if (r.attempts < 2) continue;
    ++multi_hop;
    // A budget-charged retry pays a backoff interval, and the span list
    // carries every hop (linked attempt spans, one chain per request).
    EXPECT_GT(r.buckets[static_cast<int>(Phase::kRetryBackoff)], 0)
        << "uid " << r.uid;
    std::int32_t max_attempt = 0;
    bool saw_backoff = false;
    for (const RequestTracer::PhaseSpan& s : r.spans) {
      max_attempt = std::max(max_attempt, s.attempt);
      saw_backoff |= s.phase == Phase::kRetryBackoff;
    }
    EXPECT_EQ(max_attempt, r.attempts) << "uid " << r.uid;
    EXPECT_TRUE(saw_backoff) << "uid " << r.uid;
  }
  EXPECT_GT(multi_hop, 0);
}

TEST(RequestTracer, BudgetExhaustionEndsInAShedRecordWithCause) {
  TraceRunSpec rs;
  rs.faults = "task:0.2";
  rs.retry_budget = 0;
  const TraceRunOutput out = run_traced_cluster(rs);
  expect_trace_invariants(out, "shed");
  ASSERT_GT(out.stats.shed, 0);
  EXPECT_EQ(count_terminal(out, Terminal::kShed), out.stats.shed);
  for (const RequestTracer::Record& r : out.records) {
    if (r.terminal != Terminal::kShed) continue;
    EXPECT_EQ(r.cause, "task_fault");
    // The failed attempt's execution time is attributed, not lost.
    EXPECT_GT(r.buckets[static_cast<int>(Phase::kExec)], 0);
  }
}

TEST(RequestTracer, EvictedRequestGetsATerminalEvictionRecord) {
  // Overloaded single node, tiny bounded queue, urgency-ordered admission:
  // interactive arrivals evict parked batch requests (try_evict_for).
  TraceRunSpec rs;
  rs.nodes = 1;
  rs.requests = 256;
  rs.arrival_rate = 600.0e3;
  rs.queue_limit = 4;
  rs.rows_per_column = 1;  // shallow TaskTable: the backlog parks up here
  rs.sched_kind = sched::PolicyKind::kEdf;
  rs.mixed_classes = true;
  const TraceRunOutput out = run_traced_cluster(rs);
  expect_trace_invariants(out, "evictions");
  ASSERT_GT(out.stats.evicted, 0);
  EXPECT_EQ(count_terminal(out, Terminal::kEvicted), out.stats.evicted);
  for (const RequestTracer::Record& r : out.records) {
    if (r.terminal != Terminal::kEvicted) continue;
    EXPECT_EQ(r.cause, "evicted");
    // The victim was parked at admission when displaced: its wait is
    // charged to admission_block and it never reached the device.
    EXPECT_GT(r.buckets[static_cast<int>(Phase::kAdmissionBlock)], 0);
    EXPECT_EQ(r.buckets[static_cast<int>(Phase::kExec)], 0);
  }
  // A bounded queue under overload also refuses offers outright; each
  // refusal is a Drop entry keyed by offer ordinal, not a Record.
  EXPECT_EQ(static_cast<std::int64_t>(out.drops.size()), out.stats.dropped);
}

TEST(RequestTracer, WedgeTimeoutWaitLandsInExec) {
  TraceRunSpec rs;
  rs.faults = "wedge:0.1";
  rs.task_timeout = sim::microseconds(1500.0);
  const TraceRunOutput out = run_traced_cluster(rs);
  expect_trace_invariants(out, "wedges");
  ASSERT_GT(out.stats.detected_timeouts, 0);
  // Wedged attempts sit invisible until the deadline fires; that wait is
  // execution time of the doomed attempt, so some retried record's exec
  // bucket spans at least the full timeout.
  bool saw_timeout_exec = false;
  for (const RequestTracer::Record& r : out.records) {
    if (r.attempts >= 2 &&
        r.buckets[static_cast<int>(Phase::kExec)] >= rs.task_timeout) {
      saw_timeout_exec = true;
    }
  }
  EXPECT_TRUE(saw_timeout_exec);
}

// --- chaos soak property test -------------------------------------------------

TEST(RequestTracerChaos, TilingHoldsUnderRandomizedFaultPlans) {
  // Randomized fault plans over 20 seeds (rates, crash node/timing/recovery
  // all seed-derived): whatever the lifecycle — retries, wedges, crashes,
  // budget-free redispatch sweeps — every terminal record must tile
  // exactly and every admitted request must resolve exactly once.
  for (int s = 0; s < 20; ++s) {
    const std::uint64_t seed = 0xBEEF + static_cast<std::uint64_t>(s);
    const double task_rate =
        static_cast<double>(hash_index(seed, 1) % 30) / 100.0;
    const double wedge_rate =
        static_cast<double>(hash_index(seed, 2) % 6) / 100.0;
    const double xfer_rate =
        static_cast<double>(hash_index(seed, 3) % 10) / 100.0;
    const int crash_node = static_cast<int>(hash_index(seed, 4) % 2);
    const bool crash = (hash_index(seed, 5) % 4) != 0;
    const bool recover = (hash_index(seed, 6) % 2) != 0;
    std::ostringstream spec;
    spec << "task:" << task_rate << ",wedge:" << wedge_rate
         << ",xfer:" << xfer_rate;
    if (crash) {
      spec << ",crash:" << crash_node << ":"
           << 100 + hash_index(seed, 7) % 400;
      if (recover) spec << ":" << 300 + hash_index(seed, 8) % 300;
    }
    TraceRunSpec rs;
    rs.seed = seed;
    rs.faults = spec.str();
    rs.task_timeout = sim::microseconds(1500.0);
    rs.retry_budget = static_cast<int>(hash_index(seed, 9) % 4);
    const TraceRunOutput out = run_traced_cluster(rs);
    expect_trace_invariants(out, rs.faults.c_str());
    EXPECT_EQ(count_terminal(out, Terminal::kCompleted), out.stats.completed)
        << rs.faults;
    EXPECT_EQ(count_terminal(out, Terminal::kShed) +
                  count_terminal(out, Terminal::kEvicted),
              out.stats.shed)
        << rs.faults;
  }
}

// --- determinism and passivity ------------------------------------------------

TEST(RequestTracer, SpanDumpIsByteIdenticalAcrossRuns) {
  TraceRunSpec rs;
  rs.faults = "task:0.2,wedge:0.05,crash:1:300:500";
  rs.task_timeout = sim::microseconds(1500.0);
  rs.requests = 96;
  const TraceRunOutput a = run_traced_cluster(rs);
  const TraceRunOutput b = run_traced_cluster(rs);
  expect_trace_invariants(a, "run a");
  EXPECT_GT(a.stats.retries, 0);
  EXPECT_EQ(a.span_json, b.span_json);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_NE(a.span_json.find("\"format\":\"pagoda-trace-spans-v1\""),
            std::string::npos);
}

TEST(RequestTracer, TracingIsPassive) {
  // The tracer only reads simulation state: an armed run must be
  // event-for-event identical to a disarmed one — same metrics, same
  // placements, same virtual end time.
  TraceRunSpec rs;
  rs.faults = "task:0.2,wedge:0.05";
  rs.task_timeout = sim::microseconds(1500.0);
  const TraceRunOutput armed = run_traced_cluster(rs);
  rs.trace = false;
  const TraceRunOutput disarmed = run_traced_cluster(rs);
  EXPECT_EQ(armed.metrics_json, disarmed.metrics_json);
  EXPECT_EQ(armed.placements, disarmed.placements);
  EXPECT_EQ(armed.end_time, disarmed.end_time);
  EXPECT_TRUE(disarmed.records.empty());
}

// --- attribution helpers ------------------------------------------------------

TEST(Attribution, DominantPhaseAndCriticalPath) {
  std::array<double, kNumPhases> b{};
  EXPECT_EQ(dominant_phase_index(b), -1);  // all-zero: no dominant phase
  b[static_cast<int>(Phase::kSchedWait)] = 5.0;
  b[static_cast<int>(Phase::kExec)] = 3.0;
  EXPECT_EQ(dominant_phase_index(b), static_cast<int>(Phase::kSchedWait));

  // critical_path coalesces adjacent same-phase spans of one record.
  RequestTracer::Record r;
  r.spans = {{1, Phase::kH2d, 0, 0, 10}, {1, Phase::kExec, 0, 10, 30},
             {2, Phase::kExec, 0, 30, 40}, {2, Phase::kD2h, 0, 40, 45}};
  const auto path = critical_path(r);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].first, Phase::kH2d);
  EXPECT_EQ(path[0].second, 10);
  EXPECT_EQ(path[1].first, Phase::kExec);
  EXPECT_EQ(path[1].second, 30);  // 20 + 10 coalesced across the hop seam
  EXPECT_EQ(path[2].first, Phase::kD2h);
  EXPECT_EQ(path[2].second, 5);
}

TEST(Attribution, ReportValidatesTheTilingInvariant) {
  AttributionReport report;
  RequestSummary s;
  s.uid = 1;
  s.cls = "standard";
  s.terminal = "completed";
  s.e2e_us = 10.0;
  s.buckets_us[static_cast<int>(Phase::kExec)] = 6.0;
  s.buckets_us[static_cast<int>(Phase::kH2d)] = 4.0;
  report.add(s);
  std::string err;
  EXPECT_TRUE(report.validate(&err)) << err;
  s.uid = 2;
  s.e2e_us = 12.0;  // buckets still sum to 10: must be rejected
  report.add(s);
  EXPECT_FALSE(report.validate(&err));
  EXPECT_NE(err.find("uid=2"), std::string::npos);
}

// --- Perfetto export ----------------------------------------------------------

TEST(RequestTracer, TimelineExportCarriesHopsFlowsAndRequestRows) {
  TraceRunSpec rs;
  rs.faults = "task:0.25";
  rs.requests = 48;
  cluster::DispatcherConfig dc;
  std::string err;
  dc.faults = *fault::FaultPlan::parse(rs.faults, &err);
  dc.faults.seed = rs.seed;
  dc.retry.seed = rs.seed;
  RequestTracer tracer;
  cluster::OpenLoopRunner runner(std::vector<cluster::NodeConfig>(2),
                                 cluster::make_policy(rs.policy), dc);
  runner.dispatcher().set_tracer(&tracer);
  ASSERT_TRUE(runner.run(traced_source(rs), sim::seconds(60.0)));

  Timeline tl;
  tracer.export_to_timeline(tl);
  // One request-level async row per record, with class args attached.
  EXPECT_EQ(tl.num_async_spans(), tracer.records().size());
  // Hop roots plus phase children land on per-node tracks.
  EXPECT_GT(tl.num_spans(), tracer.records().size());
  // Retried requests emit flow arrows joining consecutive hops: one
  // tail + one head per seam.
  std::int64_t seams = 0;
  for (const RequestTracer::Record& r : tracer.records()) {
    seams += r.attempts - 1;
  }
  ASSERT_GT(seams, 0);
  EXPECT_EQ(tl.num_flows(), static_cast<std::size_t>(2 * seams));
  std::ostringstream os;
  tl.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find(R"("ph":"s")"), std::string::npos);
  EXPECT_NE(trace.find(R"("ph":"b")"), std::string::npos);
  EXPECT_NE(trace.find("req.dev00"), std::string::npos);
}

// --- timeline event cap (satellite: bounded buffers, counted drops) -----------

TEST(Timeline, EventCapDropsAreCountedNeverSilent) {
  Timeline tl;
  tl.set_max_events(4);
  for (int i = 0; i < 6; ++i) {
    tl.span(tl.track("t"), "s", i * 10, i * 10 + 5);
  }
  EXPECT_EQ(tl.num_events(), 4u);
  EXPECT_EQ(tl.dropped_events(), 2);
  // Every event kind honours the cap.
  tl.instant(tl.track("t"), "i", 100);
  tl.counter("c", 100, 1.0);
  tl.flow(tl.track("t"), "f", 1, 100, true);
  tl.async_span("a", 1, 0, 10);
  EXPECT_EQ(tl.num_events(), 4u);
  EXPECT_EQ(tl.dropped_events(), 6);
  // The writer still produces a well-formed trace from what was kept.
  std::ostringstream os;
  tl.write_chrome_trace(os);
  EXPECT_EQ(os.str().back(), '\n');
}

}  // namespace
}  // namespace pagoda::obs
