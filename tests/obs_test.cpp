// Observability layer tests: metrics registry semantics and formatting,
// timeline/Chrome-trace invariants, and the two end-to-end guarantees the
// subsystem makes:
//   * determinism — two identically seeded runs produce byte-identical
//     metrics snapshots (golden-snapshot property, not a stored golden file);
//   * coverage — every runtime populates the acceptance metric set through
//     the harness, and the profile export is structurally valid with
//     non-negative, time-monotone counter tracks.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/calibration.h"
#include "harness/experiment.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "power/governor.h"
#include "power/power_spec.h"

namespace pagoda::obs {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CounterGaugeStatBasics) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("a.events").add();
  reg.counter("a.events").add(4);
  reg.gauge("a.level").set(0.5);
  reg.stat("a.samples").add(1.0);
  reg.stat("a.samples").add(3.0);
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.counter_value("a.events"), 5);
  EXPECT_EQ(reg.counter_value("missing", -7), -7);
  EXPECT_DOUBLE_EQ(reg.gauge_value("a.level"), 0.5);
  EXPECT_DOUBLE_EQ(reg.stat("a.samples").stats().mean(), 2.0);
  EXPECT_DOUBLE_EQ(reg.stat("a.samples").stats().max(), 3.0);
  EXPECT_TRUE(reg.has_counter("a.events"));
  EXPECT_FALSE(reg.has_counter("a.level"));
  EXPECT_TRUE(reg.has_gauge("a.level"));
  EXPECT_TRUE(reg.has_stat("a.samples"));
}

TEST(Metrics, HistogramLog2Bucketing) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max_bucket(), -1);
  h.add(0.0);   // bucket 0: < 1
  h.add(0.5);   // bucket 0
  h.add(1.0);   // bucket 1: [1, 2)
  h.add(1.99);  // bucket 1
  h.add(2.0);   // bucket 2: [2, 4)
  h.add(3.0);   // bucket 2
  h.add(4.0);   // bucket 3: [4, 8)
  h.add(1024.0);  // bucket 11
  h.add(0.25);    // sub-unit values share bucket 0 (negatives are rejected
                  // by a CHECK — the registry stores latencies/sizes only)
  EXPECT_EQ(h.count(), 9);
  EXPECT_EQ(h.bucket(0), 3);
  EXPECT_EQ(h.bucket(1), 2);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.bucket(11), 1);
  EXPECT_EQ(h.max_bucket(), 11);
}

TEST(Metrics, DoubleFormattingIsStable) {
  // The snapshot format contract: %.9g with -0.0 normalized, so identical
  // values always serialize identically.
  EXPECT_EQ(format_metric_double(0.0), "0");
  EXPECT_EQ(format_metric_double(-0.0), "0");
  EXPECT_EQ(format_metric_double(1.0), "1");
  EXPECT_EQ(format_metric_double(0.5), "0.5");
  EXPECT_EQ(format_metric_double(1.0 / 3.0), format_metric_double(1.0 / 3.0));
}

TEST(Metrics, JsonSnapshotIsSortedAndStable) {
  MetricsRegistry reg;
  // Insert in non-lexicographic order; the snapshot must sort.
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.gauge("m.mid").set(3.25);
  reg.stat("s.one").add(1.0);
  reg.histogram("h.one").add(2.0);
  std::ostringstream a;
  std::ostringstream b;
  reg.write_json(a);
  reg.write_json(b);
  EXPECT_EQ(a.str(), b.str());  // serialization itself is pure
  const std::string json = a.str();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// --- Timeline --------------------------------------------------------------

TEST(Timeline, TrackInterningAndRecording) {
  Timeline tl;
  EXPECT_TRUE(tl.empty());
  const Timeline::TrackId a = tl.track("tasks");
  const Timeline::TrackId b = tl.track("pcie.h2d");
  EXPECT_EQ(tl.track("tasks"), a);  // same name, same id
  EXPECT_NE(a, b);
  tl.span(a, "task", 1000, 5000);
  tl.instant(b, "step", 2000);
  tl.counter("gpu.occupancy", 0, 0.0);
  tl.counter("gpu.occupancy", 1000, 0.5);
  EXPECT_EQ(tl.num_spans(), 1u);
  EXPECT_EQ(tl.num_instants(), 1u);
  EXPECT_EQ(tl.num_counter_samples(), 2u);
  EXPECT_EQ(tl.num_tracks(), 2u);
  EXPECT_EQ(tl.track_name(a), "tasks");
  ASSERT_EQ(tl.spans().size(), 1u);
  EXPECT_EQ(tl.name_of(tl.spans()[0].name), "task");
}

TEST(Timeline, ChromeTraceShapesAndCounts) {
  Timeline tl;
  const Timeline::TrackId t = tl.track("tasks");
  tl.span(t, "task", 0, 3000000);
  tl.span(t, "task", 1000000, 2000000);
  tl.instant(t, "mark", 1500000);
  tl.counter("fill", 0, 1.0);
  tl.counter("fill", 1000000, 2.0);
  std::ostringstream os;
  tl.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  auto count_of = [&json](const char* needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_of("\"ph\":\"i\""), 1u);
  EXPECT_EQ(count_of("\"ph\":\"C\""), 2u);
  EXPECT_EQ(count_of("\"ph\":\"M\""), 1u);  // one thread_name per track
}

TEST(Timeline, CsvListsEveryRecord) {
  Timeline tl;
  const Timeline::TrackId t = tl.track("tasks");
  tl.span(t, "task", 0, 1000000);
  tl.counter("fill", 0, 1.0);
  std::ostringstream os;
  tl.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_us,kind,track,name,value"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            1u + tl.num_spans() + tl.num_instants() +
                tl.num_counter_samples());
}

// --- End-to-end: harness + collector ---------------------------------------

baselines::RunConfig small_cfg(Collector* c) {
  baselines::RunConfig rcfg = harness::paper_platform();
  rcfg.collect_latencies = true;
  rcfg.collector = c;
  return rcfg;
}

workloads::WorkloadConfig small_wcfg() {
  workloads::WorkloadConfig wcfg;
  wcfg.num_tasks = 96;
  wcfg.threads_per_task = 128;
  wcfg.seed = 0xDECAF;
  return wcfg;
}

std::string metrics_json(const std::string& runtime, bool timeline) {
  CollectorConfig ccfg;
  ccfg.timeline = timeline;
  Collector collector(ccfg);
  const harness::Measurement m = harness::run_experiment(
      "MM", runtime, small_wcfg(), small_cfg(&collector));
  EXPECT_TRUE(collector.finished());
  std::ostringstream os;
  m.metrics.write_json(os);
  return os.str();
}

TEST(Collector, IdenticalSeededRunsProduceByteIdenticalMetrics) {
  // The golden-snapshot determinism property from the issue: running the
  // same seeded experiment twice must serialize to the same bytes, for the
  // full Pagoda runtime and for a baseline.
  EXPECT_EQ(metrics_json("Pagoda", false), metrics_json("Pagoda", false));
  EXPECT_EQ(metrics_json("HyperQ", false), metrics_json("HyperQ", false));
}

TEST(Collector, AttachingACollectorDoesNotPerturbTheRun) {
  // Passive-sampling invariant: the measured virtual time must be identical
  // with and without a collector attached.
  Collector collector;
  const harness::Measurement with = harness::run_experiment(
      "MM", "Pagoda", small_wcfg(), small_cfg(&collector));
  const harness::Measurement without = harness::run_experiment(
      "MM", "Pagoda", small_wcfg(), small_cfg(nullptr));
  EXPECT_EQ(with.result.elapsed, without.result.elapsed);
  ASSERT_EQ(with.result.task_latency_us.size(),
            without.result.task_latency_us.size());
  for (std::size_t i = 0; i < with.result.task_latency_us.size(); ++i) {
    EXPECT_EQ(with.result.task_latency_us[i],
              without.result.task_latency_us[i])
        << "task " << i;
  }
  EXPECT_TRUE(without.metrics.empty());
}

TEST(Collector, EveryRuntimePopulatesTheCoreMetricSet) {
  const std::vector<std::string> runtimes{
      "Sequential", "PThreads", "HyperQ", "GeMTC",
      "Fusion",     "Pagoda",   "PagodaBatching"};
  for (const std::string& rt : runtimes) {
    Collector collector;
    workloads::WorkloadConfig wcfg = small_wcfg();
    wcfg.num_tasks = 64;
    const harness::Measurement m =
        harness::run_experiment("MM", rt, wcfg, small_cfg(&collector));
    SCOPED_TRACE(rt);
    EXPECT_EQ(m.metrics.counter_value("run.tasks"), 64);
    EXPECT_GT(m.metrics.gauge_value("run.elapsed_ms"), 0.0);
    // Latency histogram fed by the harness for every runtime.
    MetricsRegistry reg = m.metrics;
    EXPECT_EQ(reg.histogram("task.latency_us").count(), 64);
    const bool on_gpu = rt != "Sequential" && rt != "PThreads";
    if (on_gpu) {
      EXPECT_GT(m.metrics.counter_value("pcie.h2d.bytes"), 0);
      EXPECT_GT(m.metrics.gauge_value("pcie.h2d.achieved_gbps"), 0.0);
      // A fraction of the device's warp capacity — in particular it must not
      // integrate residency past end_time (persistent-worker runtimes keep
      // warps resident right up to the end of the run).
      EXPECT_GT(m.metrics.gauge_value("gpu.occupancy.achieved"), 0.0);
      // GeMTC's persistent workers own every slot for the whole run, so the
      // fraction lands exactly on 1 up to float rounding in the integral.
      EXPECT_LE(m.metrics.gauge_value("gpu.occupancy.achieved"), 1.0 + 1e-9);
      EXPECT_TRUE(m.metrics.has_stat("gpu.resident_warps"));
      EXPECT_TRUE(m.metrics.has_stat("gpu.issue_utilization"));
    } else {
      EXPECT_GT(m.metrics.gauge_value("cpu.busy_fraction"), 0.0);
      EXPECT_TRUE(m.metrics.has_stat("cpu.active_tasks"));
    }
    if (rt == "Pagoda" || rt == "PagodaBatching") {
      EXPECT_EQ(m.metrics.counter_value("pagoda.tasks_spawned"), 64);
      EXPECT_EQ(m.metrics.counter_value("pagoda.tasks_completed"), 64);
      EXPECT_GT(m.metrics.counter_value("pagoda.warps_dispatched"), 0);
      EXPECT_GT(m.metrics.gauge_value("pagoda.sched.busy_fraction"), 0.0);
      EXPECT_GT(m.metrics.gauge_value("pagoda.executors.utilization"), 0.0);
      EXPECT_TRUE(m.metrics.has_stat("pagoda.tasktable.fill"));
      EXPECT_TRUE(m.metrics.has_stat("pagoda.shmem.bytes_in_use"));
      EXPECT_TRUE(m.metrics.has_stat("pagoda.executors.busy"));
    }
  }
}

TEST(Collector, ProfileCounterTracksAreNonNegativeAndMonotone) {
  CollectorConfig ccfg;
  ccfg.timeline = true;
  Collector collector(ccfg);
  const harness::Measurement m = harness::run_experiment(
      "MM", "Pagoda", small_wcfg(), small_cfg(&collector));
  (void)m;
  const Timeline& tl = collector.timeline();
  EXPECT_GT(tl.num_spans(), 0u);
  EXPECT_GT(tl.num_counter_samples(), 0u);
  std::map<int, sim::Time> last_time;
  for (const Timeline::CounterSample& s : tl.counter_samples()) {
    EXPECT_GE(s.value, 0.0) << tl.series_name(s.series);
    const auto it = last_time.find(s.series);
    if (it != last_time.end()) {
      EXPECT_GE(s.time, it->second) << tl.series_name(s.series);
    }
    last_time[s.series] = s.time;
  }
  // Task spans are well-formed intervals within the run.
  for (const Timeline::Span& sp : tl.spans()) {
    EXPECT_LE(sp.start, sp.end);
    EXPECT_GE(sp.start, 0);
  }
}

TEST(Collector, ProfileExportParsesAsBalancedJson) {
  // Minimal structural validation of the Chrome trace export; the Python
  // toolchain is not available in the test environment, so check the JSON
  // invariants that matter for chrome://tracing ingestion by hand.
  CollectorConfig ccfg;
  ccfg.timeline = true;
  Collector collector(ccfg);
  (void)harness::run_experiment("MM", "HyperQ", small_wcfg(),
                                small_cfg(&collector));
  std::ostringstream os;
  collector.timeline().write_chrome_trace(os);
  const std::string json = os.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Collector, SamplerSelfTerminatesAtQueueDrain) {
  // All sampled values must carry timestamps within [0, end_time]: the
  // sampler must not keep ticking to the time cap after the run drains.
  Collector collector;
  harness::Measurement m = harness::run_experiment(
      "MM", "Pagoda", small_wcfg(), small_cfg(&collector));
  const double elapsed_ms = m.metrics.gauge_value("run.elapsed_ms");
  EXPECT_GT(elapsed_ms, 0.0);
  ASSERT_TRUE(m.metrics.has_stat("gpu.resident_warps"));
  // 96 tasks run in well under a second; a runaway sampler would record
  // ~180M ticks to the 3600 s cap and blow the sample counts sky high.
  const RunningStats& rs = m.metrics.stat("gpu.resident_warps").stats();
  EXPECT_GT(rs.count(), 0u);
  EXPECT_LT(static_cast<double>(rs.count()),
            elapsed_ms * 1000.0 / 20.0 + 2.0);  // ticks at 20 us cadence
}

// The Collector's periodic tick is the only sampling path. A dvfs run moves
// P- and C-states between ticks on every node, and none of those edges adds
// a sample: every sampled cluster and per-device series holds exactly one
// value per tick, so all share one count, bounded by the ticks that fit in
// the run. The run's events end at the governor's last check, at most one
// governor period after the last completion.
TEST(Collector, PowerTransitionsAddNoSamplesOffTheClock) {
  Collector collector;
  baselines::RunConfig rcfg = small_cfg(&collector);
  rcfg.cluster.specs = {gpu::GpuSpec::titan_x(), gpu::GpuSpec::titan_x()};
  rcfg.cluster.dispatcher.power.spec = power::PowerSpec::default_spec();
  rcfg.cluster.dispatcher.power.governor = power::GovernorKind::kDvfs;
  workloads::WorkloadConfig wcfg = small_wcfg();
  wcfg.num_tasks = 1024;
  rcfg.cluster.seed = wcfg.seed;
  const harness::Measurement m =
      harness::run_experiment("MM", "Cluster", wcfg, rcfg);
  ASSERT_EQ(m.metrics.counter_value("cluster.requests.completed"), 1024);
  ASSERT_GT(m.metrics.counter_value("power.transitions"), 0);

  std::ostringstream os;
  m.metrics.write_json(os);
  const std::string json = os.str();
  const std::size_t begin = json.find("\"stats\": {");
  const std::size_t end = json.find("\"histograms\": {");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string stats = json.substr(begin, end - begin);
  const std::regex sampled(
      R"re("((cluster|dev\d\d\.(gpu|pagoda))\.[^"]*)": \{"count": (\d+),)re");
  std::map<std::string, long> counts;
  for (auto it = std::sregex_iterator(stats.begin(), stats.end(), sampled);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    // Per-MTB executor utilization is a finish-time stat (one value per
    // MTB), not a sampled series.
    if (name.find(".pagoda.mtb.") != std::string::npos) continue;
    counts[name] = std::stol((*it)[4]);
  }
  ASSERT_TRUE(counts.count("cluster.in_flight"));
  ASSERT_TRUE(counts.count("dev00.gpu.issue_utilization"));
  ASSERT_TRUE(counts.count("dev01.pagoda.tasktable.fill"));

  const sim::Time last_event =
      sim::milliseconds(m.metrics.gauge_value("run.elapsed_ms")) +
      power::kGovernorPeriod;
  const long max_ticks =
      static_cast<long>(last_event / CollectorConfig{}.sample_period) + 1;
  const long ticks = counts.at("cluster.in_flight");
  EXPECT_GT(ticks, 0);
  EXPECT_LE(ticks, max_ticks);
  for (const auto& [name, n] : counts) {
    EXPECT_EQ(n, ticks) << name;
  }
}

}  // namespace
}  // namespace pagoda::obs
