// Driver for the multi-GPU serving layer (src/cluster/): turns a workload's
// task list into an open-loop request stream over a Dispatcher fronting N
// Pagoda runtimes. This is the scale-out counterpart of pagoda_driver.cpp —
// instead of two spawner threads feeding one device, an arrival process
// offers requests and a placement policy spreads them over the fleet.
//
// The "Cluster" runtime only handles wave-free workloads: a serving cluster
// has no global barrier to express SLUD's dependency waves.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factories.h"
#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "common/check.h"
#include "engine/result_builder.h"
#include "fault/plan.h"
#include "engine/session.h"
#include "obs/collector.h"
#include "power/governor.h"
#include "sim/process.h"

namespace pagoda::baselines {
namespace {

using workloads::TaskSpec;

std::string node_prefix(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "dev%02d.", index);
  return buf;
}

struct ClusterRunState {
  engine::Session session;  // clock-only; each GpuNode builds a sub-session
  sim::Simulation& sim = session.sim();
  cluster::Cluster fleet;
  cluster::Dispatcher dispatcher;
  bool done = false;
  sim::Time end_time = 0;

  ClusterRunState(const RunConfig& cfg,
                  std::unique_ptr<cluster::PlacementPolicy> policy)
      : session(clock_only()),
        fleet(sim, node_configs(cfg)),
        dispatcher(fleet, std::move(policy), dispatcher_config(cfg)) {}

  static engine::SessionConfig clock_only() {
    engine::SessionConfig c;
    c.device = false;
    return c;
  }

  static std::vector<cluster::NodeConfig> node_configs(const RunConfig& cfg) {
    std::vector<gpu::GpuSpec> specs = cfg.cluster.specs;
    if (specs.empty()) specs.push_back(cfg.spec);
    std::vector<cluster::NodeConfig> nodes;
    nodes.reserve(specs.size());
    for (const gpu::GpuSpec& spec : specs) {
      cluster::NodeConfig nc;
      nc.spec = spec;
      nc.pcie = cfg.pcie;
      nc.host = cfg.host;
      nc.pagoda = cfg.pagoda;
      nc.pagoda.mode = cfg.mode;
      // One policy end-to-end: the scheduler warps claim in the same order
      // the dispatcher admits.
      nc.pagoda.sched = cfg.cluster.sched;
      nodes.push_back(nc);
    }
    return nodes;
  }

  static cluster::DispatcherConfig dispatcher_config(const RunConfig& cfg) {
    cluster::DispatcherConfig dc;
    dc.queue_limit = cfg.cluster.queue_limit;
    dc.default_slo = cfg.cluster.slo;
    dc.host = cfg.host;
    std::string err;
    std::optional<fault::FaultPlan> plan =
        fault::FaultPlan::parse(cfg.cluster.faults, &err);
    PAGODA_CHECK_MSG(plan.has_value(), "bad --faults spec (CLI validates "
                                       "first; direct callers must too)");
    dc.faults = std::move(*plan);
    if (dc.faults.seed == 0) dc.faults.seed = cfg.cluster.seed;
    dc.retry.seed = dc.faults.seed;
    if (cfg.cluster.retry_budget >= 0) {
      dc.retry.budget = cfg.cluster.retry_budget;
    }
    dc.task_timeout = cfg.cluster.task_timeout;
    dc.sched = cfg.cluster.sched;
    dc.qos = cfg.cluster.qos;
    // One oversubscription factor end-to-end: virtual slot admission here
    // mirrors the per-node VirtualShmem/register virtualization.
    dc.oversub = cfg.pagoda.oversub;
    if (!cfg.cluster.power.empty()) {
      dc.power.spec = power::PowerSpec::parse(cfg.cluster.power, &err);
      PAGODA_CHECK_MSG(dc.power.spec.has_value(),
                       "bad --power spec (CLI validates first; direct "
                       "callers must too)");
      const std::optional<power::GovernorKind> gov =
          power::parse_governor(cfg.cluster.governor);
      PAGODA_CHECK_MSG(gov.has_value(), "unknown power governor");
      dc.power.governor = *gov;
      dc.power.cap_watts = cfg.cluster.power_cap_watts;
      // energy-min packs the fleet precisely so the governor can sleep the
      // idle tail; the two are one strategy, so packing arms sleep.
      dc.power.manage_sleep = cfg.cluster.policy == "energy-min";
    }
    dc.migration.enabled = cfg.cluster.migrate;
    if (!cfg.cluster.autoscale.empty()) {
      std::optional<migrate::AutoscaleConfig> as =
          migrate::parse_autoscale_spec(cfg.cluster.autoscale, &err);
      PAGODA_CHECK_MSG(as.has_value(), "bad --autoscale spec (CLI validates "
                                       "first; direct callers must too)");
      dc.autoscale = std::move(*as);
    }
    if (!cfg.cluster.resize.empty()) {
      std::optional<std::vector<migrate::ResizeStep>> plan =
          migrate::parse_resize_spec(cfg.cluster.resize, &err);
      PAGODA_CHECK_MSG(plan.has_value(), "bad --resize spec (CLI validates "
                                         "first; direct callers must too)");
      dc.autoscale.plan = std::move(*plan);
    }
    return dc;
  }
};

/// The open-loop source: offers one request per workload task, paced by the
/// arrival process. Requests inherit the task's kernel and copy volumes.
sim::Process source(ClusterRunState& st, const RunConfig& cfg,
                    std::span<const TaskSpec> tasks,
                    cluster::ArrivalConfig acfg) {
  cluster::ArrivalSequence seq(acfg, cfg.cluster.seed);
  for (int i = 0; i < static_cast<int>(tasks.size()); ++i) {
    const sim::Duration gap = seq.next_gap();
    if (gap > 0) co_await st.sim.delay(gap);
    const TaskSpec& t = tasks[static_cast<std::size_t>(i)];
    cluster::Request r;
    r.params = t.params;
    if (cfg.include_data_copies) {
      r.h2d_bytes = t.h2d_bytes;
      r.d2h_bytes = t.d2h_bytes;
    }
    r.index = i;
    r.cls = cfg.cluster.default_class;
    st.dispatcher.offer(std::move(r));
  }
  st.dispatcher.close();
}

sim::Process drainer(ClusterRunState& st) {
  co_await st.dispatcher.drain();
  st.end_time = st.sim.now();
  st.done = true;
}

class ClusterDriver final : public TaskRuntime {
 public:
  std::string_view name() const override { return "Cluster"; }

  bool supports(const workloads::Workload& w) const override {
    return max_wave(w) == 0;  // no global barrier in a serving cluster
  }

  RunResult run(workloads::Workload& w, const RunConfig& cfg) override {
    std::unique_ptr<cluster::PlacementPolicy> policy =
        cluster::make_policy(cfg.cluster.policy);
    PAGODA_CHECK_MSG(policy != nullptr, "unknown placement policy");
    const std::optional<cluster::ArrivalConfig> acfg =
        cluster::ArrivalConfig::parse(cfg.cluster.arrival);
    PAGODA_CHECK_MSG(acfg.has_value(), "bad arrival spec");

    ClusterRunState st(cfg, std::move(policy));
    if (cfg.collector != nullptr) {
      for (int i = 0; i < st.fleet.size(); ++i) {
        st.fleet.node(i).session().attach_collector(*cfg.collector,
                                                    node_prefix(i));
      }
      st.dispatcher.install_sampler(*cfg.collector);
      if (cfg.collector->spans_enabled()) {
        st.dispatcher.set_tracer(&cfg.collector->request_tracer());
      }
    }
    st.fleet.start();
    st.sim.spawn(source(st, cfg, w.tasks(), *acfg));
    st.sim.spawn(drainer(st));
    st.sim.run_until(cfg.time_cap);

    engine::ResultBuilder marks(0);  // the dispatcher supplies everything
    marks.complete(st.done, st.end_time);
    marks.set_tasks(st.dispatcher.stats().completed);
    double warp_capacity = 0.0;
    for (int i = 0; i < st.fleet.size(); ++i) {
      gpu::Device& dev = st.fleet.node(i).device();
      marks.wires_from(dev);
      warp_capacity += static_cast<double>(dev.spec().max_resident_warps());
    }
    marks.occupancy_integral(st.fleet.executor_busy_warp_seconds(),
                             warp_capacity);
    if (cfg.collect_latencies) {
      marks.set_latencies({st.dispatcher.latencies_us().begin(),
                           st.dispatcher.latencies_us().end()});
    }
    for (const cluster::Dispatcher::Span& s : st.dispatcher.spans()) {
      marks.add_span(s.arrival, s.done);
    }
    if (cfg.collector != nullptr) {
      st.dispatcher.export_metrics(cfg.collector->metrics());
    }
    RunResult res = marks.assemble(cfg.collect_latencies, cfg.collector);
    st.fleet.shutdown();
    return res;
  }
};

}  // namespace

std::unique_ptr<TaskRuntime> make_cluster_runtime() {
  return std::make_unique<ClusterDriver>();
}

}  // namespace pagoda::baselines
