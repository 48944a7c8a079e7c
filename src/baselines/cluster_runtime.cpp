// Driver for the multi-GPU serving layer (src/cluster/): turns a workload's
// task list into an open-loop request stream over a Dispatcher fronting N
// Pagoda runtimes. This is the scale-out counterpart of pagoda_driver.cpp —
// instead of two spawner threads feeding one device, an arrival process
// offers requests and a placement policy spreads them over the fleet.
//
// The "Cluster" runtime only handles wave-free workloads: a serving cluster
// has no global barrier to express SLUD's dependency waves.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factories.h"
#include "cluster/open_loop.h"
#include "common/check.h"
#include "engine/result_builder.h"
#include "obs/collector.h"

namespace pagoda::baselines {
namespace {

using workloads::TaskSpec;

std::string node_prefix(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "dev%02d.", index);
  return buf;
}

std::vector<cluster::NodeConfig> node_configs(const RunConfig& cfg) {
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
    nodes.push_back(nc);
  }
  return nodes;
}

class ClusterDriver final : public TaskRuntime {
 public:
  std::string_view name() const override { return "Cluster"; }

  bool supports(const workloads::Workload& w) const override {
    return max_wave(w) == 0;  // no global barrier in a serving cluster
  }

  RunResult do_run(workloads::Workload& w, const RunConfig& cfg) override {
    std::unique_ptr<cluster::PlacementPolicy> policy =
        cluster::make_policy(cfg.cluster.policy);
    PAGODA_CHECK_MSG(policy != nullptr, "unknown placement policy");
    cluster::OpenLoopRunner runner(node_configs(cfg), std::move(policy),
                                   cluster_dispatcher_config(cfg));
    cluster::Cluster& fleet = runner.fleet();
    cluster::Dispatcher& dispatcher = runner.dispatcher();
    if (cfg.collector != nullptr) {
      for (int i = 0; i < fleet.size(); ++i) {
        fleet.node(i).session().attach_collector(*cfg.collector,
                                                 node_prefix(i));
      }
      dispatcher.install_sampler(*cfg.collector);
      if (cfg.collector->spans_enabled()) {
        dispatcher.set_tracer(&cfg.collector->request_tracer());
      }
    }
    // The open-loop source offers one request per workload task; requests
    // inherit the task's kernel and copy volumes.
    const std::span<const TaskSpec> tasks = w.tasks();
    cluster::ArrivalSource source;
    source.arrival = cfg.cluster.arrival;
    source.seed = cfg.cluster.seed;
    source.requests = static_cast<int>(tasks.size());
    source.make = [&](int i) {
      const TaskSpec& t = tasks[static_cast<std::size_t>(i)];
      cluster::Request r;
      r.params = t.params;
      if (cfg.include_data_copies) {
        r.h2d_bytes = t.h2d_bytes;
        r.d2h_bytes = t.d2h_bytes;
      }
      r.index = i;
      r.cls = cfg.cluster.default_class;
      return r;
    };
    runner.run(std::move(source), cfg.time_cap);

    engine::ResultBuilder marks(0);  // the dispatcher supplies everything
    marks.complete(runner.done(), runner.end_time());
    marks.set_tasks(dispatcher.stats().completed);
    double warp_capacity = 0.0;
    for (int i = 0; i < fleet.size(); ++i) {
      gpu::Device& dev = fleet.node(i).device();
      marks.wires_from(dev);
      warp_capacity += static_cast<double>(dev.spec().max_resident_warps());
    }
    marks.occupancy_integral(fleet.executor_busy_warp_seconds(),
                             warp_capacity);
    if (cfg.collect_latencies) {
      marks.set_latencies({dispatcher.latencies_us().begin(),
                           dispatcher.latencies_us().end()});
    }
    for (const cluster::Dispatcher::Span& s : dispatcher.spans()) {
      marks.add_span(s.arrival, s.done);
    }
    if (cfg.collector != nullptr) {
      dispatcher.export_metrics(cfg.collector->metrics());
    }
    return marks.assemble(cfg.collect_latencies, cfg.collector);
  }
};

}  // namespace

cluster::DispatcherConfig cluster_dispatcher_config(const RunConfig& cfg) {
  cluster::DispatcherConfig dc = cfg.cluster.dispatcher;
  dc.host = cfg.host;
  dc.sched = cfg.pagoda.sched;
  dc.oversub = cfg.pagoda.oversub;
  // energy-min packs the fleet precisely so the governor can sleep the idle
  // tail; the two are one strategy, so packing arms sleep.
  dc.power.manage_sleep = cfg.cluster.policy == "energy-min";
  if (dc.faults.seed == 0) dc.faults.seed = cfg.cluster.seed;
  dc.retry.seed = dc.faults.seed;
  return dc;
}

std::unique_ptr<TaskRuntime> make_cluster_runtime() {
  return std::make_unique<ClusterDriver>();
}

}  // namespace pagoda::baselines
