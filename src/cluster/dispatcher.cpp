#include "cluster/dispatcher.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/check.h"
#include "common/stats.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "obs/qos.h"
#include "obs/trace_span.h"
#include "sim/process.h"

namespace pagoda::cluster {

namespace {

std::string dev_key(int index, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "cluster.dev%02d.%s", index, suffix);
  return buf;
}

/// The governor's window onto the dispatcher: pure forwarding over the
/// public Dispatcher/Cluster/GpuNode surface, so src/power never depends on
/// src/cluster and the layering gate stays greppable.
class FleetAdapter final : public power::FleetControl {
 public:
  explicit FleetAdapter(Dispatcher& d) : d_(&d) {}
  int num_nodes() const override { return d_->cluster().size(); }
  power::NodePower* node_power(int node) override {
    return d_->cluster().node(node).power();
  }
  int node_outstanding(int node) const override {
    return d_->cluster().node(node).outstanding();
  }
  std::int64_t node_free_slots(int node) const override {
    return d_->free_slots(node);
  }
  std::int64_t node_capacity(int node) const override {
    return d_->cluster().node(node).capacity();
  }
  int queued_backlog() const override { return d_->queued_backlog(); }
  bool node_eligible(int node) const override {
    return d_->cluster().node(node).eligible();
  }
  bool idle() const override { return d_->idle(); }
  void quiesce_node(int node) override { d_->drain_node(node); }
  void restore_node(int node) override { d_->reinstate_node(node); }

 private:
  Dispatcher* d_;
};

}  // namespace

Dispatcher::Dispatcher(Cluster& cluster,
                       std::unique_ptr<PlacementPolicy> policy,
                       DispatcherConfig cfg)
    : cluster_(&cluster),
      policy_(std::move(policy)),
      cfg_(std::move(cfg)),
      sched_policy_(cfg_.sched),
      drained_(cluster.sim()),
      work_cv_(cluster.sim()) {
  PAGODA_CHECK_MSG(policy_ != nullptr, "Dispatcher needs a placement policy");
  const std::string invalid = validate(cfg_, cluster.size(), policy_->name());
  PAGODA_CHECK_MSG(invalid.empty(), invalid.c_str());
  qos_ = cfg_.qos || cfg_.sched.kind != sched::PolicyKind::kFifo;
  node_state_.resize(static_cast<std::size_t>(cluster.size()));
  for (int i = 0; i < cluster.size(); ++i) {
    GpuNode& node = cluster.node(i);
    NodeState& ns = node_state_[static_cast<std::size_t>(i)];
    ns.disp = this;
    ns.index = i;
    // Virtual admission: the slot queue backpressures on floor(oversub x
    // TaskTable entries) (== entries at oversub 1), so up to (virtual -
    // physical) extra requests per node stage inputs and pipeline behind
    // task_spawn instead of queueing host-side. records[] stays PHYSICAL —
    // only tasks that actually own a table entry are tracked, so
    // entry-indexed bookkeeping is unaffected by over-admission.
    ns.slot_capacity =
        static_cast<int>(static_cast<double>(node.capacity()) * cfg_.oversub);
    ns.slots = std::make_unique<sched::ReadyQueue>(cluster.sim(),
                                                   ns.slot_capacity,
                                                   sched_policy_);
    const runtime::TaskTable& table = node.rt().cpu_table();
    ns.records = runtime::EntryRows<std::unique_ptr<NodeState::Record>>(
        table.columns(), table.rows());
    ns.activity = std::make_unique<sim::Condition>(cluster.sim());
    node.rt().set_completion_observer(
        [this, i](runtime::TaskId id, sim::Time) { on_task_complete(i, id); });
    cluster.sim().spawn(flush_timer(i));
  }
  if (cfg_.faults.enabled() || cfg_.task_timeout > 0) {
    for (const fault::CrashEvent& ev : cfg_.faults.crashes) {
      sim().spawn(crash_node(ev), sim().reserve_event(ev.at));
    }
    for (const fault::DegradeWindow& w : cfg_.faults.degrades) {
      sim().spawn(degrade_edge(w.node, w.factor, true),
                  sim().reserve_event(w.at));
      sim().spawn(degrade_edge(w.node, 1.0, false),
                  sim().reserve_event(w.at + w.duration));
    }
    if (cfg_.faults.transfer_fault_rate > 0.0) {
      for (int i = 0; i < cluster.size(); ++i) {
        // Per-node issue counter: the n-th payload transfer on node i
        // corrupts (or not) regardless of cross-node interleaving.
        cluster.node(i).session().pcie().set_transfer_fault_fn(
            [this, i, seq = std::uint64_t{0}](pcie::Direction,
                                              std::int64_t) mutable {
              return cfg_.faults.transfer_corrupts(i, seq++);
            });
      }
    }
    watchdog_ = std::make_unique<fault::Watchdog>(cfg_.watchdog,
                                                  cluster.size());
    sim().spawn(watchdog_loop());
  }
  if (cfg_.power.enabled()) {
    const power::PowerSpec& spec = *cfg_.power.spec;
    for (int i = 0; i < cluster.size(); ++i) {
      GpuNode& node = cluster.node(i);
      std::vector<gpu::Smm*> smms;
      smms.reserve(static_cast<std::size_t>(node.device().num_smms()));
      for (int s = 0; s < node.device().num_smms(); ++s) {
        smms.push_back(&node.device().smm(s));
      }
      auto np =
          std::make_unique<power::NodePower>(sim(), spec, std::move(smms));
      node.attach_power(std::move(np));
    }
    // Power-aware placement reads the same budget the powercap governor
    // enforces; a no-op for every other policy.
    policy_->set_power_cap(cfg_.power.cap_watts);
    fleet_adapter_ = std::make_unique<FleetAdapter>(*this);
    governor_ = std::make_unique<power::PowerGovernor>(sim(), cfg_.power,
                                                       *fleet_adapter_);
    governor_->start();
  }
  if (cfg_.migration.enabled) {
    migration_ = std::make_unique<migrate::MigrationManager>(cfg_.migration);
  }
  if (cfg_.autoscale.armed()) {
    autoscaler_ = std::make_unique<migrate::Autoscaler>(sim(), cfg_.autoscale,
                                                        *fleet_adapter_);
    autoscaler_->start();
  }
}

std::string Dispatcher::validate(const DispatcherConfig& cfg, int num_nodes,
                                 std::string_view policy) {
  const auto fmt = [](const char* f, int a, int b) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), f, a, b);
    return std::string(buf);
  };
  if (!(cfg.oversub >= 1.0)) {
    return "oversub must be >= 1.0: a smaller factor would silently strand "
           "physical capacity (use a smaller TaskTable instead)";
  }
  if (cfg.faults.needs_deadline() && cfg.task_timeout <= 0) {
    return "this --faults plan wedges tasks or crashes nodes, which only a "
           "task deadline can detect; add --task-timeout-us=X (e.g. "
           "--task-timeout-us=2000)";
  }
  for (const fault::CrashEvent& ev : cfg.faults.crashes) {
    if (ev.node < 0 || ev.node >= num_nodes) {
      return fmt("--faults crash targets node %d but the cluster has %d "
                 "node(s)",
                 ev.node, num_nodes);
    }
  }
  for (const fault::DegradeWindow& w : cfg.faults.degrades) {
    if (w.node < -1 || w.node >= num_nodes) {  // -1: every node
      return fmt("--faults degrade targets node %d but the cluster has %d "
                 "node(s)",
                 w.node, num_nodes);
    }
  }
  if (cfg.autoscale.armed()) {
    if (!cfg.migration.enabled) {
      return "--autoscale/--resize resize the fleet by draining nodes, which "
             "needs the migration plane; add --migrate (a shrink drain must "
             "migrate, not shed)";
    }
    if (!cfg.power.enabled()) {
      return "--autoscale/--resize park drained nodes in S-states, which "
             "needs the power plane; add --power=SPEC";
    }
    if (cfg.power.manage_sleep || policy == "energy-min") {
      return "--policy=energy-min manages sleep itself and cannot share the "
             "fleet with --autoscale/--resize; pick another --policy";
    }
    if (cfg.autoscale.enabled && cfg.autoscale.min_nodes > num_nodes) {
      return fmt("--autoscale MIN=%d exceeds the fleet's %d node(s)",
                 cfg.autoscale.min_nodes, num_nodes);
    }
    for (const migrate::ResizeStep& step : cfg.autoscale.plan) {
      if (step.target > num_nodes) {
        return fmt("--resize targets %d node(s) but the cluster has %d",
                   step.target, num_nodes);
      }
    }
  }
  if (cfg.power.cap_watts > 0.0) {
    if (!cfg.power.enabled()) {
      return "--power-cap-watts needs the power plane; add --power=SPEC";
    }
    if (cfg.power.governor != power::GovernorKind::kPowerCap &&
        policy != "power-cap") {
      return "--power-cap-watts needs an enforcer: --governor=powercap or "
             "--policy=power-cap";
    }
  }
  return {};
}

sim::Process Dispatcher::flush_timer(int node_index) {
  GpuNode& node = cluster_->node(node_index);
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  while (true) {
    while (ns.spawn_epoch == 0) co_await ns.activity->wait();
    while (node.outstanding() > 0) {
      const std::uint64_t seen = ns.spawn_epoch;
      co_await sim().delay(runtime::Runtime::kWaitPoll);
      if (ns.spawn_epoch == seen && node.outstanding() > 0) {
        // No spawn for a whole quiet period: the release chain has stalled.
        // wait_all flushes the stranded task and keeps playing lazy
        // aggregate copy-backs until this node's table drains.
        co_await node.rt().wait_all();
      }
    }
    if (closed_ && in_flight_ == 0) co_return;
    ns.spawn_epoch = 0;  // re-arm: sleep until the next spawn
  }
}

sim::Process Dispatcher::watchdog_loop() {
  while (true) {
    if (closed_ && in_flight_ == 0) co_return;
    if (in_flight_ == 0) {
      // Park: probing an idle cluster would keep the event queue alive
      // forever. offer() and the last resolution wake us.
      co_await work_cv_.wait();
      continue;
    }
    co_await sim().delay(cfg_.watchdog.probe_period);
    for (int i = 0; i < cluster_->size(); ++i) {
      GpuNode& node = cluster_->node(i);
      if (node.health() == fault::NodeHealth::kDead) continue;
      const bool has_work =
          node_state_[static_cast<std::size_t>(i)].tracked > 0;
      if (watchdog_->observe(i, node.liveness(), has_work)) node_failed(i);
    }
  }
}

sched::SchedKey Dispatcher::make_key(const Request& r, sim::Time arrival) {
  sched::SchedKey key;
  key.cls = r.cls;
  key.deadline = r.slo > 0 ? arrival + r.slo : 0;
  key.cost = r.cost;
  key.seq = sched_seq_++;
  return key;
}

void Dispatcher::stamp_qos_tags(Request& r, sim::Time arrival) const {
  r.params.sched_class = static_cast<std::uint8_t>(r.cls);
  r.params.deadline_us =
      r.slo > 0 ? sched::deadline_to_us(arrival + r.slo) : 0;
}

bool Dispatcher::try_evict_for(const Request& r) {
  // Prospective key for the arrival (seq after every parked waiter; WFQ tag
  // peeked without mutating, so a refused eviction leaves no trace).
  sched::SchedKey arrival;
  arrival.cls = r.cls;
  arrival.deadline = r.slo > 0 ? sim().now() + r.slo : 0;
  arrival.cost = r.cost;
  arrival.seq = sched_seq_;
  arrival.vtag = sched_policy_.peek_tag(r.cls);
  int victim_node = -1;
  const sched::SchedKey* victim = nullptr;
  for (int i = 0; i < cluster_->size(); ++i) {
    const sched::SchedKey* w =
        node_state_[static_cast<std::size_t>(i)].slots->worst();
    if (w == nullptr) continue;
    if (victim == nullptr || sched_policy_.before(*victim, *w)) {
      victim = w;
      victim_node = i;
    }
  }
  if (victim == nullptr || !sched_policy_.before(arrival, *victim)) {
    return false;
  }
  stats_.evicted += 1;
  cstats(victim->cls).evicted += 1;
  fault_event("evict");
  // The victim wakes with Grant::evicted, un-counts itself and sheds.
  node_state_[static_cast<std::size_t>(victim_node)].slots->evict_worst();
  return true;
}

void Dispatcher::offer(Request r) {
  PAGODA_CHECK_MSG(!closed_, "offer() after close()");
  stats_.offered += 1;
  cstats(r.cls).offered += 1;
  if (r.slo == 0) r.slo = cfg_.default_slo;
  if (cfg_.queue_limit > 0 && backlog_ >= cfg_.queue_limit) {
    // Admission control: a bounded backlog turns overload into determinate
    // outcomes. Under fifo the arrival is dropped; under a real policy the
    // arrival may instead displace the policy-worst parked request
    // (class-aware shedding — the backlog slot goes to the urgent class).
    if (sched_policy_.fifo() || !try_evict_for(r)) {
      drop(r);
      return;
    }
  }
  const int node_index = policy_->pick(*cluster_, r);
  if (node_index < 0) {
    // Whole fleet dead or draining: refuse at the door rather than queue
    // onto capacity that may never come back.
    drop(r);
    return;
  }
  stats_.admitted += 1;
  cstats(r.cls).admitted += 1;
  cls_in_flight_[static_cast<std::size_t>(sched::index(r.cls))] += 1;
  stamp_qos_tags(r, sim().now());
  Attempt a{std::move(r), sim().now(), 1, next_uid_++};
  if (tracer_ != nullptr) {
    tracer_->on_offered(a.uid, a.r.cls, a.r.slo, a.arrival);
  }
  placements_.push_back(node_index);
  in_flight_ += 1;
  work_cv_.notify_all();  // new work: un-park the watchdog
  place(std::move(a), node_index);
}

void Dispatcher::drop(const Request& r) {
  stats_.dropped += 1;
  cstats(r.cls).dropped += 1;
  if (r.slo > 0) stats_.slo_violations += 1;
  // Dropped requests never consume a uid (that would shift the uid stream
  // of admitted requests and change seeded fault decisions); the tracer
  // keys them by offer ordinal instead.
  if (tracer_ != nullptr) tracer_->on_dropped(r.cls, r.slo, sim().now());
}

void Dispatcher::dispatch_attempt(Attempt a) {
  const int node_index = policy_->pick(*cluster_, a.r);
  if (node_index < 0) {
    // Capacity vanished between failure and re-placement.
    shed_request(std::move(a), fault::FailureCause::kNodeCrash);
    return;
  }
  place(std::move(a), node_index);
}

void Dispatcher::place(Attempt a, int node_index) {
  PAGODA_CHECK_MSG(node_index < cluster_->size(),
                   "placement policy returned a bad node index");
  cluster_->node(node_index).add_outstanding(a.r.cost);
  backlog_ += 1;
  sim().spawn(serve(std::move(a), node_index));
}

void Dispatcher::leave(int node_index, Attempt a, Held held, Exit exit,
                       fault::FailureCause cause) {
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  if (held != Held::kQueued) {
    ns.slots->release();
    ns.granted -= 1;
    if (held == Held::kStaged) ns.staged -= 1;
    check_slots(ns);
  }
  cluster_->node(node_index).abandon_outstanding(a.r.cost);
  switch (exit) {
    case Exit::kRedispatch:
      stats_.redispatched += 1;
      fault_event("redispatch");
      if (tracer_ != nullptr) {
        // The time the attempt spent on this node stays charged to its
        // in-progress phase; what follows is re-placement queue wait.
        tracer_->mark_progress(a.uid, sim().now());
        tracer_->on_redispatch(a.uid);
      }
      dispatch_attempt(std::move(a));
      return;
    case Exit::kFail:
      attempt_failed(std::move(a), cause);
      return;
    case Exit::kMigrate: {
      // The safe point is exactly what the attempt held on the node.
      const migrate::SafePoint p = held == Held::kQueued
                                       ? migrate::SafePoint::kQueued
                                   : held == Held::kStaged
                                       ? migrate::SafePoint::kStaged
                                       : migrate::SafePoint::kTableParked;
      sim().spawn(migrate_out(node_index, std::move(a), p));
      return;
    }
    case Exit::kShed:
      shed_request(std::move(a), cause);
      return;
  }
}

Dispatcher::Attempt Dispatcher::take_record(NodeState& ns, int idx) {
  const std::unique_ptr<NodeState::Record> rec = std::move(ns.records.at(idx));
  // A no-op when the deadline is the event firing right now.
  if (rec->deadline) sim().cancel(rec->deadline->event);
  ns.tracked -= 1;
  return std::move(rec->att);
}

void Dispatcher::park_wedged(int node_index, NodeState& ns, int idx) {
  const std::unique_ptr<NodeState::Record> rec = std::move(ns.records.at(idx));
  ns.tracked -= 1;  // GPU-side the work IS done; only the deadline is owed
  wedged_.emplace(rec->uid, Wedged{node_index, std::move(rec->deadline),
                                   std::move(rec->att)});
}

void Dispatcher::check_slots(const NodeState& ns) {
  PAGODA_CHECK_MSG(0 <= ns.staged && ns.staged <= ns.granted &&
                       ns.granted <= ns.slot_capacity,
                   "slot accounting broke 0 <= staged <= granted <= "
                   "slot capacity");
}

sim::Process Dispatcher::serve(Attempt a, int node_index) {
  GpuNode& node = cluster_->node(node_index);
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  if (tracer_ != nullptr) tracer_->on_serve(a.uid, node_index, sim().now());

  // Backpressure: at most `capacity` requests per device own a TaskTable
  // entry or an input copy at once; the rest queue here, in policy order
  // (arrival order under fifo). The key draws a fresh seq per attempt so a
  // retry re-queues at the back exactly as the legacy semaphore did.
  const sched::ReadyQueue::Grant grant =
      co_await ns.slots->acquire(make_key(a.r, a.arrival));
  backlog_ -= 1;
  if (grant.evicted) {
    // Displaced by a more urgent arrival (try_evict_for): resolve as a shed
    // so the exactly-once ledger balances.
    if (tracer_ != nullptr) tracer_->on_admission_block(a.uid, sim().now());
    leave(node_index, std::move(a), Held::kQueued, Exit::kShed,
          fault::FailureCause::kEvicted);
    co_return;
  }
  if (!grant.granted) {
    if (migration_ != nullptr && node.alive() &&
        node.health() == fault::NodeHealth::kDraining) {
      // Recalled ungranted by a migrate-not-shed drain's kick_waiters():
      // nothing of this attempt ever reached the node — checkpoint at the
      // queued safe point and re-place.
      leave(node_index, std::move(a), Held::kQueued, Exit::kMigrate);
      co_return;
    }
    // The node died while this attempt queued: no slot was held. Re-place
    // on a healthy peer without charging the retry budget.
    if (tracer_ != nullptr) tracer_->on_admission_block(a.uid, sim().now());
    leave(node_index, std::move(a), Held::kQueued, Exit::kRedispatch);
    co_return;
  }
  stats_.slot_acquires += 1;
  ns.granted += 1;
  ns.staged += 1;
  ns.peak_staged = std::max(ns.peak_staged, ns.staged);
  // The grant rode purely virtual headroom when more slots are out than
  // the table physically holds.
  if (ns.granted > ns.records.size()) {
    stats_.vres_over_admissions += 1;
  }
  check_slots(ns);
  const std::uint64_t drain_epoch0 = ns.drain_epoch;
  if (tracer_ != nullptr) tracer_->on_granted(a.uid, sim().now());

  if (governor_ != nullptr) {
    // The grant may have landed on a node still finishing its S-state
    // wake-up (the governor reinstates a waking sleeper immediately so
    // backlog can target it). The residual latency is real wait the
    // request experiences; it gets its own trace phase so --explain-slo can
    // attribute deadline misses to power management.
    const sim::Duration wake = node.power()->wake_remaining(sim().now());
    if (wake > 0) {
      stats_.power_wakeup_waits += 1;
      co_await sim().delay(wake);
      if (tracer_ != nullptr) tracer_->on_power_wake(a.uid, sim().now());
    }
  }

  if (a.r.h2d_bytes > 0) {
    const bool hit = a.r.data_key != 0 && node.cache_contains(a.r.data_key);
    if (hit) {
      stats_.affinity_hits += 1;
      node.cache_touch(a.r.data_key);  // a hit is a use: promote to MRU
    } else {
      co_await sim().delay(cfg_.host.memcpy_setup);
      const bool copy_ok = co_await node.h2d_stream().memcpy_checked(
          pcie::Direction::HostToDevice, nullptr, nullptr,
          static_cast<std::size_t>(a.r.h2d_bytes));
      stats_.h2d_bytes_copied += a.r.h2d_bytes;  // wire was occupied either way
      if (tracer_ != nullptr) tracer_->on_h2d_done(a.uid, sim().now());
      if (node.health() == fault::NodeHealth::kDead) {
        // The node was declared dead while this copy was on the wire, after
        // the death sweep ran — this attempt is invisible to the sweep, so
        // it must re-place itself (again without charging the budget).
        leave(node_index, std::move(a), Held::kStaged, Exit::kRedispatch);
        co_return;
      }
      if (!copy_ok) {
        stats_.injected_transfer_faults += 1;
        fault_event("transfer_fault");
        leave(node_index, std::move(a), Held::kStaged, Exit::kFail,
              fault::FailureCause::kTransferFault);
        co_return;
      }
      if (a.r.data_key != 0) node.cache_insert(a.r.data_key);
    }
  }

  if (migration_ != nullptr && node.alive() &&
      node.health() == fault::NodeHealth::kDraining &&
      ns.drain_epoch != drain_epoch0) {
    // A drain began while this attempt staged its input (wake-wait or H2D
    // window): the payload is node-resident but no TaskTable entry exists
    // yet. Checkpoint at the staged safe point instead of spawning into a
    // draining table. The epoch guard keeps an attempt RESTORED onto a
    // still-draining node (zero-loss fallback) from migrating forever.
    leave(node_index, std::move(a), Held::kStaged, Exit::kMigrate);
    co_return;
  }

  const runtime::TaskHandle h = co_await node.rt().task_spawn(a.r.params);
  ns.spawn_epoch += 1;
  ns.staged -= 1;
  check_slots(ns);
  ns.activity->notify_all();
  if (tracer_ != nullptr) tracer_->on_spawned(a.uid, sim().now());
  if (node.health() == fault::NodeHealth::kDead) {
    // Death was detected mid-spawn: the sweep never saw this attempt and
    // any completion of the spawned task will be swallowed. Re-place it;
    // the orphaned TaskTable entry resolves GPU-side on its own.
    leave(node_index, std::move(a), Held::kSpawned, Exit::kRedispatch);
    co_return;
  }
  const int idx = h.id - runtime::kFirstTaskId;
  std::unique_ptr<NodeState::Record>& slot = ns.records.at(idx);
  if (slot != nullptr) {
    // A crash swallowed the completion of the entry's previous task. With
    // oversub > 1 a spawn can reach the freed entry before that record's
    // deadline fires (even after recovery): park it to await the deadline.
    PAGODA_CHECK_MSG(cfg_.task_timeout > 0,
                     "TaskTable entry reused while tracked, with no deadline");
    park_wedged(node_index, ns, idx);
  }
  slot = std::make_unique<NodeState::Record>();
  NodeState::Record& rec = *slot;
  rec.uid = a.uid;
  rec.handle = h;
  if (cfg_.task_timeout > 0) {
    rec.deadline = std::make_unique<Deadline>(this, node_index, idx, a.uid);
    rec.deadline->event = sim().after(
        cfg_.task_timeout,
        sim::Continuation::member<&Deadline::fire>(rec.deadline.get()));
  }
  rec.att = std::move(a);
  ns.tracked += 1;
  if (migration_ != nullptr && node.alive() &&
      node.health() == fault::NodeHealth::kDraining &&
      ns.drain_epoch != drain_epoch0) {
    // The drain sweep ran while task_spawn was in flight and never saw this
    // record; revoke it the same way the sweep would have.
    sim().spawn(migrate_revoke(node_index, idx, rec.uid));
  }
}

void Dispatcher::on_task_complete(int node_index, runtime::TaskId id) {
  GpuNode& node = cluster_->node(node_index);
  // A crashed device keeps running internally but nothing it produces
  // reaches the host; the attempt is recovered by its deadline or by the
  // watchdog's node-death sweep.
  if (!node.alive()) return;
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  const int idx = id - runtime::kFirstTaskId;
  PAGODA_CHECK(idx < ns.records.size());
  const std::unique_ptr<NodeState::Record>& rec = ns.records[idx];
  if (rec == nullptr) return;  // not a dispatcher task
  if (watchdog_ != nullptr) {
    const NodeState::Record& r = *rec;
    if (cfg_.faults.wedges(r.uid, r.att.attempt)) {
      // Slot wedge: the completion is swallowed. The TaskTable entry is
      // already free GPU-side and may be reused.
      park_wedged(node_index, ns, idx);
      stats_.injected_wedges += 1;
      fault_event("wedge");
      return;
    }
    if (cfg_.faults.task_fails(r.uid, r.att.attempt)) {
      Attempt a = take_record(ns, idx);
      stats_.injected_task_faults += 1;
      fault_event("task_fault");
      leave(node_index, std::move(a), Held::kSpawned, Exit::kFail,
            fault::FailureCause::kTaskFault);
      return;
    }
  }
  // Erase NOW: the GPU just freed the entry, so a successor may spawn into
  // it before this request's output copy drains.
  Attempt a = take_record(ns, idx);
  if (tracer_ != nullptr) tracer_->on_exec_done(a.uid, sim().now());

  if (a.r.d2h_bytes > 0) {
    const auto bytes = static_cast<std::size_t>(a.r.d2h_bytes);
    ns.outputs.push_back(std::move(a));
    node.d2h_stream().memcpy_async(
        pcie::Direction::DeviceToHost, nullptr, nullptr, bytes,
        sim::Continuation::member<&NodeState::land_output>(&ns));
  } else {
    finalize(node_index, std::move(a));
  }
}

void Dispatcher::on_task_claimed(int node_index, runtime::TaskId id,
                                 sim::Time now) {
  if (tracer_ == nullptr) return;
  // Claims on a crashed node are invisible to the host, exactly like its
  // completions; the attempt's time keeps accruing to its current phase
  // until a deadline or the death sweep resolves it.
  if (!cluster_->node(node_index).alive()) return;
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  const int idx = id - runtime::kFirstTaskId;
  if (idx >= ns.records.size()) return;
  const std::unique_ptr<NodeState::Record>& rec = ns.records[idx];
  if (rec == nullptr) return;
  tracer_->on_claimed(rec->uid, now);
}

void Dispatcher::on_deadline(int node_index, int idx, std::uint64_t uid) {
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  Attempt a;
  if (const auto it = wedged_.find(uid); it != wedged_.end()) {
    a = std::move(it->second.att);
    wedged_.erase(it);
  } else {
    // A deadline lives only while its attempt is tracked or wedged.
    PAGODA_CHECK(ns.holds(idx, uid));
    a = take_record(ns, idx);
  }
  stats_.detected_timeouts += 1;
  fault_event("timeout");
  leave(node_index, std::move(a), Held::kSpawned, Exit::kFail,
        fault::FailureCause::kTimeout);
}

void Dispatcher::attempt_failed(Attempt a, fault::FailureCause cause) {
  const sim::Time now = sim().now();
  // Charge the in-progress phase up to the detection instant, so e.g. a
  // timeout's wait is attributed to the phase the attempt was stuck in.
  if (tracer_ != nullptr) tracer_->mark_progress(a.uid, now);
  const int healthy = healthy_nodes();
  const bool budget_left = a.attempt <= cfg_.retry.budget;
  const bool slo_blown = a.r.slo > 0 && now - a.arrival > a.r.slo;
  const bool degraded = healthy < cluster_->size();
  // Graceful degradation: give up on requests whose deadline is already
  // blown, and — while capacity is reduced — on the batch class, so the
  // surviving nodes' slots go to work that can still meet its SLO.
  if (!budget_left || slo_blown || healthy == 0 ||
      (degraded && a.r.cls == sched::Class::kBatch)) {
    shed_request(std::move(a), cause);
    return;
  }
  stats_.retries += 1;
  fault_event("retry");
  if (tracer_ != nullptr) tracer_->on_retry(a.uid);
  sim().spawn(retry_later(std::move(a)));
}

sim::Process Dispatcher::retry_later(Attempt a) {
  co_await sim().delay(fault::backoff(cfg_.retry, a.uid, a.attempt));
  a.attempt += 1;
  dispatch_attempt(std::move(a));
}

void Dispatcher::shed_request(Attempt a, fault::FailureCause cause) {
  stats_.shed += 1;
  stats_.slot_releases += 1;  // the request's exactly-once resolution
  ClassStats& cs = cstats(a.r.cls);
  cs.shed += 1;
  cs.slot_releases += 1;
  cls_in_flight_[static_cast<std::size_t>(sched::index(a.r.cls))] -= 1;
  if (a.r.slo > 0) stats_.slo_violations += 1;
  fault_event("shed");
  if (tracer_ != nullptr) {
    tracer_->on_terminal(a.uid,
                         cause == fault::FailureCause::kEvicted
                             ? obs::Terminal::kEvicted
                             : obs::Terminal::kShed,
                         fault::to_string(cause), sim().now(),
                         /*slo_late=*/false);
  }
  in_flight_ -= 1;
  maybe_drained();
}

void Dispatcher::finalize(int node_index, Attempt att) {
  const sim::Time now = sim().now();
  GpuNode& node = cluster_->node(node_index);
  node.remove_outstanding(att.r.cost);
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  ns.slots->release();
  ns.granted -= 1;
  check_slots(ns);
  stats_.slot_releases += 1;
  stats_.completed += 1;
  ClassStats& cs = cstats(att.r.cls);
  cs.completed += 1;
  cs.slot_releases += 1;
  cls_in_flight_[static_cast<std::size_t>(sched::index(att.r.cls))] -= 1;
  in_flight_ -= 1;

  const sim::Duration latency = now - att.arrival;
  latencies_us_.push_back(sim::to_microseconds(latency));
  cls_latencies_us_[static_cast<std::size_t>(sched::index(att.r.cls))]
      .push_back(sim::to_microseconds(latency));
  spans_.push_back(Span{att.arrival, now});
  const bool late = att.r.slo > 0 && latency > att.r.slo;
  if (late) {
    stats_.slo_violations += 1;
    stats_.slo_late += 1;
    cs.slo_late += 1;
    // SLAWarning: adaptive governors boost the fleet back to P0.
    if (governor_ != nullptr) governor_->on_sla_warning(now);
  }
  if (tracer_ != nullptr) {
    tracer_->on_terminal(att.uid, obs::Terminal::kCompleted, "", now, late);
  }

  maybe_drained();
}

void Dispatcher::maybe_drained() {
  if (closed_ && in_flight_ == 0) {
    if (drained_at_ < 0) drained_at_ = sim().now();
    drained_.notify_all();
    work_cv_.notify_all();  // let the watchdog loop observe the exit state
  }
}

void Dispatcher::close() {
  closed_ = true;
  work_cv_.notify_all();
  maybe_drained();  // an empty run drains at close()
}

sim::Task<> Dispatcher::drain() {
  while (!(closed_ && in_flight_ == 0)) co_await drained_.wait();
}

// --- fault plane ------------------------------------------------------------

int Dispatcher::healthy_nodes() const {
  int n = 0;
  for (int i = 0; i < cluster_->size(); ++i) {
    if (cluster_->node(i).eligible()) n += 1;
  }
  return n;
}

sim::Process Dispatcher::crash_node(fault::CrashEvent ev) {
  GpuNode& node = cluster_->node(ev.node);
  if (!node.alive()) co_return;
  node.set_alive(false);
  stats_.injected_crashes += 1;
  fault_event("crash");
  if (ev.recovers) {
    co_await sim().delay(ev.recover_after);
    recover_node(ev.node);
  }
}

sim::Process Dispatcher::degrade_edge(int node_index, double scale,
                                      bool begins) {
  if (begins) fault_event("degrade");
  set_bandwidth_scale(node_index, scale);
  co_return;
}

void Dispatcher::node_failed(int node_index) {
  GpuNode& node = cluster_->node(node_index);
  node.set_health(fault::NodeHealth::kDead);
  node.cache_clear();  // its resident data died with it
  stats_.detected_node_deaths += 1;
  fault_event("node_dead");
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  // Refuse queued acquirers (they wake ungranted and re-place themselves)
  // and fail new acquires until recovery reopens the pool.
  ns.slots->close();
  // Sweep tracked in-flight attempts onto healthy peers, exactly once each,
  // without charging their retry budget — the requests did nothing wrong.
  ns.records.for_each(
      [&](int idx, const std::unique_ptr<NodeState::Record>& rec) {
        if (rec == nullptr) return;
        leave(node_index, take_record(ns, idx), Held::kSpawned,
              Exit::kRedispatch);
      });
  for (auto it = wedged_.begin(); it != wedged_.end();) {
    if (it->second.node != node_index) {
      ++it;
      continue;
    }
    if (it->second.deadline) sim().cancel(it->second.deadline->event);
    Attempt a = std::move(it->second.att);
    it = wedged_.erase(it);
    leave(node_index, std::move(a), Held::kSpawned, Exit::kRedispatch);
  }
}

void Dispatcher::recover_node(int node_index) {
  GpuNode& node = cluster_->node(node_index);
  if (node.alive()) return;
  node.set_alive(true);
  return_to_service(node_index);
  stats_.nodes_recovered += 1;
  fault_event("node_recovered");
}

void Dispatcher::return_to_service(int node_index) {
  cluster_->node(node_index).set_health(fault::NodeHealth::kHealthy);
  node_state_[static_cast<std::size_t>(node_index)].slots->reopen();
  if (watchdog_ != nullptr) watchdog_->reset(node_index);
}

void Dispatcher::drain_node(int node_index) {
  GpuNode& node = cluster_->node(node_index);
  if (node.health() == fault::NodeHealth::kDead) return;
  node.set_health(fault::NodeHealth::kDraining);
  fault_event("drain_node");
  if (migration_ == nullptr) return;
  // Migrate-not-shed: walk the node's safe points instead of waiting its
  // in-flight work out.
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  ns.drain_epoch += 1;
  // Queued attempts: wake every parked slot waiter ungranted while the
  // queue stays open (completions still release into it). serve() routes
  // the woken attempts to a kQueued checkpoint.
  ns.slots->kick_waiters();
  // Spawned-but-unclaimed attempts: race the scheduler warps host-side.
  // Claimed/executing tasks lose the race deterministically and run to
  // completion on this node — they are never checkpointed.
  ns.records.for_each(
      [&](int idx, const std::unique_ptr<NodeState::Record>& rec) {
        if (rec == nullptr) return;
        sim().spawn(migrate_revoke(node_index, idx, rec->uid));
      });
}

sim::Process Dispatcher::migrate_revoke(int node_index, int idx,
                                        std::uint64_t uid) {
  GpuNode& node = cluster_->node(node_index);
  NodeState& ns = node_state_[static_cast<std::size_t>(node_index)];
  if (!ns.holds(idx, uid)) co_return;
  const runtime::TaskHandle h = ns.records[idx]->handle;
  const bool won = co_await node.rt().try_revoke(h);
  if (!won) {
    stats_.migrate_declined += 1;
    migration_->record_declined();
    co_return;
  }
  // Re-validate after the await: the death sweep may have redispatched the
  // attempt (and released its slot) while the revoke was on the wire — the
  // GPU entry is then an orphan the revoke harmlessly freed.
  if (!ns.holds(idx, uid)) co_return;
  leave(node_index, take_record(ns, idx), Held::kSpawned, Exit::kMigrate);
}

sim::Process Dispatcher::migrate_out(int source_node, Attempt a,
                                     migrate::SafePoint p) {
  const sim::Time now = sim().now();
  if (tracer_ != nullptr) tracer_->on_migrated(a.uid, now);
  fault_event("migrate");

  const migrate::TaskCheckpoint cp{
      .uid = a.uid, .arrival = a.arrival, .attempt = a.attempt,
      .cls = a.r.cls, .slo = a.r.slo, .cost = a.r.cost,
      .h2d_bytes = a.r.h2d_bytes, .d2h_bytes = a.r.d2h_bytes,
      .data_key = a.r.data_key, .index = a.r.index, .params = a.r.params,
      .point = p, .source_node = source_node};

  // Serialize, then restore from the IMAGE — the byte format is
  // load-bearing, not decorative: a field the serializer drops would show
  // up as a corrupted restored request, not as silent luck.
  const std::vector<std::byte> image = migrate::serialize(cp);
  migrate::TaskCheckpoint restored;
  PAGODA_CHECK_MSG(migrate::deserialize(image, &restored),
                   "checkpoint image failed to round-trip");
  migration_->record_checkpoint(restored, image);

  // Pull the node-resident state (staged payload, revoked descriptor) back
  // over the source's D2H link: real wire time, charged to the request as
  // the migrate_xfer phase. A kQueued capture moved nothing onto the node,
  // so nothing rides the wire and the phase covers re-placement only.
  const std::int64_t wire = migrate::transfer_bytes(restored);
  if (wire > 0) {
    co_await sim().delay(cfg_.host.memcpy_setup);
    co_await cluster_->node(source_node)
        .d2h_stream()
        .memcpy(pcie::Direction::DeviceToHost, nullptr, nullptr,
                static_cast<std::size_t>(wire));
  }

  // Rebuild the attempt from the restored image; only the kernel pointer is
  // process-local and re-bound from the captured attempt (a real system
  // ships a symbol id).
  Attempt back{
      .r = {.params = restored.params, .h2d_bytes = restored.h2d_bytes,
            .d2h_bytes = restored.d2h_bytes, .data_key = restored.data_key,
            .slo = restored.slo, .cost = restored.cost, .cls = restored.cls,
            .index = restored.index},
      .arrival = restored.arrival, .attempt = restored.attempt,
      .uid = restored.uid};
  back.r.params.fn = a.r.params.fn;
  restore_attempt(std::move(back), source_node);
}

void Dispatcher::restore_attempt(Attempt a, int source_node) {
  int node_index = policy_->pick(*cluster_, a.r);
  if (node_index < 0) {
    if (cluster_->node(source_node).alive()) {
      // No eligible peer, but the drain source still serves its in-flight
      // work: finish in place rather than shed. Zero-loss is the contract —
      // a drain is administrative, the request did nothing wrong.
      node_index = source_node;
    } else {
      // The source died too: genuine capacity loss, resolved as a shed so
      // the exactly-once ledger still balances.
      shed_request(std::move(a), fault::FailureCause::kNodeCrash);
      return;
    }
  }
  stats_.migrated += 1;
  migration_->record_restore();
  place(std::move(a), node_index);
}

void Dispatcher::reinstate_node(int node_index) {
  // Still crashed: recovery will reinstate.
  if (!cluster_->node(node_index).alive()) return;
  return_to_service(node_index);
  fault_event("reinstate_node");
}

void Dispatcher::set_bandwidth_scale(int node_index, double scale) {
  const auto apply = [scale](GpuNode& n) {
    pcie::PcieBus& bus = n.session().pcie();
    bus.link(pcie::Direction::HostToDevice).set_bandwidth_scale(scale);
    bus.link(pcie::Direction::DeviceToHost).set_bandwidth_scale(scale);
  };
  if (node_index < 0) {
    for (int i = 0; i < cluster_->size(); ++i) apply(cluster_->node(i));
  } else {
    apply(cluster_->node(node_index));
  }
}

void Dispatcher::fault_event(std::string_view name) {
  if (collector_ == nullptr || !collector_->timeline_enabled()) return;
  if (fault_track_ < 0) fault_track_ = collector_->timeline().track("fault");
  collector_->timeline().instant(fault_track_, name, sim().now());
}

// --- power plane ------------------------------------------------------------

double Dispatcher::fleet_watts() const {
  double w = 0.0;
  const sim::Time now = cluster_->sim().now();
  for (int i = 0; i < cluster_->size(); ++i) {
    if (const power::NodePower* np = cluster_->node(i).power()) {
      w += np->watts(now);
    }
  }
  return w;
}

// --- accounting -------------------------------------------------------------

double Dispatcher::load_imbalance() const {
  std::int64_t lo = cluster_->node(0).completed();
  std::int64_t hi = lo;
  std::int64_t sum = 0;
  for (int i = 0; i < cluster_->size(); ++i) {
    const std::int64_t c = cluster_->node(i).completed();
    lo = std::min(lo, c);
    hi = std::max(hi, c);
    sum += c;
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(cluster_->size());
  return static_cast<double>(hi - lo) / mean;
}

void Dispatcher::export_metrics(obs::MetricsRegistry& m) const {
  m.counter("cluster.requests.offered").set(stats_.offered);
  m.counter("cluster.requests.admitted").set(stats_.admitted);
  m.counter("cluster.requests.dropped").set(stats_.dropped);
  m.counter("cluster.requests.completed").set(stats_.completed);
  m.counter("cluster.requests.shed").set(stats_.shed);
  m.counter("cluster.slo.violations").set(stats_.slo_violations);
  m.counter("cluster.slo.late").set(stats_.slo_late);
  m.counter("cluster.affinity.hits").set(stats_.affinity_hits);
  m.counter("cluster.h2d.bytes_copied").set(stats_.h2d_bytes_copied);
  if (stats_.offered > 0) {
    m.gauge("cluster.slo.violation_rate")
        .set(static_cast<double>(stats_.slo_violations) /
             static_cast<double>(stats_.offered));
  }
  m.gauge("cluster.load_imbalance").set(load_imbalance());
  m.counter("cluster.gpus").set(cluster_->size());
  for (int i = 0; i < cluster_->size(); ++i) {
    m.counter(dev_key(i, "completed")).set(cluster_->node(i).completed());
  }
  if (!latencies_us_.empty()) {
    m.gauge("cluster.latency.mean_us").set(arithmetic_mean(latencies_us_));
    m.gauge("cluster.latency.p50_us").set(percentile(latencies_us_, 50));
    m.gauge("cluster.latency.p99_us").set(percentile(latencies_us_, 99));
    m.gauge("cluster.latency.p999_us").set(percentile(latencies_us_, 99.9));
    obs::Histogram& h = m.histogram("cluster.latency_us");
    for (const double v : latencies_us_) h.add(v);
  }
  if (qos_) {
    // Per-class ledger + latency tails, gated so default (non-QoS) runs
    // emit no sched.* keys and their metric JSON stays byte-identical.
    m.counter("sched.evicted").set(stats_.evicted);
    for (int c = 0; c < sched::kNumClasses; ++c) {
      const auto cls = static_cast<sched::Class>(c);
      const ClassStats& cs = cls_stats_[static_cast<std::size_t>(c)];
      obs::export_sched_counter(m, cls, "offered", cs.offered);
      obs::export_sched_counter(m, cls, "admitted", cs.admitted);
      obs::export_sched_counter(m, cls, "dropped", cs.dropped);
      obs::export_sched_counter(m, cls, "completed", cs.completed);
      obs::export_sched_counter(m, cls, "shed", cs.shed);
      obs::export_sched_counter(m, cls, "evicted", cs.evicted);
      obs::export_sched_counter(m, cls, "slo_late", cs.slo_late);
      obs::export_sched_latencies(
          m, cls, cls_latencies_us_[static_cast<std::size_t>(c)]);
    }
  }
  if (watchdog_ != nullptr) {
    m.counter("fault.injected.task_faults").set(stats_.injected_task_faults);
    m.counter("fault.injected.transfer_faults")
        .set(stats_.injected_transfer_faults);
    m.counter("fault.injected.wedges").set(stats_.injected_wedges);
    m.counter("fault.injected.crashes").set(stats_.injected_crashes);
    m.counter("fault.detected.timeouts").set(stats_.detected_timeouts);
    m.counter("fault.detected.node_deaths").set(stats_.detected_node_deaths);
    m.counter("fault.retries").set(stats_.retries);
    m.counter("fault.redispatched").set(stats_.redispatched);
    m.counter("fault.nodes.recovered").set(stats_.nodes_recovered);
    m.counter("fault.slot_acquires").set(stats_.slot_acquires);
    m.counter("fault.watchdog.probes").set(watchdog_->probes());
  }
  if (governor_ != nullptr) {
    // Extrapolate to the drain instant, not the (possibly capped) clock.
    const sim::Time now =
        drained_at_ >= 0 ? drained_at_ : cluster_->sim().now();
    double fleet_watts_now = 0.0;
    double fleet_energy = 0.0;
    std::int64_t transitions = 0;
    std::int64_t wakeups = 0;
    for (int i = 0; i < cluster_->size(); ++i) {
      const power::NodePower* np = cluster_->node(i).power();
      if (np == nullptr) continue;
      const double e = np->energy_joules(now);
      fleet_watts_now += np->watts(now);
      fleet_energy += e;
      transitions += static_cast<std::int64_t>(np->transitions());
      wakeups += static_cast<std::int64_t>(np->wakeups());
      m.gauge(dev_key(i, "power.watts")).set(np->watts(now));
      m.gauge(dev_key(i, "power.energy_j")).set(e);
      m.counter(dev_key(i, "power.p_state")).set(np->p_state());
      m.counter(dev_key(i, "power.s_state")).set(np->s_state());
      m.gauge(dev_key(i, "power.awake_s"))
          .set(np->s_residency_seconds(0, now));
    }
    m.gauge("power.fleet.watts").set(fleet_watts_now);
    m.gauge("power.fleet.energy_j").set(fleet_energy);
    m.counter("power.transitions").set(transitions);
    m.counter("power.wakeups").set(wakeups);
    m.counter("power.wakeup_waits").set(stats_.power_wakeup_waits);
    if (stats_.completed > 0) {
      m.gauge("power.joules_per_request")
          .set(fleet_energy / static_cast<double>(stats_.completed));
    }
    const power::PowerGovernor::Stats& gs = governor_->stats();
    m.counter("power.governor.checks")
        .set(static_cast<std::int64_t>(gs.checks));
    m.counter("power.governor.sla_warnings")
        .set(static_cast<std::int64_t>(gs.sla_warnings));
    m.counter("power.governor.nodes_slept")
        .set(static_cast<std::int64_t>(gs.nodes_slept));
    m.counter("power.governor.nodes_woken")
        .set(static_cast<std::int64_t>(gs.nodes_woken));
  }
  if (migration_ != nullptr) {
    const migrate::MigrationManager::Stats& ms = migration_->stats();
    m.counter("migrate.checkpoints").set(ms.checkpoints);
    m.counter("migrate.checkpoints.queued").set(ms.queued);
    m.counter("migrate.checkpoints.staged").set(ms.staged);
    m.counter("migrate.checkpoints.table_parked").set(ms.table_parked);
    m.counter("migrate.restores").set(ms.restores);
    m.counter("migrate.declined").set(ms.declined);
    m.counter("migrate.xfer_bytes").set(ms.xfer_bytes);
    m.counter("migrate.image_bytes").set(ms.image_bytes);
    m.counter("migrate.migrated").set(stats_.migrated);
    if (autoscaler_ != nullptr) {
      const migrate::Autoscaler::Stats& as = autoscaler_->stats();
      m.counter("migrate.autoscale.checks")
          .set(static_cast<std::int64_t>(as.checks));
      m.counter("migrate.autoscale.nodes_slept")
          .set(static_cast<std::int64_t>(as.nodes_slept));
      m.counter("migrate.autoscale.nodes_woken")
          .set(static_cast<std::int64_t>(as.nodes_woken));
      m.counter("migrate.autoscale.drains_started")
          .set(static_cast<std::int64_t>(as.drains_started));
      m.counter("migrate.autoscale.drains_cancelled")
          .set(static_cast<std::int64_t>(as.drains_cancelled));
      m.counter("migrate.autoscale.resize_events")
          .set(static_cast<std::int64_t>(as.resize_events));
    }
  }
  if (cfg_.oversub > 1.0) {
    // Gated like every other plane so oversub == 1 runs emit no vres.* keys
    // and their metric JSON stays byte-identical to the pre-vres build.
    std::int64_t virt_slots = 0;
    std::int64_t phys_slots = 0;
    int over_peak = 0;
    for (const NodeState& ns : node_state_) {
      virt_slots += ns.slot_capacity;
      phys_slots += ns.records.size();
      over_peak = std::max(over_peak, ns.peak_staged);
    }
    m.counter("vres.slots.virtual").set(virt_slots);
    m.counter("vres.slots.physical").set(phys_slots);
    m.counter("vres.slots.over_admissions").set(stats_.vres_over_admissions);
    m.counter("vres.slots.overadmission_peak").set(over_peak);
  }
}

void Dispatcher::set_tracer(obs::RequestTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  for (int i = 0; i < cluster_->size(); ++i) {
    cluster_->node(i).rt().set_claim_observer(
        [this, i](runtime::TaskId id, sim::Time now) {
          on_task_claimed(i, id, now);
        });
  }
}

void Dispatcher::install_sampler(obs::Collector& collector) {
  collector_ = &collector;
  collector.add_sampler(sim(), [this, &collector](sim::Time now) {
    obs::MetricsRegistry& m = collector.metrics();
    m.stat("cluster.in_flight").add(static_cast<double>(in_flight_));
    m.stat("cluster.backlog").add(static_cast<double>(backlog_));
    for (int i = 0; i < cluster_->size(); ++i) {
      m.stat(dev_key(i, "outstanding"))
          .add(static_cast<double>(cluster_->node(i).outstanding()));
    }
    if (watchdog_ != nullptr) {
      // The watchdog's raw signal, recorded so a profile shows the flatline
      // of a crashed node next to the detection instant on the fault track.
      for (int i = 0; i < cluster_->size(); ++i) {
        m.stat(dev_key(i, "heartbeat"))
            .add(static_cast<double>(cluster_->node(i).heartbeat()));
      }
    }
    if (qos_) {
      for (int c = 0; c < sched::kNumClasses; ++c) {
        m.stat(obs::sched_key(static_cast<sched::Class>(c), "in_flight"))
            .add(static_cast<double>(
                cls_in_flight_[static_cast<std::size_t>(c)]));
      }
    }
    if (governor_ != nullptr) m.stat("power.fleet.watts").add(fleet_watts());
    if (collector.timeline_enabled()) {
      collector.timeline().counter("cluster.in_flight", now,
                                   static_cast<double>(in_flight_));
      collector.timeline().counter("cluster.backlog", now,
                                   static_cast<double>(backlog_));
      if (qos_) {
        for (int c = 0; c < sched::kNumClasses; ++c) {
          collector.timeline().counter(
              obs::sched_key(static_cast<sched::Class>(c), "in_flight"), now,
              static_cast<double>(cls_in_flight_[static_cast<std::size_t>(c)]));
        }
      }
      if (watchdog_ != nullptr) {
        for (int i = 0; i < cluster_->size(); ++i) {
          collector.timeline().counter(
              dev_key(i, "heartbeat"), now,
              static_cast<double>(cluster_->node(i).heartbeat()));
        }
      }
      if (governor_ != nullptr) {
        collector.timeline().counter("power.fleet.watts", now, fleet_watts());
        for (int i = 0; i < cluster_->size(); ++i) {
          const power::NodePower* np = cluster_->node(i).power();
          if (np == nullptr) continue;
          collector.timeline().counter(dev_key(i, "power.watts"), now,
                                       np->watts(now));
          collector.timeline().counter(dev_key(i, "power.p_state"), now,
                                       static_cast<double>(np->p_state()));
          collector.timeline().counter(dev_key(i, "power.s_state"), now,
                                       static_cast<double>(np->s_state()));
        }
      }
    }
  });
}

}  // namespace pagoda::cluster
