// The cluster dispatcher: one spawn-API front door over N per-device Pagoda
// runtimes.
//
// Request lifecycle (state machine; every admitted request walks it to
// exactly one terminal state, DONE or SHED):
//
//   offer() ── queue bound exceeded / no healthy node ──> DROPPED
//      │
//      ▼ placement policy picks a healthy node (at arrival, so load-aware
//      │ policies see queued work), node.outstanding++
//   QUEUED ── co_await node slot (backpressure: at most `capacity` requests
//      │      own TaskTable entries or copies per device). A slot grant is
//      │      refused when the node died while queueing -> re-placed.
//      ▼
//   COPYING ── H2D input copy on the node's data stream, skipped on a
//      │       data-affinity cache hit. A corrupt transfer fails the attempt.
//      ▼
//   EXECUTING ── runtime::task_spawn + GPU-side completion, bounded by the
//      │         per-task deadline when one is configured. Injected task
//      │         faults, wedges, timeouts and node death fail the attempt.
//      ▼
//   DRAINING ── D2H output copy (if any)
//      ▼
//   DONE ── latency = now - arrival; SLO check; slot released exactly once;
//           node.outstanding--
//
//   failed attempt ── retry budget left, SLO not blown ──> deterministic
//      │              exponential backoff + jitter, then re-placed (QUEUED)
//      ▼ otherwise
//   SHED ── deliberate graceful degradation; counted, never silently lost.
//
// Fault plane (all off by default; a disabled plan leaves the event stream
// byte-identical to the pre-fault dispatcher):
//  * injection  — DispatcherConfig::faults (see fault/plan.h) arms task
//    faults, transfer corruption, slot wedges, bandwidth-degradation windows
//    and whole-node crashes, all decided by order-independent seeded hashes;
//  * detection  — per-attempt deadlines (task_timeout) plus a watchdog
//    process probing each node's MasterKernel heartbeat; a node whose
//    signature freezes while holding work is declared dead exactly once;
//  * recovery   — per-request retries with budget, re-dispatch of a dead
//    node's in-flight work to healthy peers (no budget charge), node
//    drain/reinstate lifecycle, and priority-aware shedding when capacity
//    shrinks. Recovery never throws: failures flow through
//    fault::FailureCause values (tools/check.sh greps for naked throws).
//
// Admission control is two-layered: the per-node slot queue bounds
// in-flight work per device at its TaskTable size (backpressure), and the
// optional global queue bound converts overload into deterministic drops
// instead of an unbounded backlog — the open-loop analogue of a full accept
// queue.
//
// QoS (see sched/policy.h): every ordering decision routes through one
// sched::Policy. The per-node slot queues are sched::ReadyQueues — under the
// default fifo policy they reproduce the legacy semaphore's event stream
// byte-for-byte; under priority/edf/wfq a released slot goes to the best
// parked request, and when the global queue bound is hit an urgent arrival
// may EVICT the policy-worst parked request (counted per class, resolved as
// a shed so the exactly-once ledger still balances). Admitted requests carry
// their class and absolute deadline on TaskParams, so the same policy also
// orders the MasterKernel's scheduler-warp claims GPU-side.
//
// Single-unwind rule: every way an attempt leaves a node without completing
// goes through one private step, leave(). It returns what the attempt holds
// there exactly once (its slot, if granted; its share of the node load),
// then takes exactly one exit: redispatch (no budget charge),
// attempt_failed (retry or shed), migrate_out, or shed. A spawned attempt's
// record is torn down first, once, by take_record(). A completion returns
// both in finalize(); no other code releases a slot or node load.
//
// All accounting (latency percentiles, violation rate, per-device load
// imbalance, fault.* counters) is virtual-time derived and exported into an
// obs::MetricsRegistry, so `--metrics` / `--profile` work unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "cluster/request.h"
#include "common/fifo.h"
#include "fault/fault.h"
#include "fault/plan.h"
#include "fault/retry.h"
#include "fault/watchdog.h"
#include "migrate/autoscaler.h"
#include "migrate/migrate.h"
#include "pagoda/entry_rows.h"
#include "power/governor.h"
#include "sched/policy.h"
#include "sched/ready_queue.h"
#include "sim/sync.h"

namespace pagoda::obs {
class Collector;
class MetricsRegistry;
class RequestTracer;
}  // namespace pagoda::obs

namespace pagoda::cluster {

struct DispatcherConfig {
  /// Admitted-but-unslotted requests allowed across the cluster before
  /// offers are dropped; 0 = unbounded (pure backpressure, no drops).
  int queue_limit = 0;
  /// Deadline applied to requests that don't carry their own; 0 = none.
  sim::Duration default_slo = 0;
  /// Host cost charged per input/output copy setup.
  host::HostCosts host{};

  // --- fault plane (all disabled by default) ------------------------------
  /// What to inject; a default-constructed plan injects nothing.
  fault::FaultPlan faults{};
  /// Retry budget + backoff shape for failed attempts.
  fault::RetryConfig retry{};
  /// Per-attempt execution deadline measured from task spawn; 0 = none.
  /// Plans that can wedge or crash REQUIRE a deadline (see validate()): a
  /// swallowed completion is otherwise unrecoverable.
  sim::Duration task_timeout = 0;
  /// Heartbeat probing cadence and death threshold.
  fault::WatchdogConfig watchdog{};

  // --- QoS scheduling (see sched/policy.h) --------------------------------
  /// Ordering policy for the per-node admission queues, shed/evict
  /// comparisons, and (via TaskParams tags) the GPU-side claim order.
  /// fifo reproduces the legacy semaphore byte-for-byte.
  sched::PolicyConfig sched{};
  /// Arms per-class sched.* metric/timeline export even under fifo (any
  /// non-fifo policy arms it implicitly). Off by default so default runs
  /// emit no new metric keys.
  bool qos = false;

  // --- power plane (off by default; see power/governor.h) -----------------
  /// With a spec set, the dispatcher attaches a power::NodePower to every
  /// node, runs the configured PowerGovernor, charges S-state wake-up
  /// latency to waiting requests, and exports power.* metrics. With the
  /// default (no spec) nothing is constructed and every existing output
  /// stays byte-identical.
  power::PlaneConfig power{};

  // --- migration plane (off by default; see migrate/migrate.h) -------------
  /// Enabled, drain_node() becomes migrate-not-shed: eligible in-flight
  /// attempts are checkpointed at their safe point, charged over the source
  /// node's link as the migrate_xfer trace phase, and re-placed as the SAME
  /// request (uid, arrival, attempt preserved — the exactly-once ledger and
  /// the per-class slices never notice the move).
  migrate::MigrationConfig migration{};
  /// Elastic fleet resizing (utilization-driven and/or an explicit resize
  /// plan). armed() requires BOTH the migration plane (shrink drains must
  /// not shed) and the power plane (parked nodes sleep in S-states), and is
  /// mutually exclusive with power.manage_sleep — one mover of S-states.
  migrate::AutoscaleConfig autoscale{};

  // --- virtual resource plane (off by default; see src/vres) ---------------
  /// TaskTable-slot oversubscription factor, mirrored from the nodes'
  /// PagodaConfig::oversub. > 1 arms virtual admission: each per-node slot
  /// queue is sized to floor(oversub x TaskTable entries), so admission
  /// backpressures on VIRTUAL capacity while the table itself stays
  /// physical (the extra admitted requests pipeline behind task_spawn).
  /// Exactly 1.0 (the default) leaves every event stream and metric dump
  /// byte-identical to the pre-vres dispatcher. < 1.0 is rejected.
  double oversub = 1.0;
};

class Dispatcher {
 public:
  struct Stats {
    std::int64_t offered = 0;
    std::int64_t admitted = 0;
    std::int64_t dropped = 0;     // refused at offer(); never admitted
    std::int64_t completed = 0;
    std::int64_t shed = 0;        // admitted, then deliberately failed
    std::int64_t slo_late = 0;    // completions past their deadline
    std::int64_t slo_violations = 0;  // slo_late + SLO-carrying drops/sheds
    std::int64_t affinity_hits = 0;   // H2D copies skipped
    std::int64_t h2d_bytes_copied = 0;
    /// Request-level exactly-once resolution count: == completed + shed,
    /// and == admitted after drain(), under every fault path.
    std::int64_t slot_releases = 0;
    /// Attempt-level semaphore grants (== slot_releases when faults are off;
    /// larger under retries — each extra attempt claims its own slot).
    std::int64_t slot_acquires = 0;
    // --- fault plane ------------------------------------------------------
    std::int64_t retries = 0;          // backoff retries (budget-charged)
    std::int64_t redispatched = 0;     // moved off a dead node (no charge)
    std::int64_t injected_task_faults = 0;
    std::int64_t injected_transfer_faults = 0;
    std::int64_t injected_wedges = 0;
    std::int64_t injected_crashes = 0;
    std::int64_t detected_timeouts = 0;
    std::int64_t detected_node_deaths = 0;
    std::int64_t nodes_recovered = 0;
    // --- QoS plane --------------------------------------------------------
    /// Parked requests displaced by a more urgent arrival (non-fifo only);
    /// every eviction also counts as a shed, so the ledger balances.
    std::int64_t evicted = 0;
    // --- power plane ------------------------------------------------------
    /// Requests that waited on an S-state -> active wake-up transition
    /// (their wait lands in the power.wakeup trace phase).
    std::int64_t power_wakeup_waits = 0;
    // --- migration plane --------------------------------------------------
    /// Attempts checkpointed off a draining node and restored into dispatch
    /// as the same request (no budget charge, no new uid).
    std::int64_t migrated = 0;
    /// Revoke raced a scheduler-warp claim and lost; the attempt ran to
    /// completion on the draining node instead.
    std::int64_t migrate_declined = 0;
    // --- virtual resource plane -------------------------------------------
    /// Slot grants issued beyond a node's physical TaskTable capacity
    /// (oversub > 1 only): admissions that rode purely virtual headroom.
    std::int64_t vres_over_admissions = 0;
  };

  /// Per-class slice of the ledger. The same exactly-once invariant holds
  /// classwise after drain(): slot_releases == completed + shed == admitted.
  struct ClassStats {
    std::int64_t offered = 0;
    std::int64_t admitted = 0;
    std::int64_t dropped = 0;
    std::int64_t completed = 0;
    std::int64_t shed = 0;
    std::int64_t evicted = 0;
    std::int64_t slo_late = 0;
    std::int64_t slot_releases = 0;
  };

  /// CHECKs validate(cfg, cluster.size(), policy->name()).
  Dispatcher(Cluster& cluster, std::unique_ptr<PlacementPolicy> policy,
             DispatcherConfig cfg = {});
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// The one list of cross-plane configuration rules, for a fleet of
  /// `num_nodes` under the placement policy named `policy`. Returns the
  /// first violated rule as a one-line message, or "" when the config is
  /// valid. pagoda_cli prints the message as a usage error; the constructor
  /// CHECKs it.
  static std::string validate(const DispatcherConfig& cfg, int num_nodes,
                              std::string_view policy);

  /// Offers a request at the current virtual time. Non-blocking: either
  /// admits (spawning the serving process) or drops under overload.
  void offer(Request r);

  /// Declares the arrival stream finished; drain() can then complete.
  void close();

  /// Waits until every admitted request reached DONE or SHED and close()
  /// was called.
  sim::Task<> drain();

  // --- node lifecycle (administrative) ------------------------------------
  /// Stops placing new work on the node; in-flight work finishes normally.
  void drain_node(int node_index);
  /// Returns a drained (or recovered) node to service. No-op while the
  /// injection plane still has the node crashed.
  void reinstate_node(int node_index);

  const Stats& stats() const { return stats_; }
  /// Request-record rows the node has backed (host-memory observability).
  int record_rows_backed(int node_index) const {
    return node_state_[static_cast<std::size_t>(node_index)]
        .records.rows_backed();
  }
  const ClassStats& class_stats(sched::Class c) const {
    return cls_stats_[static_cast<std::size_t>(sched::index(c))];
  }
  /// Attained latency per completed request of one class, us.
  std::span<const double> class_latencies_us(sched::Class c) const {
    return cls_latencies_us_[static_cast<std::size_t>(sched::index(c))];
  }
  Cluster& cluster() { return *cluster_; }

  /// Node chosen for each admitted request at ADMISSION, in admission order
  /// (retry re-placements are not recorded here) — the determinism tests
  /// compare this sequence across reruns.
  const std::vector<int>& placements() const { return placements_; }

  /// Attained latency (arrival -> output landed) per completed request, us,
  /// in completion order. Includes backoff + re-execution time of retries.
  std::span<const double> latencies_us() const { return latencies_us_; }

  /// Arrival/completion spans of completed requests (timeline export).
  struct Span {
    sim::Time arrival = 0;
    sim::Time done = 0;
  };
  std::span<const Span> spans() const { return spans_; }

  /// Admitted requests still waiting for a node slot (governor signal).
  int queued_backlog() const { return backlog_; }

  /// Arrival stream closed and nothing in flight — the governor's periodic
  /// check stops rescheduling itself once this holds.
  bool idle() const { return closed_ && in_flight_ == 0; }

  /// The power governor, when the power plane is armed (nullptr otherwise).
  const power::PowerGovernor* governor() const { return governor_.get(); }

  /// The migration plane, when armed (nullptr otherwise).
  const migrate::MigrationManager* migration() const {
    return migration_.get();
  }
  /// The autoscaler, when armed (nullptr otherwise).
  const migrate::Autoscaler* autoscaler() const { return autoscaler_.get(); }

  /// Instantaneous fleet power draw (0 when the power plane is off).
  double fleet_watts() const;

  /// Free slot-semaphore capacity of a node; == node capacity after drain()
  /// once every grant has been returned (the chaos test pins this).
  std::int64_t free_slots(int node_index) const {
    return node_state_[static_cast<std::size_t>(node_index)]
        .slots->available();
  }

  /// Max-min spread of per-device completed counts over their mean
  /// (0 = perfectly balanced, 0 when nothing completed).
  double load_imbalance() const;

  /// Final counters + latency distribution into `m` under `cluster.*`
  /// (plus `fault.*` when the fault plane is armed).
  void export_metrics(obs::MetricsRegistry& m) const;

  /// Registers a passive per-tick sampler (queue depth, per-device
  /// outstanding, heartbeats when faults are armed) with the collector.
  /// Call before the run starts.
  void install_sampler(obs::Collector& collector);

  /// Arms per-request causal tracing (--trace-spans). The tracer is owned
  /// by the caller and must outlive the run; nullptr disarms. Call before
  /// the run starts. Tracing is PASSIVE: every hook only records virtual
  /// timestamps, so an armed run's event stream is byte-identical to a
  /// disarmed one.
  void set_tracer(obs::RequestTracer* tracer);

 private:
  /// One placement of a request on one node. The request's identity (uid,
  /// arrival) is fixed at admission; `attempt` counts executions (1-based)
  /// and keys every fault/backoff decision.
  struct Attempt {
    Request r;
    sim::Time arrival = 0;
    int attempt = 1;
    std::uint64_t uid = 0;
  };

  /// A tracked attempt's deadline event and its context, owned by the
  /// attempt's Record, then by its Wedged entry; freed once it fires or is
  /// cancelled.
  struct Deadline {
    Dispatcher* disp;
    int node;
    int idx;
    std::uint64_t uid;
    sim::EventId event = 0;
    /// May free this Deadline (the attempt's teardown does).
    void fire() { disp->on_deadline(node, idx, uid); }
  };

  struct NodeState {
    std::unique_ptr<sched::ReadyQueue> slots;
    /// In-flight request records indexed by TaskTable entry (id-relative):
    /// entry reuse is safe because a record is erased at resolution, before
    /// the slot semaphore lets the next request claim the entry. A record is
    /// allocated at spawn and freed by take_record()/park_wedged(); null
    /// means the entry holds no tracked attempt. Stored like the table, in
    /// spawn order one row at a time (runtime::EntryRows): size() is the
    /// node's physical capacity, backed or not.
    struct Record {
      std::uint64_t uid = 0;
      std::unique_ptr<Deadline> deadline;  // null = none armed
      /// The spawned task's handle, kept so a migrate-not-shed drain can
      /// try_revoke the entry before a scheduler warp claims it.
      runtime::TaskHandle handle{};
      Attempt att;
    };
    runtime::EntryRows<std::unique_ptr<Record>> records;
    /// Whether entry `idx` still tracks attempt `uid` (not resolved since).
    bool holds(int idx, std::uint64_t uid) const {
      const std::unique_ptr<Record>& rec = records[idx];
      return rec != nullptr && rec->uid == uid;
    }
    /// Non-null records — attempts spawned and still owed GPU progress.
    /// This is the watchdog's "holds work" signal, so wedged attempts are
    /// deliberately excluded: their GPU work already finished (the
    /// completion was swallowed), no further progress is expected, and
    /// counting them would turn every wedge on an idle node into a
    /// spurious node death before the task deadline could recover it.
    int tracked = 0;
    /// Spawn activity signal for the node's flusher (see flush_timer()).
    std::uint64_t spawn_epoch = 0;
    std::unique_ptr<sim::Condition> activity;
    /// Bumped by every migrate-not-shed drain of this node. serve()
    /// snapshots it at slot grant: a mismatch later means a drain began
    /// while the attempt was mid-flight (staging, spawning) and it must
    /// checkpoint itself — while an attempt RESTORED onto a still-draining
    /// node (the zero-loss fallback) sees equal epochs and runs in place.
    std::uint64_t drain_epoch = 0;
    /// Slot accounting: `granted` of floor(oversub x entries) slots are
    /// out; `staged` of those still wait for task_spawn to land. A slot
    /// stays granted through its output drain, after the GPU freed the
    /// entry. CHECKed: 0 <= staged <= granted <= slot_capacity.
    int slot_capacity = 0;
    int granted = 0;
    int staged = 0;
    int peak_staged = 0;  // the node's maximum over-admission depth
    /// Attempts whose output copy is on the node's D2H stream, in the
    /// order the stream lands them: each landing finalizes the front one.
    common::Fifo<Attempt> outputs;
    Dispatcher* disp = nullptr;
    int index = 0;
    void land_output() { disp->finalize(index, outputs.pop_front()); }
  };

  /// A wedged attempt: its TaskTable entry completed GPU-side but the
  /// completion was swallowed, so the entry may be reused while the attempt
  /// still awaits its deadline — it lives here, keyed by uid, not in
  /// records[]. (std::map: deterministic sweep order on node death.)
  struct Wedged {
    int node = -1;
    std::unique_ptr<Deadline> deadline;
    Attempt att;
  };

  /// What an attempt holds on its node when it leaves it.
  enum class Held {
    kQueued,   // node load only: never granted a slot
    kStaged,   // + a slot, but task_spawn has not landed
    kSpawned,  // + a slot and a TaskTable entry (record already torn down)
  };
  /// Where an attempt goes once leave() has returned what it held.
  enum class Exit {
    kRedispatch,  // the node failed it: re-place, no budget charge
    kFail,        // the attempt failed: attempt_failed (retry or shed)
    kMigrate,     // a migrate-not-shed drain: checkpoint at the safe point
    kShed,        // evicted from the slot queue: shed outright
  };

  sim::Simulation& sim() { return cluster_->sim(); }
  int healthy_nodes() const;

  sim::Process serve(Attempt a, int node_index);
  /// Pagoda's release chain frees a TaskTable entry only when a successor
  /// spawns into the column or the CPU flushes. Under open-loop arrivals a
  /// lull would strand each node's most recent task forever, so this
  /// per-node process waits for spawn activity to go quiet and then plays
  /// the paper's CPU waiter (flush + lazy aggregate copy-backs) until the
  /// node drains.
  sim::Process flush_timer(int node_index);
  /// Probes every non-dead node's liveness signature while work is in
  /// flight; parks when the cluster idles so it never keeps the event queue
  /// alive on its own.
  sim::Process watchdog_loop();
  sim::Process retry_later(Attempt a);

  /// The scheduling key for one placement attempt: class/deadline/cost from
  /// the request, seq freshly drawn so retries re-queue at the back.
  sched::SchedKey make_key(const Request& r, sim::Time arrival);
  /// Stamps the request's class/deadline onto its TaskParams so the GPU-side
  /// claim comparator sees them. Called once, at admission.
  void stamp_qos_tags(Request& r, sim::Time arrival) const;
  /// Non-fifo overload path: if the policy ranks the arrival ahead of the
  /// globally worst parked request, evict that request (it wakes and sheds)
  /// and return true so the arrival may be admitted in its place.
  bool try_evict_for(const Request& r);
  ClassStats& cstats(sched::Class c) {
    return cls_stats_[static_cast<std::size_t>(sched::index(c))];
  }

  /// Refuses an offer at the door (queue bound hit or no eligible node).
  void drop(const Request& r);
  void dispatch_attempt(Attempt a);
  /// Counts `a` against `node_index`'s load and starts serving it there.
  void place(Attempt a, int node_index);
  /// The single unwind (see the file comment): returns what `a` holds on
  /// `node_index` per `held`, exactly once, then takes `exit`. `cause`
  /// names the failure for kFail and kShed.
  void leave(int node_index, Attempt a, Held held, Exit exit,
             fault::FailureCause cause = fault::FailureCause::kNodeCrash);
  /// Tears down a tracked record: cancels its deadline, clears it and
  /// un-counts it from `tracked`. Returns the attempt it held.
  Attempt take_record(NodeState& ns, int idx);
  /// Moves a tracked record whose completion will never arrive into
  /// wedged_, keeping its deadline (and its slot) until that fires.
  void park_wedged(int node_index, NodeState& ns, int idx);
  /// The slot accounting bounds, CHECKed after every change.
  static void check_slots(const NodeState& ns);
  void on_task_complete(int node_index, runtime::TaskId id);
  /// Claim-observer hook (tracing only): resolves the claimed TaskTable
  /// entry to its request uid and stamps the warp_wait -> exec boundary.
  void on_task_claimed(int node_index, runtime::TaskId id, sim::Time now);
  void on_deadline(int node_index, int idx, std::uint64_t uid);
  /// Routes a failed attempt to retry-vs-shed; leave() has already returned
  /// everything it held.
  void attempt_failed(Attempt a, fault::FailureCause cause);
  void shed_request(Attempt a, fault::FailureCause cause);
  void finalize(int node_index, Attempt att);

  // --- migration plane ----------------------------------------------------
  /// Revokes one tracked record off a draining node: awaits the runtime's
  /// try_revoke race and, on a win, unwinds the record and checkpoints the
  /// attempt at the table-parked safe point. Re-validates the record around
  /// the await — completion, death sweep or timeout may resolve it first.
  sim::Process migrate_revoke(int node_index, int idx, std::uint64_t uid);
  /// Checkpoints one captured attempt, charges its node-resident state over
  /// the source's D2H link (the migrate_xfer trace phase), round-trips the
  /// byte image (the image is load-bearing: restore reads IT, not the live
  /// attempt), and re-enters dispatch.
  sim::Process migrate_out(int source_node, Attempt a, migrate::SafePoint p);
  /// Re-places a restored attempt. Falls back to the still-serving source
  /// node when no peer is eligible (zero-loss: a drain must not shed), and
  /// sheds only when the source itself is gone (true capacity loss).
  void restore_attempt(Attempt a, int source_node);

  /// A crash event (and, when it recovers, its recovery).
  sim::Process crash_node(fault::CrashEvent ev);
  /// A degrade window's edge: the link bandwidth becomes `scale`.
  sim::Process degrade_edge(int node_index, double scale, bool begins);
  void node_failed(int node_index);
  void recover_node(int node_index);
  /// The return-to-service step shared by recovery and reinstatement:
  /// healthy again, slot queue reopened, watchdog history cleared.
  void return_to_service(int node_index);
  void set_bandwidth_scale(int node_index, double scale);
  void fault_event(std::string_view name);
  void maybe_drained();

  Cluster* cluster_;
  std::unique_ptr<PlacementPolicy> policy_;
  DispatcherConfig cfg_;
  bool qos_ = false;  // sched.* export + per-class timeline armed
  sched::Policy sched_policy_;
  std::uint64_t sched_seq_ = 0;  // global admission sequence (ties)
  std::vector<NodeState> node_state_;
  std::map<std::uint64_t, Wedged> wedged_;
  // Each plane is armed iff its object exists: watchdog_ (fault plane),
  // governor_ (power), migration_ (migrate-not-shed drains). The vres
  // plane is armed iff cfg_.oversub > 1.
  std::unique_ptr<fault::Watchdog> watchdog_;
  Stats stats_;
  std::array<ClassStats, sched::kNumClasses> cls_stats_{};
  std::array<std::vector<double>, sched::kNumClasses> cls_latencies_us_;
  std::array<int, sched::kNumClasses> cls_in_flight_{};
  std::vector<int> placements_;
  std::vector<double> latencies_us_;
  std::vector<Span> spans_;
  std::uint64_t next_uid_ = 0;
  int in_flight_ = 0;
  int backlog_ = 0;  // admitted, waiting for a node slot
  bool closed_ = false;
  /// First instant the run drained (close()d, nothing in flight); -1 while
  /// running. Power export extrapolates to THIS time, not sim().now():
  /// run_until() parks the clock at the time cap after the last event, and
  /// charging idle watts across that dead tail would corrupt every
  /// energy-per-request figure.
  sim::Time drained_at_ = -1;
  sim::Condition drained_;
  sim::Condition work_cv_;  // wakes the parked watchdog on new work
  obs::Collector* collector_ = nullptr;
  obs::RequestTracer* tracer_ = nullptr;  // nullptr = tracing disarmed
  int fault_track_ = -1;  // lazily interned timeline track
  /// The governor's window onto this dispatcher (power plane only).
  std::unique_ptr<power::FleetControl> fleet_adapter_;
  std::unique_ptr<power::PowerGovernor> governor_;
  std::unique_ptr<migrate::MigrationManager> migration_;
  std::unique_ptr<migrate::Autoscaler> autoscaler_;
};

}  // namespace pagoda::cluster
