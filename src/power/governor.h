// PowerGovernor: the deterministic fleet power control loop, in the spirit
// of cloudsim_eec's Scheduler (PeriodicCheck + SLAWarning hooks).
//
// src/power is the ONLY mover of P/C/S states (tools/check.sh greps the
// rest of the tree for the mutator names): the governor moves them directly,
// and external fleet orchestrators (the migrate autoscaler) go through the
// sleep_drained_node/wake_node verbs below. It observes the fleet through the
// FleetControl interface — implemented by the cluster dispatcher — so this
// library depends on sim/gpu only, never on src/cluster.
//
// PeriodicCheck runs on a fixed virtual-time cadence and self-terminates
// when the fleet reports idle (arrival stream closed, nothing in flight), so
// it never keeps the event queue alive on its own. All decisions are pure
// functions of simulation state: runs replay byte-identically.
//
//   static    — pin every node at the P-state floor; no adaptation. floor=0
//               is the "always-max-performance" baseline (timing identical
//               to the power-off path, energy merely metered).
//   dvfs      — per-node DVFS on issue utilization (step faster above 70%,
//               deeper below 25%, never below the floor), C-state stepping
//               for idle SMMs, all-P0 boost after an SLAWarning.
//   powercap  — dvfs plus a fleet-watt ceiling: while instantaneous fleet
//               power exceeds the cap, the emptiest node steps deeper.
//
// Sleep management (energy-min placement) is orthogonal to the governor
// kind: when armed, idle surplus nodes are quiesced via the PR 4 drain
// lifecycle and put into a deep S-state; a queued backlog with zero awake
// headroom wakes the lowest-index sleeper (its wake-up latency is charged
// to the waiting requests as the power.wakeup trace phase).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "power/power_model.h"
#include "power/power_spec.h"
#include "sim/simulation.h"

namespace pagoda::power {

enum class GovernorKind { kStatic, kDvfs, kPowerCap };

/// Valid `--governor` names, in display order.
std::span<const std::string_view> all_governor_names();
std::optional<GovernorKind> parse_governor(std::string_view name);
/// One-line description for --list-policies.
std::string_view governor_description(GovernorKind k);

/// The governor's PeriodicCheck cadence.
inline constexpr sim::Duration kGovernorPeriod = sim::microseconds(50);

/// Everything the dispatcher needs to hand the power plane; lives here so
/// config structs outside src/power never name a power-state mutator.
struct PlaneConfig {
  /// nullopt = power plane off: no model, no governor, no hooks — the
  /// default path stays byte-identical.
  std::optional<PowerSpec> spec;
  GovernorKind governor = GovernorKind::kStatic;
  /// Fleet-watt ceiling for the powercap governor and the power-cap
  /// placement policy; 0 = uncapped.
  double cap_watts = 0.0;
  /// Arms S-state sleep management (set by the energy-min placement path).
  bool manage_sleep = false;

  bool enabled() const { return spec.has_value(); }
};

/// The governor's window onto the fleet, implemented by the dispatcher.
/// Mutation verbs here are node *lifecycle* (drain/reinstate), not power
/// state — power state moves only through NodePower, by the governor.
class FleetControl {
 public:
  virtual ~FleetControl() = default;
  virtual int num_nodes() const = 0;
  /// nullptr for a node without a power model (never, once armed).
  virtual NodePower* node_power(int node) = 0;
  virtual int node_outstanding(int node) const = 0;
  virtual std::int64_t node_free_slots(int node) const = 0;
  /// Total slot capacity of the node (free + held); the autoscaler's
  /// utilization denominator.
  virtual std::int64_t node_capacity(int node) const = 0;
  /// Admitted requests still waiting for a node slot.
  virtual int queued_backlog() const = 0;
  /// Whether placement may target the node (healthy, not draining/dead).
  virtual bool node_eligible(int node) const = 0;
  /// Arrival stream closed and nothing in flight — the tick stops.
  virtual bool idle() const = 0;
  virtual void quiesce_node(int node) = 0;
  virtual void restore_node(int node) = 0;
};

/// S-state verbs for fleet orchestrators hosted outside src/power (the
/// migrate autoscaler): tools/check.sh pins every NodePower mutator name to
/// this directory, so the verbs live here, as thin as the governor's own
/// sleep path. Sleeping assumes the caller already drained the node (it
/// aborts otherwise); waking restores the node into placement and lets its
/// residual wake-up latency land on waiting requests as the power_wakeup
/// trace phase.
void sleep_drained_node(FleetControl& fleet, int node, int s_state);
void wake_node(FleetControl& fleet, int node);
/// Whether the node is in an S-state (false when it has no power model).
bool node_asleep(FleetControl& fleet, int node);

class PowerGovernor {
 public:
  struct Stats {
    std::uint64_t checks = 0;
    std::uint64_t sla_warnings = 0;
    std::uint64_t nodes_slept = 0;
    std::uint64_t nodes_woken = 0;
  };

  PowerGovernor(sim::Simulation& sim, PlaneConfig cfg, FleetControl& fleet);

  /// Applies the initial P-state and (for adaptive kinds) starts the
  /// PeriodicCheck ticker. Call once, before the run starts.
  void start();

  /// SLAWarning hook: the dispatcher reports every completion that missed
  /// its deadline; adaptive governors boost the whole fleet to P0 and hold
  /// it there for a few checks.
  void on_sla_warning(sim::Time now);

  const Stats& stats() const { return stats_; }

 private:
  void schedule_tick();
  void tick();
  void periodic_check(sim::Time now);
  void check_dvfs(sim::Time now);
  void check_power_cap(sim::Time now);
  void check_sleep(sim::Time now);
  double fleet_watts(sim::Time now) const;
  int deepest_p() const { return cfg_.spec->p_floor; }

  sim::Simulation* sim_;
  PlaneConfig cfg_;
  FleetControl* fleet_;
  Stats stats_;
  int sla_hold_ = 0;  // checks left at forced P0 after an SLA warning
  std::vector<double> last_issued_;  // per-node issue integral at last check
  sim::Time last_check_ = 0;
  bool started_ = false;
};

}  // namespace pagoda::power
