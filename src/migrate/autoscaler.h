// Autoscaler: a traffic-driven fleet resizer behind the power plane's
// FleetControl window, built like the governors — a deterministic
// PeriodicCheck on the governor's virtual-time cadence
// (power::kGovernorPeriod) whose decisions are pure functions of
// simulation state.
//
// Two drive modes, composable:
//
//   utilization  target-utilization with hysteresis. util = outstanding /
//                capacity over serving nodes; 2 consecutive checks above
//                the high watermark grow the fleet by one node, 6 below the
//                low watermark shrink it by one (autoscaler.cpp's kUpTicks
//                and kDownTicks).
//                Asymmetric on purpose: waking is cheap and latency-critical,
//                sleeping costs a drain-migration, so scale-up reacts fast
//                and scale-down waits out noise.
//
//   plan         an explicit rolling-resize schedule (`--resize=AT:NODES`):
//                at each step's instant the desired fleet size snaps to the
//                target and the hysteresis counters reset. Used by the
//                elastic_fleet bench's resize scenario and by operators
//                rehearsing a maintenance window.
//
// Shrinking is migrate-not-shed: the victim (highest-index serving node) is
// quiesced through the PR 4 drain lifecycle, the dispatcher's migration
// plane checkpoints its eligible attempts onto other nodes, and only once
// the node reports zero outstanding work does the autoscaler put it into its
// S-state via the power::sleep_drained_node verb. One resize action per
// check: the fleet rolls, it never steps.
//
// Growing prefers cancelling an in-progress drain (the node is still warm;
// restore_node simply re-opens placement) over waking a sleeper — this is
// also the seam the PR 4 x PR 7 regression test pins: a wake arriving while
// a drain is still in flight must not double-reinstate the node.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "power/governor.h"
#include "sim/simulation.h"

namespace pagoda::migrate {

/// One step of an explicit rolling-resize plan.
struct ResizeStep {
  sim::Time at = 0;   // virtual-time instant the step takes effect
  int target = 0;     // desired number of serving nodes
};

struct AutoscaleConfig {
  /// Arms utilization-driven scaling. A pure plan run (resize rehearsal)
  /// leaves this false and only follows `plan`.
  bool enabled = false;
  double high_watermark = 0.85;  // util above this counts toward scale-up
  double low_watermark = 0.30;   // util below this counts toward scale-down
  int min_nodes = 1;             // never shrink below this
  /// Explicit resize schedule, strictly increasing `at`.
  std::vector<ResizeStep> plan;

  bool armed() const { return enabled || !plan.empty(); }
};

/// `--autoscale=UTIL[:LOW:HIGH[:MIN]]` -> config with enabled=true. UTIL
/// alone sets the band [UTIL/2, (1+UTIL)/2]. Returns nullopt (with a
/// message in *error) on a malformed spec.
std::optional<AutoscaleConfig> parse_autoscale_spec(std::string_view spec,
                                                    std::string* error);

/// `--resize=AT_US:NODES[,AT_US:NODES...]` -> plan steps. Instants must be
/// strictly increasing and targets >= 1.
std::optional<std::vector<ResizeStep>> parse_resize_spec(std::string_view spec,
                                                         std::string* error);

class Autoscaler {
 public:
  struct Stats {
    std::uint64_t checks = 0;
    std::uint64_t nodes_slept = 0;
    std::uint64_t nodes_woken = 0;
    std::uint64_t drains_started = 0;
    /// Scale-up cancelled an in-progress drain instead of waking a sleeper.
    std::uint64_t drains_cancelled = 0;
    std::uint64_t resize_events = 0;  // plan steps applied
  };

  Autoscaler(sim::Simulation& sim, AutoscaleConfig cfg,
             power::FleetControl& fleet);

  /// Starts the PeriodicCheck ticker (and schedules the plan steps). Call
  /// once, before the run starts. The ticker self-terminates when the fleet
  /// reports idle.
  void start();

  const Stats& stats() const { return stats_; }
  /// Nodes currently serving traffic (awake and not draining toward sleep).
  int serving_nodes() const;

 private:
  void schedule_tick();
  void tick();
  void periodic_check(sim::Time now);
  void finish_pending_sleeps();
  int desired_nodes() const;
  void grow_one();
  void shrink_one();

  sim::Simulation* sim_;
  AutoscaleConfig cfg_;
  power::FleetControl* fleet_;
  Stats stats_;
  /// Nodes quiesced by this autoscaler and still draining toward sleep.
  std::vector<bool> pending_sleep_;
  int hot_ticks_ = 0;
  int cold_ticks_ = 0;
  /// Desired size pinned by the most recent plan step; <0 = no plan active,
  /// utilization drives.
  int plan_target_ = -1;
  std::size_t next_step_ = 0;
  bool started_ = false;
};

}  // namespace pagoda::migrate
