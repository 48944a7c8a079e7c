#include "power/governor.h"

#include <array>

#include "common/check.h"

namespace pagoda::power {

namespace {

constexpr std::array<std::string_view, 3> kGovernorNames = {"static", "dvfs",
                                                            "powercap"};

// Issue-utilization thresholds for the adaptive step decisions.
constexpr double kStepUpUtil = 0.70;    // above: one P-state faster
constexpr double kStepDownUtil = 0.25;  // below: one P-state deeper
constexpr int kSlaHoldChecks = 4;       // checks pinned at P0 after a warning
constexpr int kSleepState = 3;          // S-state used for parked nodes

}  // namespace

std::span<const std::string_view> all_governor_names() {
  return kGovernorNames;
}

std::optional<GovernorKind> parse_governor(std::string_view name) {
  if (name == "static") return GovernorKind::kStatic;
  if (name == "dvfs") return GovernorKind::kDvfs;
  if (name == "powercap") return GovernorKind::kPowerCap;
  return std::nullopt;
}

std::string_view governor_description(GovernorKind k) {
  switch (k) {
    case GovernorKind::kStatic:
      return "pin every node at the P-state floor; no adaptation";
    case GovernorKind::kDvfs:
      return "issue-utilization DVFS + C-state parking; P0 boost on SLA "
             "warnings";
    case GovernorKind::kPowerCap:
      return "dvfs plus a fleet-watt ceiling (emptiest node steps deeper)";
  }
  return "";
}

PowerGovernor::PowerGovernor(sim::Simulation& sim, PlaneConfig cfg,
                             FleetControl& fleet)
    : sim_(&sim), cfg_(std::move(cfg)), fleet_(&fleet) {
  PAGODA_CHECK_MSG(cfg_.enabled(), "governor requires a power spec");
  last_issued_.assign(static_cast<std::size_t>(fleet_->num_nodes()), 0.0);
}

void PowerGovernor::start() {
  PAGODA_CHECK_MSG(!started_, "governor started twice");
  started_ = true;
  // Initial P-state: the static governor pins the floor; adaptive governors
  // start at P0 and step down as utilization allows.
  const int p0 = cfg_.governor == GovernorKind::kStatic ? deepest_p() : 0;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    fleet_->node_power(i)->set_p_state(p0);
  }
  // A static governor without sleep management needs no control loop at all.
  if (cfg_.governor == GovernorKind::kStatic && !cfg_.manage_sleep) return;
  last_check_ = sim_->now();
  schedule_tick();
}

void PowerGovernor::schedule_tick() {
  sim_->after(kGovernorPeriod,
              sim::Continuation::member<&PowerGovernor::tick>(this));
}

void PowerGovernor::tick() {
  if (fleet_->idle()) return;  // stream closed + drained: stop for good
  periodic_check(sim_->now());
  schedule_tick();
}

void PowerGovernor::on_sla_warning(sim::Time now) {
  (void)now;
  ++stats_.sla_warnings;
  if (cfg_.governor == GovernorKind::kStatic) return;
  sla_hold_ = kSlaHoldChecks;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    NodePower* np = fleet_->node_power(i);
    if (!np->asleep()) np->set_p_state(0);
  }
}

void PowerGovernor::periodic_check(sim::Time now) {
  ++stats_.checks;
  if (cfg_.governor != GovernorKind::kStatic) check_dvfs(now);
  if (cfg_.governor == GovernorKind::kPowerCap && cfg_.cap_watts > 0.0) {
    check_power_cap(now);
  }
  if (cfg_.manage_sleep) check_sleep(now);
  if (sla_hold_ > 0) --sla_hold_;
  last_check_ = now;
}

void PowerGovernor::check_dvfs(sim::Time now) {
  const double dt = sim::to_seconds(now - last_check_);
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    NodePower* np = fleet_->node_power(i);
    const double issued = np->issued_work(now);
    const double delta = issued - last_issued_[static_cast<std::size_t>(i)];
    last_issued_[static_cast<std::size_t>(i)] = issued;
    if (np->asleep()) continue;
    // C-state parking: every idle SMM steps one level deeper per check; the
    // issue wake gate pops it back to C0 (charging the wake-up latency) the
    // moment work arrives.
    for (int s = 0; s < np->num_smms(); ++s) {
      np->smm_power(s).step_c_deeper(now);
    }
    if (dt <= 0.0) continue;
    const double cap = np->issue_capacity();
    const double util = cap > 0.0 ? delta / (dt * cap) : 0.0;
    const int p = np->p_state();
    if (util > kStepUpUtil && p > 0) {
      np->set_p_state(p - 1);
    } else if (util < kStepDownUtil && p < deepest_p() && sla_hold_ == 0) {
      np->set_p_state(p + 1);
    }
  }
}

void PowerGovernor::check_power_cap(sim::Time now) {
  // While the fleet exceeds the cap, step the awake node with the least
  // outstanding work (ties to the lowest index) one P-state deeper.
  while (fleet_watts(now) > cfg_.cap_watts) {
    int victim = -1;
    for (int i = 0; i < fleet_->num_nodes(); ++i) {
      NodePower* np = fleet_->node_power(i);
      if (np->asleep() || np->p_state() >= deepest_p()) continue;
      if (victim < 0 ||
          fleet_->node_outstanding(i) < fleet_->node_outstanding(victim)) {
        victim = i;
      }
    }
    if (victim < 0) break;  // everyone already at the floor
    fleet_->node_power(victim)->set_p_state(
        fleet_->node_power(victim)->p_state() + 1);
  }
}

void PowerGovernor::check_sleep(sim::Time now) {
  (void)now;
  const int backlog = fleet_->queued_backlog();
  int awake = 0;
  int lowest_awake = -1;
  std::int64_t awake_free_slots = 0;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    if (fleet_->node_power(i)->asleep()) continue;
    ++awake;
    if (lowest_awake < 0) lowest_awake = i;
    if (fleet_->node_eligible(i)) {
      awake_free_slots += fleet_->node_free_slots(i);
    }
  }
  // Wake: queued work with zero awake headroom -> bring back the
  // lowest-index sleeper. Its S->active latency lands on the waiting
  // requests as the power.wakeup trace phase.
  if (backlog > 0 && awake_free_slots == 0) {
    for (int i = 0; i < fleet_->num_nodes(); ++i) {
      NodePower* np = fleet_->node_power(i);
      if (!np->asleep()) continue;
      np->begin_wake();
      fleet_->restore_node(i);
      ++stats_.nodes_woken;
      return;  // one node per check: ramp deterministically
    }
    return;
  }
  // Sleep: with no backlog, park every idle surplus node (highest index
  // first), always keeping the lowest-index node awake.
  if (backlog > 0) return;
  for (int i = fleet_->num_nodes() - 1; i >= 0 && awake > 1; --i) {
    NodePower* np = fleet_->node_power(i);
    if (np->asleep() || i == lowest_awake) continue;
    if (fleet_->node_outstanding(i) > 0) continue;
    fleet_->quiesce_node(i);
    np->enter_sleep(kSleepState);
    ++stats_.nodes_slept;
    --awake;
  }
}

void sleep_drained_node(FleetControl& fleet, int node, int s_state) {
  NodePower* np = fleet.node_power(node);
  PAGODA_CHECK_MSG(np != nullptr, "sleep verb on a node without a power model");
  PAGODA_CHECK_MSG(fleet.node_outstanding(node) == 0,
                   "sleep verb on a node still holding work: drain it first");
  np->enter_sleep(s_state);
}

void wake_node(FleetControl& fleet, int node) {
  NodePower* np = fleet.node_power(node);
  PAGODA_CHECK_MSG(np != nullptr, "wake verb on a node without a power model");
  np->begin_wake();
  fleet.restore_node(node);
}

bool node_asleep(FleetControl& fleet, int node) {
  const NodePower* np = fleet.node_power(node);
  return np != nullptr && np->asleep();
}

double PowerGovernor::fleet_watts(sim::Time now) const {
  double w = 0.0;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    w += fleet_->node_power(i)->watts(now);
  }
  return w;
}

}  // namespace pagoda::power
