#include "migrate/autoscaler.h"

#include <charconv>
#include <limits>

#include "common/check.h"

namespace pagoda::migrate {

namespace {

bool parse_double(std::string_view s, double* out) {
  const char* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc{} && p == end;
}

bool parse_i64(std::string_view s, std::int64_t* out) {
  const char* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc{} && p == end;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t at = s.find(sep);
    parts.push_back(s.substr(0, at));
    if (at == std::string_view::npos) break;
    s.remove_prefix(at + 1);
  }
  return parts;
}

}  // namespace

std::optional<AutoscaleConfig> parse_autoscale_spec(std::string_view spec,
                                                    std::string* error) {
  PAGODA_CHECK(error != nullptr);
  const std::vector<std::string_view> parts = split(spec, ':');
  AutoscaleConfig cfg;
  cfg.enabled = true;
  if (parts.size() != 1 && parts.size() != 3 && parts.size() != 4) {
    *error = "expected UTIL[:LOW:HIGH[:MIN]]";
    return std::nullopt;
  }
  if (!parse_double(parts[0], &cfg.target_util)) {
    *error = "bad target utilization";
    return std::nullopt;
  }
  if (parts.size() >= 3) {
    if (!parse_double(parts[1], &cfg.low_watermark) ||
        !parse_double(parts[2], &cfg.high_watermark)) {
      *error = "bad watermark";
      return std::nullopt;
    }
  } else {
    // Derive a symmetric band around the target.
    cfg.low_watermark = cfg.target_util * 0.5;
    cfg.high_watermark = (1.0 + cfg.target_util) * 0.5;
  }
  if (parts.size() == 4) {
    std::int64_t min_nodes = 0;
    if (!parse_i64(parts[3], &min_nodes) || min_nodes < 1 ||
        min_nodes > std::numeric_limits<int>::max()) {
      *error = "bad min-nodes (must be >= 1)";
      return std::nullopt;
    }
    cfg.min_nodes = static_cast<int>(min_nodes);
  }
  if (!(cfg.target_util > 0.0 && cfg.target_util < 1.0)) {
    *error = "target utilization must be in (0, 1)";
    return std::nullopt;
  }
  if (!(cfg.low_watermark >= 0.0 && cfg.low_watermark < cfg.high_watermark &&
        cfg.high_watermark <= 1.0)) {
    *error = "watermarks must satisfy 0 <= LOW < HIGH <= 1";
    return std::nullopt;
  }
  return cfg;
}

std::optional<std::vector<ResizeStep>> parse_resize_spec(std::string_view spec,
                                                         std::string* error) {
  PAGODA_CHECK(error != nullptr);
  std::vector<ResizeStep> plan;
  for (std::string_view item : split(spec, ',')) {
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      *error = "expected AT_US:NODES[,AT_US:NODES...]";
      return std::nullopt;
    }
    std::int64_t at_us = 0;
    std::int64_t target = 0;
    if (!parse_i64(item.substr(0, colon), &at_us) || at_us < 0 ||
        static_cast<double>(at_us) > sim::kMaxSpecMicroseconds) {
      *error = "bad resize instant (microseconds, in [0, 1e12])";
      return std::nullopt;
    }
    if (!parse_i64(item.substr(colon + 1), &target) || target < 1 ||
        target > std::numeric_limits<int>::max()) {
      *error = "bad resize target (nodes, >= 1)";
      return std::nullopt;
    }
    ResizeStep step;
    step.at = sim::microseconds(at_us);
    step.target = static_cast<int>(target);
    if (!plan.empty() && step.at <= plan.back().at) {
      *error = "resize instants must be strictly increasing";
      return std::nullopt;
    }
    plan.push_back(step);
  }
  if (plan.empty()) {
    *error = "empty resize plan";
    return std::nullopt;
  }
  return plan;
}

Autoscaler::Autoscaler(sim::Simulation& sim, AutoscaleConfig cfg,
                       power::FleetControl& fleet)
    : sim_(&sim), cfg_(std::move(cfg)), fleet_(&fleet) {
  PAGODA_CHECK_MSG(cfg_.armed(), "autoscaler constructed but not armed");
  PAGODA_CHECK(cfg_.period > 0);
  PAGODA_CHECK(cfg_.min_nodes >= 1);
  PAGODA_CHECK(cfg_.up_ticks >= 1 && cfg_.down_ticks >= 1);
  pending_sleep_.assign(static_cast<std::size_t>(fleet_->num_nodes()), false);
}

void Autoscaler::start() {
  PAGODA_CHECK_MSG(!started_, "autoscaler started twice");
  started_ = true;
  schedule_tick();
}

void Autoscaler::schedule_tick() {
  sim_->after(cfg_.period, sim::Continuation::member<&Autoscaler::tick>(this));
}

void Autoscaler::tick() {
  if (fleet_->idle()) return;  // stream closed + drained: stop for good
  periodic_check(sim_->now());
  schedule_tick();
}

int Autoscaler::serving_nodes() const {
  int n = 0;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    if (power::node_asleep(*fleet_, i)) continue;
    if (pending_sleep_[static_cast<std::size_t>(i)]) continue;
    ++n;
  }
  return n;
}

void Autoscaler::finish_pending_sleeps() {
  // A quiesced node goes to sleep only once the drain-migration has emptied
  // it — the sleep verb itself insists on zero outstanding work.
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    if (!pending_sleep_[static_cast<std::size_t>(i)]) continue;
    if (fleet_->node_outstanding(i) != 0) continue;
    power::sleep_drained_node(*fleet_, i, cfg_.sleep_state);
    pending_sleep_[static_cast<std::size_t>(i)] = false;
    ++stats_.nodes_slept;
  }
}

int Autoscaler::desired_nodes() const {
  const int num = fleet_->num_nodes();
  const int serving = serving_nodes();
  int desired = serving;
  if (plan_target_ >= 0) {
    desired = plan_target_;
  } else if (cfg_.enabled) {
    if (hot_ticks_ >= cfg_.up_ticks) {
      desired = serving + 1;
    } else if (cold_ticks_ >= cfg_.down_ticks) {
      desired = serving - 1;
    }
  }
  if (desired < cfg_.min_nodes) desired = cfg_.min_nodes;
  if (desired > num) desired = num;
  return desired;
}

void Autoscaler::periodic_check(sim::Time now) {
  ++stats_.checks;
  finish_pending_sleeps();

  // Plan steps snap the desired size and silence the hysteresis counters.
  while (next_step_ < cfg_.plan.size() && cfg_.plan[next_step_].at <= now) {
    plan_target_ = cfg_.plan[next_step_].target;
    ++next_step_;
    ++stats_.resize_events;
    hot_ticks_ = 0;
    cold_ticks_ = 0;
  }

  if (cfg_.enabled && plan_target_ < 0) {
    // Pressure = held slots plus the admitted backlog still waiting for
    // one, over the serving capacity; the backlog term is what lets a
    // saturated fleet (util pinned at 1.0) keep asking for more nodes.
    std::int64_t held = 0;
    std::int64_t capacity = 0;
    for (int i = 0; i < fleet_->num_nodes(); ++i) {
      if (power::node_asleep(*fleet_, i)) continue;
      if (pending_sleep_[static_cast<std::size_t>(i)]) continue;
      held += fleet_->node_outstanding(i);
      capacity += fleet_->node_capacity(i);
    }
    const double util =
        capacity > 0
            ? static_cast<double>(held + fleet_->queued_backlog()) /
                  static_cast<double>(capacity)
            : 1.0;
    if (util > cfg_.high_watermark) {
      ++hot_ticks_;
      cold_ticks_ = 0;
    } else if (util < cfg_.low_watermark) {
      ++cold_ticks_;
      hot_ticks_ = 0;
    } else {
      hot_ticks_ = 0;
      cold_ticks_ = 0;
    }
  }

  const int serving = serving_nodes();
  const int desired = desired_nodes();
  if (desired > serving) {
    grow_one();
    hot_ticks_ = 0;
  } else if (desired < serving) {
    shrink_one();
    cold_ticks_ = 0;
  }
  // One action per check: the fleet rolls toward the target, it never steps.
}

void Autoscaler::grow_one() {
  // Prefer cancelling an in-progress drain: the node is warm and already
  // holds whatever work the migration sweep has not yet moved — restoring
  // it must NOT resurrect shed slots or double-reinstate (the PR 4 x PR 7
  // seam the regression test pins).
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    if (!pending_sleep_[static_cast<std::size_t>(i)]) continue;
    pending_sleep_[static_cast<std::size_t>(i)] = false;
    fleet_->restore_node(i);
    ++stats_.drains_cancelled;
    return;
  }
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    if (!power::node_asleep(*fleet_, i)) continue;
    power::wake_node(*fleet_, i);
    ++stats_.nodes_woken;
    return;
  }
}

void Autoscaler::shrink_one() {
  // Victim: the highest-index healthy serving node. Quiescing routes
  // through the dispatcher's drain lifecycle, which (with the migration
  // plane armed) checkpoints the node's eligible attempts onto the rest of
  // the fleet instead of waiting them out.
  for (int i = fleet_->num_nodes() - 1; i >= 0; --i) {
    if (power::node_asleep(*fleet_, i)) continue;
    if (pending_sleep_[static_cast<std::size_t>(i)]) continue;
    if (!fleet_->node_eligible(i)) continue;
    fleet_->quiesce_node(i);
    pending_sleep_[static_cast<std::size_t>(i)] = true;
    ++stats_.drains_started;
    return;
  }
}

}  // namespace pagoda::migrate
