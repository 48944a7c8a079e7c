#include "cluster/traffic.h"

#include <charconv>
#include <cmath>
#include <numbers>

#include "common/check.h"

namespace pagoda::cluster {

namespace {

/// Full-consumption double parse; nullopt on garbage, empty or non-finite
/// input (NaN would slip past every `<= 0` range check).
std::optional<double> parse_double(std::string_view s) {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// Largest multiple of its mean an exponential draw can reach: exp_sample
/// maps the smallest 1 - u a 53-bit uniform yields (2^-53) to 53 ln 2.
constexpr double kMaxDrawOverMean = 53.0 * std::numbers::ln2;

/// Whether every exponential draw with mean `mean_us` converts to a
/// sim::Duration, with the headroom every spec time keeps for sums.
bool draw_fits(double mean_us) {
  return mean_us * kMaxDrawOverMean <= sim::kMaxSpecMicroseconds;
}

/// Whether next_gap() averages at most 1e4 loop steps per draw. Each step
/// lands an arrival or ends a phase, so a draw takes 1 + 1 / (arrivals per
/// phase) steps: valid but tiny phases (bursty:1e-2:4) take ~1e5.
bool steps_fit(double arrivals_per_phase) {
  return 1.0 + 1.0 / arrivals_per_phase <= 1e4;
}

/// Whether every draw next_gap() can make for `cfg` fits, and cheaply: the
/// arrival gap at the lowest rate of the process and, when modulated, the
/// phase lengths and the steps per draw.
bool gaps_fit(const ArrivalConfig& cfg) {
  const double rate = cfg.rate_per_sec;
  const double f = cfg.burst_factor;
  const double on_us = sim::to_microseconds(cfg.mean_on);
  switch (cfg.kind) {
    case ArrivalKind::Closed:
      return true;
    case ArrivalKind::Poisson:
      return draw_fits(1e6 / rate);
    case ArrivalKind::Bursty:  // ON rate rate x f; OFF mean on_us x (f - 1)
      return draw_fits(1e6 / (rate * f)) && draw_fits(on_us * (f - 1.0)) &&
             steps_fit(rate * f * on_us * 1e-6);
    case ArrivalKind::Diurnal:  // trough rate 2 x rate / (f + 1)
      return draw_fits(1e6 * (f + 1.0) / (2.0 * rate)) && draw_fits(on_us) &&
             steps_fit(rate * on_us * 1e-6);
  }
  return false;
}

}  // namespace

std::optional<ArrivalConfig> ArrivalConfig::parse(std::string_view spec) {
  ArrivalConfig cfg;
  if (spec == "closed") return cfg;

  const std::size_t colon = spec.find(':');
  const std::string_view kind = spec.substr(0, colon);
  if (kind != "poisson" && kind != "bursty" && kind != "diurnal") {
    return std::nullopt;
  }
  if (colon == std::string_view::npos) return std::nullopt;  // rate required

  std::string_view rest = spec.substr(colon + 1);
  const std::size_t colon2 = rest.find(':');
  const std::optional<double> rate = parse_double(rest.substr(0, colon2));
  if (!rate.has_value() || *rate <= 0.0) return std::nullopt;
  cfg.rate_per_sec = *rate;

  if (kind == "poisson") {
    if (colon2 != std::string_view::npos) return std::nullopt;
    cfg.kind = ArrivalKind::Poisson;
    return gaps_fit(cfg) ? std::optional(cfg) : std::nullopt;
  }
  if (kind == "diurnal") {
    cfg.kind = ArrivalKind::Diurnal;
    cfg.burst_factor = 4.0;
    cfg.mean_on = sim::milliseconds(20.0);
    if (colon2 != std::string_view::npos) {
      const std::string_view rest2 = rest.substr(colon2 + 1);
      const std::size_t colon3 = rest2.find(':');
      const std::optional<double> factor =
          parse_double(rest2.substr(0, colon3));
      if (!factor.has_value() || *factor <= 1.0) return std::nullopt;
      cfg.burst_factor = *factor;
      if (colon3 != std::string_view::npos) {
        const std::optional<double> on_us =
            parse_double(rest2.substr(colon3 + 1));
        if (!on_us.has_value() || *on_us <= 0.0 ||
            *on_us > sim::kMaxSpecMicroseconds) {
          return std::nullopt;
        }
        cfg.mean_on = sim::microseconds(*on_us);
      }
    }
    return gaps_fit(cfg) ? std::optional(cfg) : std::nullopt;
  }
  cfg.kind = ArrivalKind::Bursty;
  if (colon2 != std::string_view::npos) {
    const std::optional<double> factor = parse_double(rest.substr(colon2 + 1));
    if (!factor.has_value() || *factor <= 1.0) return std::nullopt;
    cfg.burst_factor = *factor;
  }
  return gaps_fit(cfg) ? std::optional(cfg) : std::nullopt;
}

double ArrivalConfig::mean_span_s(std::int64_t requests) const {
  if (kind == ArrivalKind::Closed) return 0.0;
  return static_cast<double>(requests) / rate_per_sec;
}

std::string_view ArrivalConfig::choices() {
  return "closed, poisson:RATE, bursty:RATE[:FACTOR], "
         "diurnal:RATE[:FACTOR[:ON_US]]  (RATE in requests/s; FACTOR > 1; "
         "ON_US = mean phase length in us; 37x the slowest mean gap or "
         "phase must stay under 1e12 us, and a phase must average >= 1e-4 "
         "arrivals)";
}

ArrivalSequence::ArrivalSequence(const ArrivalConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  if (cfg_.kind != ArrivalKind::Closed) {
    PAGODA_CHECK_MSG(cfg_.rate_per_sec > 0.0, "arrival rate must be positive");
  }
}

double ArrivalSequence::exp_sample(double mean) {
  return -mean * std::log(1.0 - rng_.next_double());
}

sim::Duration ArrivalSequence::next_gap() {
  switch (cfg_.kind) {
    case ArrivalKind::Closed:
      return 0;
    case ArrivalKind::Poisson:
      return sim::seconds(exp_sample(1.0 / cfg_.rate_per_sec));
    case ArrivalKind::Bursty: {
      // ON/OFF modulated Poisson: arrivals at burst_factor x the mean rate
      // during ON phases; the 1/factor duty cycle restores the mean.
      const double on_rate = cfg_.rate_per_sec * cfg_.burst_factor;
      const sim::Duration mean_on = cfg_.mean_on;
      const sim::Duration mean_off = static_cast<sim::Duration>(
          static_cast<double>(mean_on) * (cfg_.burst_factor - 1.0));
      sim::Duration gap = 0;
      while (true) {
        if (on_left_ <= 0) {
          gap += static_cast<sim::Duration>(
              exp_sample(static_cast<double>(mean_off)));
          on_left_ = static_cast<sim::Duration>(
              exp_sample(static_cast<double>(mean_on)));
        }
        const auto arrival =
            static_cast<sim::Duration>(sim::seconds(exp_sample(1.0 / on_rate)));
        if (arrival <= on_left_) {
          on_left_ -= arrival;
          return gap + arrival;
        }
        gap += on_left_;
        on_left_ = 0;
      }
    }
    case ArrivalKind::Diurnal: {
      // Day/night modulated Poisson: exponential-length peak and trough
      // phases of equal mean length; the peak rate is factor x the trough
      // rate, both scaled so the long-run mean stays rate_per_sec:
      //   (peak + trough) / 2 == rate,  peak == factor * trough.
      const double peak_rate = cfg_.rate_per_sec * 2.0 * cfg_.burst_factor /
                               (cfg_.burst_factor + 1.0);
      const double trough_rate = peak_rate / cfg_.burst_factor;
      sim::Duration gap = 0;
      while (true) {
        if (phase_left_ <= 0) {
          in_peak_ = !in_peak_;
          phase_left_ = static_cast<sim::Duration>(
              exp_sample(static_cast<double>(cfg_.mean_on)));
        }
        const double rate = in_peak_ ? peak_rate : trough_rate;
        const auto arrival =
            static_cast<sim::Duration>(sim::seconds(exp_sample(1.0 / rate)));
        sim::Duration& res = in_peak_ ? peak_time_ : trough_time_;
        if (arrival <= phase_left_) {
          phase_left_ -= arrival;
          res += arrival;
          return gap + arrival;
        }
        gap += phase_left_;
        res += phase_left_;
        phase_left_ = 0;
      }
    }
  }
  return 0;
}

gpu::KernelCoro service_kernel(gpu::WarpCtx& ctx) {
  const auto& a = ctx.args_as<ServiceArgs>();
  ctx.charge(a.compute_cycles);
  ctx.charge_stall(a.stall_cycles);
  co_return;
}

Request synth_request(const RequestProfile& p, std::uint64_t seed, int index) {
  SplitMix64 rng(hash_index(seed, static_cast<std::uint64_t>(index)));
  double scale = 0.5 + rng.next_double();  // uniform in [0.5, 1.5)
  if (p.heavy_fraction > 0.0 && rng.next_double() < p.heavy_fraction) {
    scale *= p.heavy_multiplier;
  }
  Request r;
  r.index = index;
  r.params.fn = service_kernel;
  r.params.threads_per_block = p.threads_per_task;
  r.params.set_args(ServiceArgs{p.compute_cycles * scale,
                                p.stall_cycles * scale});
  // Service-demand hint for load-aware placement: warps occupied x relative
  // cycle scale.
  r.cost = scale * (static_cast<double>(p.threads_per_task) / 32.0);
  r.h2d_bytes = p.h2d_bytes;
  r.d2h_bytes = p.d2h_bytes;
  if (p.num_keys > 0) {
    // Keys are 1-based so key 0 keeps meaning "unkeyed".
    r.data_key = 1 + rng.next_below(static_cast<std::uint64_t>(p.num_keys));
  }
  r.slo = p.slo;
  r.cls = p.cls;
  return r;
}

}  // namespace pagoda::cluster
