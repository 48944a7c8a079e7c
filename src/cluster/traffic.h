// Open-loop traffic for the cluster serving layer.
//
// ArrivalConfig/ArrivalSequence model how requests arrive:
//   closed         — no pacing; every request is offered back-to-back (the
//                    throughput-bench configuration).
//   poisson:RATE   — exponential inter-arrival gaps at RATE requests/s.
//   bursty:RATE[:FACTOR] — an ON/OFF modulated Poisson process (MMPP-2):
//                    exponential ON and OFF phases; arrivals only during ON
//                    at FACTOR x the mean rate, with the duty cycle chosen
//                    so the long-run mean stays RATE. FACTOR defaults to 8.
//   diurnal:RATE[:FACTOR[:ON_US]] — day/night modulated Poisson (MMPP-2
//                    with two nonzero rates): exponential peak and trough
//                    phases of equal mean length ON_US, peak rate FACTOR x
//                    the trough rate, both scaled so the long-run mean stays
//                    RATE. The trough still trickles (unlike bursty's
//                    silence), so energy-min placement can pack the fleet at
//                    night without starving. FACTOR defaults to 4, ON_US to
//                    20000 (20 ms phases).
//
// RequestProfile synthesizes the requests themselves (service demand, copy
// volumes, data keys, optional heavy tail) for benches and tests that don't
// want a full workloads::Workload. Everything is SplitMix64-seeded, so a
// (config, seed) pair replays the identical arrival trace byte-for-byte.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "cluster/request.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "gpu/kernel.h"

namespace pagoda::cluster {

enum class ArrivalKind { Closed, Poisson, Bursty, Diurnal };

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::Closed;
  /// Long-run mean arrival rate (requests/s); ignored for Closed.
  double rate_per_sec = 0.0;
  /// Bursty: ON-phase rate multiplier (duty cycle = 1/factor).
  /// Diurnal: peak-to-trough rate ratio (phases have equal mean length).
  double burst_factor = 8.0;
  /// Bursty: mean ON-phase length; the mean OFF length follows from the
  /// duty cycle as mean_on * (factor - 1).
  /// Diurnal: mean length of BOTH the peak and the trough phase.
  sim::Duration mean_on = sim::microseconds(200.0);

  /// Parses "closed", "poisson:RATE", "bursty:RATE[:FACTOR]" or
  /// "diurnal:RATE[:FACTOR[:ON_US]]". nullopt on malformed input, on a
  /// rate, factor or phase length so extreme that an exponential draw (up
  /// to ~37x its mean) would not fit in sim::Duration, and on a modulated
  /// spec whose next_gap() would average more than 1e4 phase-loop steps.
  static std::optional<ArrivalConfig> parse(std::string_view spec);
  /// Valid forms, for CLI error messages.
  static std::string_view choices();

  /// Mean virtual time to offer `requests` arrivals, in seconds: requests /
  /// rate (0 for Closed). A run whose mean span exceeds its time cap cannot
  /// complete, so callers reject such a spec up front.
  double mean_span_s(std::int64_t requests) const;
};

/// Deterministic inter-arrival gap stream for one ArrivalConfig.
class ArrivalSequence {
 public:
  ArrivalSequence(const ArrivalConfig& cfg, std::uint64_t seed);
  /// Gap before the next arrival (0 for Closed).
  sim::Duration next_gap();

  /// Fraction of generated time spent in the high-rate phase (Diurnal
  /// only; 0 before any gap was drawn). Long-run it converges to 0.5 —
  /// the duty-cycle occupancy the MMPP tests check statistically.
  double on_fraction() const {
    const auto total = static_cast<double>(peak_time_ + trough_time_);
    return total > 0.0 ? static_cast<double>(peak_time_) / total : 0.0;
  }

 private:
  ArrivalConfig cfg_;
  SplitMix64 rng_;
  sim::Duration on_left_ = 0;  // remaining ON-phase time (Bursty)
  sim::Duration phase_left_ = 0;  // remaining current-phase time (Diurnal)
  bool in_peak_ = false;          // Diurnal phase flag (first toggle -> peak)
  sim::Duration peak_time_ = 0;   // generated time per phase (Diurnal)
  sim::Duration trough_time_ = 0;
  double exp_sample(double mean);
};

/// Kernel arguments for the synthetic service kernel: pure cycle charges.
struct ServiceArgs {
  double compute_cycles = 0.0;
  double stall_cycles = 0.0;
};

/// The synthetic serving kernel: charges ServiceArgs to the pipeline.
gpu::KernelCoro service_kernel(gpu::WarpCtx& ctx);

/// Shape of synthesized requests.
struct RequestProfile {
  int threads_per_task = 128;
  double compute_cycles = 6000.0;
  double stall_cycles = 12000.0;
  /// Heavy tail: this fraction of requests carries `heavy_multiplier` x the
  /// nominal service demand (the skewed scenario where load-aware placement
  /// beats round-robin).
  double heavy_fraction = 0.0;
  double heavy_multiplier = 16.0;
  std::int64_t h2d_bytes = 4096;
  std::int64_t d2h_bytes = 1024;
  /// >0: draw data_key from this many distinct keys (affinity traffic);
  /// 0 leaves requests unkeyed.
  int num_keys = 0;
  sim::Duration slo = 0;
  /// QoS class stamped on every synthesized request (see sched/policy.h).
  sched::Class cls = sched::Class::kStandard;
};

/// Synthesizes request `index` of the profile. The per-request randomness is
/// hashed from (seed, index), so requests are reproducible independent of
/// generation order.
Request synth_request(const RequestProfile& p, std::uint64_t seed, int index);

}  // namespace pagoda::cluster
