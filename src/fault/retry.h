// Deterministic exponential backoff with jitter.
//
// Backoff delays are a pure function of (seed, request uid, attempt number):
// nominal delay doubles per attempt up to a cap, then a deterministic jitter
// factor in (1-jitter, 1] de-synchronizes retries that failed together (the
// classic thundering-herd fix) without introducing run-to-run variance.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/time_types.h"

namespace pagoda::fault {

/// Nominal delay after the first failed attempt, its growth per further
/// attempt, and the cap the growth stops at.
inline constexpr sim::Duration kBackoffBase = sim::microseconds(50.0);
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr sim::Duration kBackoffMax = sim::microseconds(5000.0);

struct RetryConfig {
  /// Retries per request beyond the first attempt; 0 disables retry.
  int budget = 3;
  /// Jitter width: the nominal delay is scaled by a factor drawn
  /// deterministically from (1-jitter, 1]. 0 disables jitter.
  double jitter = 0.5;
  std::uint64_t seed = 0;
};

/// Delay before attempt `attempt`+1, after attempt `attempt` (1-based)
/// failed. Pure: same (config, uid, attempt) -> same delay, always.
inline sim::Duration backoff(const RetryConfig& cfg, std::uint64_t uid,
                             int attempt) {
  double nominal = static_cast<double>(kBackoffBase);
  for (int i = 1; i < attempt; ++i) {
    nominal *= kBackoffMultiplier;
    if (nominal >= static_cast<double>(kBackoffMax)) break;
  }
  if (nominal > static_cast<double>(kBackoffMax))
    nominal = static_cast<double>(kBackoffMax);
  if (cfg.jitter > 0.0) {
    const std::uint64_t h = hash_index(cfg.seed ^ 0x7A5CF004ULL,
                                       uid * 64 + static_cast<std::uint64_t>(attempt));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
    nominal *= 1.0 - cfg.jitter * u;
  }
  return static_cast<sim::Duration>(nominal);
}

}  // namespace pagoda::fault
