// Virtual-time representation for the discrete-event simulator.
//
// Time is an integer count of picoseconds. Integer time keeps the simulation
// deterministic across platforms and makes exact event-time comparisons safe.
// One GPU cycle at 1 GHz is 1000 ps, so sub-cycle resolution is available for
// processor-sharing completions, PCIe byte times, and the like.
#pragma once

#include <cstdint>
#include <limits>

namespace pagoda::sim {

/// Virtual simulation time in picoseconds since simulation start.
using Time = std::int64_t;

/// A duration in picoseconds (same representation as Time).
using Duration = std::int64_t;

inline constexpr Time kTimeMax = std::numeric_limits<Time>::max();

/// Largest time a spec string may name, in microseconds (about 11.6 days).
/// Spec parsers reject larger values: converting them to picoseconds would
/// overflow Time, and a sum of a few bounded values stays far inside it.
inline constexpr double kMaxSpecMicroseconds = 1e12;

constexpr Duration nanoseconds(double n) {
  return static_cast<Duration>(n * 1e3);
}
constexpr Duration microseconds(double n) {
  return static_cast<Duration>(n * 1e6);
}
constexpr Duration milliseconds(double n) {
  return static_cast<Duration>(n * 1e9);
}
constexpr Duration seconds(double n) { return static_cast<Duration>(n * 1e12); }

constexpr double to_seconds(Duration d) { return static_cast<double>(d) * 1e-12; }
constexpr double to_milliseconds(Duration d) {
  return static_cast<double>(d) * 1e-9;
}
constexpr double to_microseconds(Duration d) {
  return static_cast<double>(d) * 1e-6;
}

}  // namespace pagoda::sim
