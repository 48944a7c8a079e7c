#include "fault/plan.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace pagoda::fault {
namespace {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, delim)) out.push_back(item);
  return out;
}

/// Full-consumption, finite double parse (NaN would slip past every `<= 0`
/// range check).
bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// A time in microseconds within [0, sim::kMaxSpecMicroseconds].
bool parse_time_us(const std::string& s, double* out) {
  return parse_double(s, out) && *out >= 0.0 &&
         *out <= sim::kMaxSpecMicroseconds;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_int(const std::string& s, int* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, &v) || v > 1u << 20) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_rate(const std::vector<std::string>& f, const char* what,
                double* out, std::string* error) {
  double p = 0.0;
  if (f.size() != 2 || !parse_double(f[1], &p) || p < 0.0 || p > 1.0) {
    *error = std::string(what) + " wants " + what +
             ":P with P a probability in [0,1], got '" +
             (f.size() > 1 ? f[1] : "") + "'";
    return false;
  }
  *out = p;
  return true;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& item : split(spec, ',')) {
    const std::vector<std::string> f = split(item, ':');
    if (f.empty() || f[0].empty()) {
      *error = "empty fault item in '" + spec + "'";
      return std::nullopt;
    }
    const std::string& kind = f[0];
    if (kind == "task") {
      if (!parse_rate(f, "task", &plan.task_fault_rate, error))
        return std::nullopt;
    } else if (kind == "xfer") {
      if (!parse_rate(f, "xfer", &plan.transfer_fault_rate, error))
        return std::nullopt;
    } else if (kind == "wedge") {
      if (!parse_rate(f, "wedge", &plan.wedge_rate, error))
        return std::nullopt;
    } else if (kind == "crash") {
      CrashEvent ev;
      double at_us = 0.0;
      double recover_us = 0.0;
      if (f.size() < 3 || f.size() > 4 || !parse_int(f[1], &ev.node) ||
          !parse_time_us(f[2], &at_us) ||
          (f.size() == 4 &&
           (!parse_time_us(f[3], &recover_us) || recover_us <= 0.0))) {
        *error = "crash wants crash:NODE:T_US[:RECOVER_US] with T_US >= 0 "
                 "and RECOVER_US > 0 (both <= 1e12), got '" + item + "'";
        return std::nullopt;
      }
      ev.at = sim::microseconds(at_us);
      if (f.size() == 4) {
        ev.recovers = true;
        ev.recover_after = sim::microseconds(recover_us);
      }
      plan.crashes.push_back(ev);
    } else if (kind == "degrade") {
      DegradeWindow w;
      double at_us = 0.0;
      double dur_us = 0.0;
      if (f.size() < 4 || f.size() > 5 || !parse_time_us(f[1], &at_us) ||
          !parse_time_us(f[2], &dur_us) || dur_us <= 0.0 ||
          !parse_double(f[3], &w.factor) || w.factor <= 0.0 ||
          w.factor > 1.0 || (f.size() == 5 && !parse_int(f[4], &w.node))) {
        *error = "degrade wants degrade:T_US:DUR_US:FACTOR[:NODE] with "
                 "DUR_US > 0, times <= 1e12 and FACTOR in (0,1], got '" +
                 item + "'";
        return std::nullopt;
      }
      w.at = sim::microseconds(at_us);
      w.duration = sim::microseconds(dur_us);
      plan.degrades.push_back(w);
    } else if (kind == "seed") {
      if (f.size() != 2 || !parse_u64(f[1], &plan.seed)) {
        *error = "seed wants seed:N with N a nonnegative integer, got '" +
                 item + "'";
        return std::nullopt;
      }
    } else {
      *error = "unknown fault kind '" + kind +
               "' (valid: task, xfer, wedge, crash, degrade, seed)";
      return std::nullopt;
    }
  }
  return plan;
}

}  // namespace pagoda::fault
