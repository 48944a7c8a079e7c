#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/check.h"

namespace pagoda::obs {

void Histogram::add(double x) {
  PAGODA_CHECK_MSG(x >= 0.0 && std::isfinite(x),
                   "histogram values must be finite and non-negative");
  int b = 0;
  if (x >= 1.0) {
    b = 1 + std::min(kBuckets - 2, std::ilogb(x));
  }
  buckets_[b] += 1;
  count_ += 1;
}

int Histogram::max_bucket() const {
  for (int b = kBuckets - 1; b >= 0; --b) {
    if (buckets_[b] > 0) return b;
  }
  return -1;
}

std::int64_t MetricsRegistry::counter_value(std::string_view name,
                                            std::int64_t def) const {
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? def : it->second.value();
}

double MetricsRegistry::gauge_value(std::string_view name, double def) const {
  const auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? def : it->second.value();
}

std::string format_metric_double(double v) {
  // Normalize the zero sign so -0.0 and 0.0 snapshot identically.
  if (v == 0.0) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << c.value();
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << format_metric_double(g.value());
  }
  os << (first ? "}" : "\n  }") << ",\n  \"stats\": {";
  first = true;
  for (const auto& [name, s] : stats_) {
    const RunningStats& rs = s.stats();
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": {\"count\": " << rs.count()
       << ", \"mean\": " << format_metric_double(rs.mean())
       << ", \"min\": " << format_metric_double(rs.min())
       << ", \"max\": " << format_metric_double(rs.max())
       << ", \"stddev\": " << format_metric_double(rs.stddev()) << "}";
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": {\"count\": " << h.count() << ", \"buckets\": [";
    const int hi = h.max_bucket();
    for (int b = 0; b <= hi; ++b) {
      os << (b ? ", " : "") << h.bucket(b);
    }
    os << "]}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

void MetricsRegistry::write_text(std::ostream& os) const {
  auto pad = [&os](std::string_view name) {
    os << "  " << name;
    for (std::size_t i = name.size(); i < 40; ++i) os << ' ';
  };
  if (!counters_.empty()) {
    os << "counters\n";
    for (const auto& [name, c] : counters_) {
      pad(name);
      os << c.value() << '\n';
    }
  }
  if (!gauges_.empty()) {
    os << "gauges\n";
    for (const auto& [name, g] : gauges_) {
      pad(name);
      os << format_metric_double(g.value()) << '\n';
    }
  }
  if (!stats_.empty()) {
    os << "sampled stats (mean / min / max / stddev / n)\n";
    for (const auto& [name, s] : stats_) {
      const RunningStats& rs = s.stats();
      pad(name);
      os << format_metric_double(rs.mean()) << " / "
         << format_metric_double(rs.min()) << " / "
         << format_metric_double(rs.max()) << " / "
         << format_metric_double(rs.stddev()) << " / " << rs.count() << '\n';
    }
  }
  if (!histograms_.empty()) {
    os << "histograms (log2 buckets)\n";
    for (const auto& [name, h] : histograms_) {
      pad(name);
      os << "n=" << h.count() << " [";
      const int hi = h.max_bucket();
      for (int b = 0; b <= hi; ++b) os << (b ? " " : "") << h.bucket(b);
      os << "]\n";
    }
  }
}

}  // namespace pagoda::obs
