// Deterministic metrics registry: named counters, gauges, sampled stats and
// log2-bucketed histograms, snapshotted to a stable-ordered JSON/text report.
//
// Every value in the registry derives exclusively from virtual simulation
// time and workload state, so two runs with the same seed and configuration
// produce byte-identical snapshots — the registry doubles as a regression
// oracle, not just a debugging aid. To keep that guarantee, instruments must
// never record wall-clock time, pointers, or container iteration order of
// unordered containers.
//
// Instrument kinds:
//   Counter    — monotonically increasing int64 (events, bytes, retries)
//   Gauge      — a point-in-time double set by the instrumented code
//   Stat       — a RunningStats over samples (mean/min/max/stddev); the
//                occupancy/utilization samplers feed these
//   Histogram  — log2-bucketed distribution of non-negative values
//                (task latencies, copy sizes)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.h"

namespace pagoda::obs {

class Counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }
  void set(std::int64_t v) { value_ = v; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Sampled statistic: the samplers call add() on every tick; the snapshot
/// reports count/mean/min/max/stddev ("mean/peak resident warps").
class Stat {
 public:
  void add(double x) { rs_.add(x); }
  const RunningStats& stats() const { return rs_; }

 private:
  RunningStats rs_;
};

/// log2-bucketed histogram of non-negative values: bucket b counts samples
/// in [2^(b-1), 2^b) (bucket 0 holds values < 1).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(double x);
  std::int64_t count() const { return count_; }
  std::int64_t bucket(int b) const { return buckets_[b]; }
  int max_bucket() const;  // highest non-empty bucket index, -1 when empty

 private:
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t count_ = 0;
};

/// The registry itself. Name-keyed, ordered maps everywhere so the snapshot
/// is stable. Copyable: the harness snapshots a registry per experiment.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) { return counters_[std::string(name)]; }
  Gauge& gauge(std::string_view name) { return gauges_[std::string(name)]; }
  Stat& stat(std::string_view name) { return stats_[std::string(name)]; }
  Histogram& histogram(std::string_view name) {
    return histograms_[std::string(name)];
  }

  bool has_counter(std::string_view name) const {
    return counters_.count(std::string(name)) > 0;
  }
  bool has_gauge(std::string_view name) const {
    return gauges_.count(std::string(name)) > 0;
  }
  bool has_stat(std::string_view name) const {
    return stats_.count(std::string(name)) > 0;
  }

  /// Value lookups for report columns; `def` when the name is absent.
  std::int64_t counter_value(std::string_view name, std::int64_t def = 0) const;
  double gauge_value(std::string_view name, double def = 0.0) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && stats_.empty() &&
           histograms_.empty();
  }

  /// Stable-ordered JSON snapshot: keys sorted lexicographically, doubles
  /// printed with a fixed format — byte-identical across identical runs.
  void write_json(std::ostream& os) const;

  /// Human-readable fixed-width report (the `pagoda_cli --metrics` output).
  void write_text(std::ostream& os) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Stat> stats_;
  std::map<std::string, Histogram> histograms_;
};

/// Formats a double the way the registry snapshot does (shortest round-trip
/// via %.9g). Exposed so tests can pin the formatting contract.
std::string format_metric_double(double v);

/// Writes `s` as a JSON string literal; escapes only '"' and '\\'. Shared by
/// the registry snapshot and the Chrome trace writer.
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace pagoda::obs
