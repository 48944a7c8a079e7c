// Latency attribution over causal request records: critical paths, dominant
// phases, and the per-class/per-phase tables printed by tools/trace_report.
//
// Two entry points share the semantics:
//  * native helpers over RequestTracer::Record (integer picoseconds) used by
//    the tracer's JSON dump and the tests;
//  * AttributionReport over RequestSummary (double microseconds, string
//    labels) used by the offline analyzer, which only has the parsed dump.
// Both define "dominant phase" identically: the largest bucket, earliest
// bucket order winning ties, so attribution is deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.h"

namespace pagoda::obs {

/// Index of the largest bucket (ties -> lowest index); -1 when every bucket
/// is zero (an instantaneously resolved request).
int dominant_phase_index(const std::array<double, kNumPhases>& buckets_us);

/// The record's time-ordered phase chain with adjacent same-phase intervals
/// coalesced: the critical path of a single-lane request (a request is never
/// in two phases at once, so the ordered chain IS the critical path).
std::vector<std::pair<Phase, sim::Duration>> critical_path(
    const RequestTracer::Record& r);

/// One parsed request from a --trace-spans dump.
struct RequestSummary {
  std::uint64_t uid = 0;
  std::string cls;
  std::string terminal;
  std::string cause;
  double e2e_us = 0.0;
  double slo_us = 0.0;
  bool slo_late = false;
  int attempts = 0;
  std::array<double, kNumPhases> buckets_us{};
  /// (phase index, dur_us) chain, as dumped under "critical_path".
  std::vector<std::pair<int, double>> path;
};

/// A parsed drop entry (requests refused at admission).
struct DropSummary {
  std::string cls;
  double slo_us = 0.0;
};

class AttributionReport {
 public:
  void add(RequestSummary s) { requests_.push_back(std::move(s)); }
  void add_dropped(DropSummary d) { dropped_.push_back(std::move(d)); }
  bool empty() const { return requests_.empty() && dropped_.empty(); }

  /// Checks the attribution invariant (buckets sum to e2e up to dump
  /// rounding) for every request; on failure writes a diagnostic to `err`.
  bool validate(std::string* err) const;

  /// Per-class blocks: request count, mean e2e, and each phase's total,
  /// mean and share of the class's end-to-end time; then an "all" block.
  void write_phase_table(std::ostream& os) const;

  /// The k slowest requests by e2e, with their critical paths.
  void write_top_k(std::ostream& os, int k) const;

  /// One line per SLO-relevant casualty naming its dominant phase:
  /// completed-late requests, shed/evicted requests carrying an SLO, and a
  /// per-class drop summary (a drop's dominant phase is admission_block by
  /// definition — it was refused at admission).
  void write_explain_slo(std::ostream& os) const;

 private:
  std::vector<RequestSummary> requests_;
  std::vector<DropSummary> dropped_;
};

}  // namespace pagoda::obs
