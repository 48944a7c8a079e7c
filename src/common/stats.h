// Small statistics helpers used by the experiment harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pagoda {

/// Geometric mean of strictly positive values. Returns 0 for an empty span.
double geometric_mean(std::span<const double> values);

/// Arithmetic mean. Returns 0 for an empty span.
double arithmetic_mean(std::span<const double> values);

/// p-th percentile (0..100) by linear interpolation on a copy of the data.
double percentile(std::span<const double> values, double p);

/// Online accumulator for min/max/mean/variance without storing samples
/// (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

  /// Population variance / standard deviation; 0 for counts < 2.
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the running mean
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pagoda
