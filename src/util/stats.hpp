// Statistics helpers used by the benchmark harness: streaming moments
// (Welford), range means, and knee detection for the Figure-4 style "time
// decays until the optimal state" series.
#pragma once

#include <cstddef>
#include <vector>

namespace ccf::util {

/// Streaming mean/variance/min/max over doubles (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;   ///< Sample variance (n-1 denominator); 0 if n < 2.
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Mean of values[first, last) — empty range yields 0.
double mean_of(const std::vector<double>& values, std::size_t first, std::size_t last);

/// Detects where a decaying series settles onto its final plateau.
///
/// Used to reproduce the paper's "iterations needed to reach the optimal
/// state" claim for Figure 4(c)/(d): the export-time series starts high
/// (every export buffered) and decays until only matched objects are
/// buffered. We define the knee as the first index i such that every
/// subsequent window of `window` samples has mean within
/// `plateau_tolerance` (relative) of the tail plateau (mean of the last
/// `window` samples). Returns the series size when no plateau is reached.
std::size_t settle_index(const std::vector<double>& series, std::size_t window,
                         double plateau_tolerance);

}  // namespace ccf::util
