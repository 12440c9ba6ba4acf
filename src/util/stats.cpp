#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ccf::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean_of(const std::vector<double>& values, std::size_t first, std::size_t last) {
  last = std::min(last, values.size());
  if (first >= last) return 0.0;
  double s = 0.0;
  for (std::size_t i = first; i < last; ++i) s += values[i];
  return s / static_cast<double>(last - first);
}

std::size_t settle_index(const std::vector<double>& series, std::size_t window,
                         double plateau_tolerance) {
  if (series.size() < window || window == 0) return series.size();
  const double plateau = mean_of(series, series.size() - window, series.size());
  // Guard against a zero plateau: use an absolute epsilon scaled by the
  // series peak so relative tolerance stays meaningful.
  double peak = 0.0;
  for (double v : series) peak = std::max(peak, std::abs(v));
  const double band = std::max(std::abs(plateau) * plateau_tolerance, peak * 1e-9);

  // Walk backwards: find the last window whose mean escapes the band; the
  // settle point is just after it.
  std::size_t settle = 0;
  for (std::size_t start = 0; start + window <= series.size(); ++start) {
    const double m = mean_of(series, start, start + window);
    if (std::abs(m - plateau) > band) settle = start + 1;
  }
  return settle;
}

}  // namespace ccf::util
