#include "birp/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "birp/util/check.hpp"

namespace birp::util {

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const noexcept { return count_ == 0 ? 0.0 : max_; }

double percentile_sorted(std::span<const double> sorted, double q) {
  check(!sorted.empty(), "percentile of empty range");
  check(q >= 0.0 && q <= 1.0, "percentile quantile must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  // Endpoints exactly: pos arithmetic at q = 1 can land a hair below n-1
  // and interpolate the max against itself with a rounding wobble.
  if (q == 0.0) return sorted.front();
  if (q == 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lower);
  return sorted[lower] * (1.0 - frac) + sorted[upper] * frac;
}

double percentile(std::span<const double> values, double q) {
  check(!values.empty(), "percentile of empty range");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

std::vector<double> percentiles(std::span<const double> values,
                                std::span<const double> qs) {
  check(!values.empty(), "percentile of empty range");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> result;
  result.reserve(qs.size());
  for (const double q : qs) result.push_back(percentile_sorted(sorted, q));
  return result;
}

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

LinearFit least_squares(std::span<const double> x, std::span<const double> y) {
  check(x.size() == y.size(), "least_squares: size mismatch");
  check(x.size() >= 2, "least_squares: need at least two points");
  const double mx = mean(x);
  const double my = mean(y);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  check(sxx > 0.0, "least_squares: x values are all identical");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace birp::util
