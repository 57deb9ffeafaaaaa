// Streaming and batch statistics used by the metrics layer and experiments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace birp::util {

/// Numerically stable streaming mean/variance (Welford's algorithm) plus
/// min/max tracking. Suitable for long-running metric accumulation.
class RunningStats {
 public:
  /// Header-inline: add() sits on the serve hot path (one depth sample per
  /// admission decision), where the cross-TU call overhead was measurable.
  void add(double value) noexcept {
    if (count_ == 0) {
      min_ = value;
      max_ = value;
    } else {
      min_ = value < min_ ? value : min_;
      max_ = value > max_ ? value : max_;
    }
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
  }

  /// Merges another accumulator (parallel reduction support).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept;
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double sum() const noexcept { return mean() * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolated percentile of `values` (copied and sorted).
/// `q` in [0, 1]. Requires a non-empty input. q = 0 and q = 1 return the
/// exact minimum and maximum (no interpolation artifacts).
/// For repeated queries over the same data, sort once and use
/// percentile_sorted() or batch the quantiles through percentiles().
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// percentile() over input that is already sorted ascending — no copy, no
/// re-sort. Precondition: `sorted` is non-empty and sorted.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);

/// Multiple quantiles of `values` with a single copy + sort. Returns one
/// result per entry of `qs`, in order. Requires a non-empty input.
[[nodiscard]] std::vector<double> percentiles(std::span<const double> values,
                                              std::span<const double> qs);

/// Mean of `values`; 0 for empty input.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

/// Ordinary least squares fit y = a + b*x. Returns {intercept, slope}.
/// Requires at least two points with distinct x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Coefficient of determination of the fit.
  double r_squared = 0.0;
};
[[nodiscard]] LinearFit least_squares(std::span<const double> x,
                                      std::span<const double> y);

}  // namespace birp::util
