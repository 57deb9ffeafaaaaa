// Empirical cumulative distribution function collector.
//
// Used to reproduce the inference-completion-time CDFs of Fig. 6a / Fig. 7a.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace birp::util {

/// Accumulates samples and answers CDF / quantile / tail-fraction queries.
/// Samples are kept raw (the experiment scales are modest) and sorted lazily.
class Ecdf {
 public:
  void add(double sample);
  void merge(const Ecdf& other);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// P(X <= x). Returns 0 for an empty collector.
  [[nodiscard]] double cdf(double x) const;

  /// Fraction of samples strictly greater than x (e.g. SLO violations).
  [[nodiscard]] double tail_fraction(double x) const;

  /// q-quantile, q in [0,1]. Requires non-empty.
  [[nodiscard]] double quantile(double q) const;

  /// Evaluates the CDF at `points` evenly spaced over [lo, hi] (inclusive).
  /// Returns pairs flattened as (x, F(x)) rows — convenient for plotting.
  struct Point {
    double x = 0.0;
    double f = 0.0;
  };
  [[nodiscard]] std::vector<Point> curve(double lo, double hi,
                                         std::size_t points) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace birp::util
