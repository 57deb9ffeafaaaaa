#include "birp/util/ecdf.hpp"

#include <algorithm>

#include "birp/util/check.hpp"
#include "birp/util/stats.hpp"

namespace birp::util {

void Ecdf::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Ecdf::merge(const Ecdf& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

void Ecdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Ecdf::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Ecdf::tail_fraction(double x) const { return 1.0 - cdf(x); }

double Ecdf::quantile(double q) const {
  check(!samples_.empty(), "quantile of empty ECDF");
  ensure_sorted();
  // samples_ is sorted here; re-sorting through percentile() would copy the
  // whole sample set on every query.
  return percentile_sorted(samples_, q);
}

std::vector<Ecdf::Point> Ecdf::curve(double lo, double hi,
                                     std::size_t points) const {
  check(points >= 2, "ECDF curve needs at least two points");
  check(hi > lo, "ECDF curve range must be increasing");
  std::vector<Point> result;
  result.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    result.push_back({x, cdf(x)});
  }
  return result;
}

}  // namespace birp::util
