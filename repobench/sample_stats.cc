#include "sample_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace nlq::repobench {

namespace {
constexpr double kPercentileLadder[] = {50, 75, 90, 95, 99, 99.9, 99.99};
}  // namespace

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  Sort();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::HighestSupportedPercentile(size_t beyond) const {
  double best = 0;
  const double n = static_cast<double>(values_.size());
  for (const double p : kPercentileLadder) {
    // Samples strictly above the p-th percentile: n * (1 - p/100).
    if (n * (1.0 - p / 100.0) + 1e-9 >= static_cast<double>(beyond)) best = p;
  }
  return best;
}

std::string Samples::Summary(const char* unit) const {
  char buf[200];
  int len = std::snprintf(buf, sizeof(buf), "median=%.4f %s q1=%.4f q3=%.4f",
                          Median(), unit, Quantile(0.25), Quantile(0.75));
  const double tail = HighestSupportedPercentile();
  if (tail > 50) {
    len += std::snprintf(buf + len, sizeof(buf) - len, " p%g=%.4f",
                         tail, Quantile(tail / 100.0));
  }
  std::snprintf(buf + len, sizeof(buf) - len, " n=%zu", count());
  return buf;
}

}  // namespace nlq::repobench
