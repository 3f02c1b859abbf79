#ifndef NLQ_REPOBENCH_SAMPLE_STATS_H_
#define NLQ_REPOBENCH_SAMPLE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace nlq::repobench {

/// Every sample of one timing, kept exactly. Quantiles are order
/// statistics of the kept values (linear interpolation between the two
/// closest ranks), never bucket bounds: two classes with different
/// latencies always report different medians.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);

  size_t count() const { return values_.size(); }
  double Sum() const;
  double Mean() const;

  /// q in [0, 1]; 0 on an empty set.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  /// The highest of the percentiles 50, 75, 90, 95, 99, 99.9 and 99.99
  /// with at least `beyond` samples above it, or 0 when even the median
  /// has fewer (fewer than 2 * beyond samples).
  double HighestSupportedPercentile(size_t beyond = 10) const;

  /// "median=12.3450 ms q1=11.9 q3=13.1 p95=14.2 n=181": median and
  /// quartiles in `unit`, then the highest supported percentile (when
  /// one above the median is) and the sample count.
  std::string Summary(const char* unit) const;

 private:
  void Sort() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

}  // namespace nlq::repobench

#endif  // NLQ_REPOBENCH_SAMPLE_STATS_H_
