// Fixed-bin histogram. The DiVE ground estimator feeds normalized motion
// vector magnitudes into a histogram and applies the Triangle (Zack)
// threshold method to it (geom/triangle_threshold.h).
#pragma once

#include <cstddef>
#include <vector>

namespace dive::util {

class Histogram {
 public:
  /// `bins` uniform-width buckets spanning [lo, hi). Finite values outside
  /// the range (and ±inf) are clamped into the first/last bin; NaN is
  /// counted separately (nan_count) and lands in no bin.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] std::size_t total() const { return total_; }
  /// NaN samples seen by add(); excluded from every bin and from total().
  [[nodiscard]] std::size_t nan_count() const { return nan_count_; }
  [[nodiscard]] const std::vector<std::size_t>& counts() const { return counts_; }

  /// Lower edge of bin `i`.
  [[nodiscard]] double bin_lower(std::size_t i) const;
  [[nodiscard]] double bin_width() const { return width_; }

  /// Index of the fullest bin (first on ties).
  [[nodiscard]] std::size_t peak_bin() const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nan_count_ = 0;
};

}  // namespace dive::util
