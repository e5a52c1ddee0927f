// Streaming statistics and empirical-CDF helpers used by the evaluation
// harness and benchmark tables.
#pragma once

#include <cstddef>
#include <vector>

namespace dive::util {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects raw samples to answer quantile/CDF queries. Used for the
/// CDF figures (Fig. 6a, Fig. 7a/b).
///
/// THREAD-SAFETY CONTRACT: the const query methods (quantile, median,
/// cdf_at) lazily sort `mutable` state on first use, so two
/// concurrent const queries on a not-yet-sorted set race on the backing
/// vector. Either serialize queries, or call sort_samples() once after
/// the last mutation — after that, const queries only read and are safe
/// to run concurrently until the next add()/merge() dirties the order
/// again (exercised under ThreadSanitizer in obs_test).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  /// Appends every sample of `other` (aggregating per-session sets).
  void merge(const SampleSet& other);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Sorts the backing store now. Publishing a set for concurrent
  /// read-only quantile/CDF queries requires calling this first (see the
  /// class-level thread-safety contract).
  void sort_samples() const { ensure_sorted(); }

  /// q in [0,1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;

  /// Empirical CDF evaluated at x: fraction of samples <= x.
  [[nodiscard]] double cdf_at(double x) const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace dive::util
