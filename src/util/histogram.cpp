#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dive::util {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  if (bins == 0) throw std::invalid_argument("Histogram needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("Histogram needs hi > lo");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

void Histogram::add(double x) {
  // NaN has no meaningful bin; counting it separately keeps total() equal
  // to the sum of bin counts.
  if (std::isnan(x)) {
    ++nan_count_;
    return;
  }
  // Clamp in the DOUBLE domain before converting: a huge or infinite x
  // makes (x - lo_) / width_ exceed the range of long, and casting an
  // out-of-range double to an integer is undefined behavior — not merely
  // a large value that the old post-cast clamp could fix up.
  const double pos = (x - lo_) / width_;
  const double hi_bin = static_cast<double>(counts_.size()) - 1.0;
  const auto idx =
      static_cast<std::size_t>(std::clamp(std::floor(pos), 0.0, hi_bin));
  ++counts_[idx];
  ++total_;
}

double Histogram::bin_lower(std::size_t i) const {
  return lo_ + static_cast<double>(i) * width_;
}

std::size_t Histogram::peak_bin() const {
  return static_cast<std::size_t>(
      std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
}

}  // namespace dive::util
