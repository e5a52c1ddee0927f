#include "util/histogram.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace dive::util {
namespace {

TEST(Histogram, RejectsDegenerateConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsValuesUniformly) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(1e9);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, BinGeometry) {
  Histogram h(2.0, 12.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(4), 10.0);
}

TEST(Histogram, PeakBinFindsMode) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5);
  h.add(2.5);
  h.add(2.6);
  h.add(2.7);
  h.add(3.5);
  EXPECT_EQ(h.peak_bin(), 2u);
}

TEST(Histogram, BoundaryValueGoesToUpperBin) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);  // exactly on the edge between bin 0 and 1
  EXPECT_EQ(h.count(1), 1u);
}

// (x - lo) / width on these inputs overflows long before the old
// post-cast clamp could run — the cast itself was undefined behavior.
// The fix clamps in the double domain, so extremes land in the edge bins.
TEST(Histogram, ExtremeValuesClampWithoutOverflow) {
  Histogram h(0.0, 1.0, 8);
  h.add(1e300);
  h.add(-1e300);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(7), 2u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.nan_count(), 0u);
}

TEST(Histogram, NanCountedSeparately) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(0.5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.total(), 1u);  // NaN lands in no bin and is not in total
  std::size_t sum = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.count(b);
  EXPECT_EQ(sum, h.total());
}

}  // namespace
}  // namespace dive::util
