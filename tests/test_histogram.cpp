// Coverage for the telemetry histogram (support/histogram.hpp):
// bucket-exact merge (associative and commutative element-wise -- the
// property that lets obs::Histogram fold per-thread stripes and the
// FrontDoor fold backend snapshots in any order), quantile error bounds
// against the exact order statistics on known distributions, and the
// clamping edge cases (negatives, zeros, beyond-grid values). Runs under
// the `load` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/histogram.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace ssa {
namespace {

TEST(Histogram, EmptyAndSingleValue) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.add(0.25);
  EXPECT_EQ(h.count(), 1u);
  // With one sample every quantile is that sample: the bucket midpoint is
  // clamped into [min, max] = [0.25, 0.25].
  EXPECT_EQ(h.p50(), 0.25);
  EXPECT_EQ(h.p99(), 0.25);
  EXPECT_EQ(h.p999(), 0.25);
  EXPECT_EQ(h.mean(), 0.25);
}

TEST(Histogram, ClampsNegativesZerosAndBeyondGridValues) {
  LatencyHistogram h;
  h.add(0.0);     // cache hits record exactly 0 by design
  h.add(-1.0);    // clamps to 0
  h.add(1e12);    // far beyond the grid: lands in the last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e12);
  EXPECT_EQ(h.buckets().front(), 2u);
  EXPECT_EQ(h.buckets().back(), 1u);
  // Quantiles stay inside the observed range whatever the bucket edges.
  EXPECT_GE(h.p999(), 0.0);
  EXPECT_LE(h.p999(), 1e12);
}

TEST(Histogram, MergeIsExactAssociativeAndCommutative) {
  // Dyadic values make even the floating-point sum_ exact, so the merged
  // histograms compare equal as whole objects, not just bucket-wise.
  const auto fill = [](LatencyHistogram& h, std::uint64_t seed, int n) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      h.add(static_cast<double>(1 + rng.uniform_int(1024)) / 4096.0);
    }
  };
  LatencyHistogram a, b, c;
  fill(a, 1, 400);
  fill(b, 2, 300);
  fill(c, 3, 500);

  LatencyHistogram left_first = a;   // (a + b) + c
  left_first.merge(b);
  left_first.merge(c);
  LatencyHistogram right_first = b;  // a + (b + c)
  right_first.merge(c);
  LatencyHistogram right = a;
  right.merge(right_first);
  EXPECT_EQ(left_first, right);

  LatencyHistogram swapped = c;      // c + b + a
  swapped.merge(b);
  swapped.merge(a);
  EXPECT_EQ(left_first.buckets(), swapped.buckets());
  EXPECT_EQ(left_first.count(), swapped.count());
  EXPECT_EQ(left_first.min(), swapped.min());
  EXPECT_EQ(left_first.max(), swapped.max());

  EXPECT_EQ(left_first.count(), 1200u);
  // Merging an empty histogram is the identity.
  LatencyHistogram with_empty = left_first;
  with_empty.merge(LatencyHistogram{});
  EXPECT_EQ(with_empty, left_first);
}

TEST(Histogram, QuantileErrorBoundAgainstExactOrderStatistics) {
  // The histogram answers quantiles from log buckets; the documented
  // contract is a bounded RELATIVE error against the exact order
  // statistic. relative_error() is the half-bucket bound; the exact
  // sample quantile interpolates between adjacent order statistics, which
  // can add at most one further bucket of slack -- 3x the half-bucket
  // bound covers both with margin.
  const double tolerance = 3.0 * LatencyHistogram::relative_error();
  const std::vector<double> probes = {0.10, 0.50, 0.90, 0.99, 0.999};

  const auto check = [&](const std::vector<double>& values) {
    LatencyHistogram h;
    for (const double v : values) h.add(v);
    for (const double q : probes) {
      const double exact = quantile(values, q);
      const double approx = h.quantile(q);
      EXPECT_NEAR(approx, exact, tolerance * exact + 1e-12)
          << "q=" << q << " exact=" << exact << " approx=" << approx;
    }
  };

  Rng rng(20260808);
  std::vector<double> exponential;
  for (int i = 0; i < 20000; ++i) {
    exponential.push_back(rng.exponential(50.0));  // mean 20 ms
  }
  check(exponential);

  std::vector<double> uniform;
  for (int i = 0; i < 20000; ++i) {
    uniform.push_back(rng.uniform(1e-4, 2.0));
  }
  check(uniform);

  std::vector<double> heavy_tailed;
  for (int i = 0; i < 20000; ++i) {
    heavy_tailed.push_back(rng.pareto(1e-3, 1.2));
  }
  check(heavy_tailed);
}

TEST(Histogram, QuantilesAreMonotoneInQ) {
  Rng rng(7);
  LatencyHistogram h;
  for (int i = 0; i < 5000; ++i) h.add(rng.exponential(10.0));
  double last = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double value = h.quantile(q);
    EXPECT_GE(value, last);
    last = value;
  }
  // q = 1 resolves the bucket holding the maximum: at most one bucket of
  // relative error below it, never above it.
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_GE(h.quantile(1.0),
            h.max() * (1.0 - 3.0 * LatencyHistogram::relative_error()));
}

}  // namespace
}  // namespace ssa
