// Unit tests for the support substrate: RNG, stats, pairwise hashing,
// tables, dense matrix kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "support/matrix.hpp"
#include "support/pairwise.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ssa {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntInRangeAndCoversAll) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ExponentialPositiveWithMeanOneOverLambda) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.exponential(2.0);
    ASSERT_GE(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) ASSERT_GE(rng.pareto(2.0, 3.0), 2.0);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng base(9);
  Rng child_a = base.split(1);
  Rng child_a2 = base.split(1);
  Rng child_b = base.split(2);
  EXPECT_EQ(child_a(), child_a2());
  // Streams for different indices should diverge immediately.
  Rng c1 = base.split(1);
  Rng c2 = base.split(2);
  EXPECT_NE(c1(), c2());
  (void)child_b;
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), 8u);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.ci95_halfwidth(), 0.0);
}

TEST(Quantile, InterpolatesAndValidates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(xs, 1.5), std::invalid_argument);
}

TEST(FitLine, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Pairwise, NextPrime) {
  EXPECT_EQ(next_prime(1), 2u);
  EXPECT_EQ(next_prime(8), 11u);
  EXPECT_EQ(next_prime(97), 97u);
  EXPECT_EQ(next_prime(98), 101u);
}

TEST(Pairwise, MarginalsAreNearUniform) {
  PairwiseFamily family(10, 61);
  const std::uint64_t p = family.prime();
  // For a fixed v, h(v) over all seeds takes each value a/p exactly p times.
  std::vector<int> counts(p, 0);
  for (std::uint64_t seed = 0; seed < family.seed_count(); ++seed) {
    const double value = family.value(seed, 3);
    counts[static_cast<std::size_t>(value * static_cast<double>(p) + 0.5)]++;
  }
  for (int c : counts) EXPECT_EQ(c, static_cast<int>(p));
}

TEST(Pairwise, PairwiseIndependenceExact) {
  // For v != u the joint distribution of (h(v), h(u)) over seeds is exactly
  // uniform over pairs: every pair appears exactly once.
  PairwiseFamily family(5, 7);
  const std::uint64_t p = family.prime();
  std::set<std::pair<int, int>> seen;
  for (std::uint64_t seed = 0; seed < family.seed_count(); ++seed) {
    const int a = static_cast<int>(family.value(seed, 1) * static_cast<double>(p) + 0.5);
    const int b = static_cast<int>(family.value(seed, 2) * static_cast<double>(p) + 0.5);
    seen.insert({a, b});
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(p * p));
}

TEST(Table, RendersAllCellsAndChecksArity) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  std::ostringstream oss;
  table.print(oss, "title");
  const std::string out = oss.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("1"), std::string::npos);
  std::ostringstream md;
  table.print_markdown(md);
  EXPECT_NE(md.str().find("| a |"), std::string::npos);
}

TEST(Matrix, SolveLinearSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  std::vector<double> x;
  ASSERT_TRUE(solve_linear_system(a, {5.0, 10.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SingularDetected) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  std::vector<double> x;
  EXPECT_FALSE(solve_linear_system(a, {1.0, 2.0}, x));
}

TEST(Matrix, SpectralRadiusOfKnownMatrices) {
  // [[0, 1], [1, 0]] has radius 1; 0.5x it has radius 0.5.
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  EXPECT_NEAR(spectral_radius(a), 1.0, 1e-6);
  Matrix b(2, 2);
  b(0, 1) = 0.5;
  b(1, 0) = 0.5;
  EXPECT_NEAR(spectral_radius(b), 0.5, 1e-6);
  Matrix zero(3, 3);
  EXPECT_NEAR(spectral_radius(zero), 0.0, 1e-12);
}

TEST(Parallel, ParallelForCoversAllIndices) {
  std::vector<int> hits(257, 0);
  parallel_for(257, [&](std::ptrdiff_t i) { hits[static_cast<std::size_t>(i)] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_GE(parallel_threads(), 1);
}

}  // namespace
}  // namespace ssa
