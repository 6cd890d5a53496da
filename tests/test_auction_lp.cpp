// Tests for LP (1)/(4): Lemma 1 (every feasible allocation maps to a
// feasible LP point), relaxation dominance over the exact optimum, and
// equality of the explicit and demand-oracle column-generation solvers.

#include <gtest/gtest.h>

#include "core/auction_lp.hpp"
#include "core/exact.hpp"
#include "core/instance.hpp"
#include "gen/scenario.hpp"
#include "support/random.hpp"

namespace ssa {
namespace {

/// Random feasible allocation by greedy sampling.
Allocation random_feasible_allocation(const AuctionInstance& instance, Rng& rng) {
  Allocation allocation;
  allocation.bundles.assign(instance.num_bidders(), kEmptyBundle);
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    const Bundle t = static_cast<Bundle>(
        rng.uniform_int(num_bundles(instance.num_channels())));
    allocation.bundles[v] = t;
    if (!instance.feasible(allocation)) allocation.bundles[v] = kEmptyBundle;
  }
  return allocation;
}

class Lemma1 : public ::testing::TestWithParam<int> {};

TEST_P(Lemma1, FeasibleAllocationsAreLpFeasible) {
  const int seed = GetParam();
  const AuctionInstance instance =
      seed % 2 == 0
          ? gen::make_disk_auction(18, 3, gen::ValuationMix::kMixed,
                                   static_cast<std::uint64_t>(seed))
          : gen::make_physical_auction(16, 3, PowerScheme::kLinear,
                                       gen::ValuationMix::kMixed,
                                       static_cast<std::uint64_t>(seed));
  lp::LinearProgram master = build_master_rows(instance);
  // Columns for all bundles so the indicator vector is expressible.
  std::vector<std::pair<int, Bundle>> meaning;
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
      master.add_column(0.0, bundle_column(instance, static_cast<int>(v), t));
      meaning.emplace_back(static_cast<int>(v), t);
    }
  }
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 17);
  for (int trial = 0; trial < 25; ++trial) {
    const Allocation allocation = random_feasible_allocation(instance, rng);
    std::vector<double> x(meaning.size(), 0.0);
    for (std::size_t c = 0; c < meaning.size(); ++c) {
      if (allocation.bundles[static_cast<std::size_t>(meaning[c].first)] ==
          meaning[c].second) {
        x[c] = 1.0;
      }
    }
    EXPECT_LE(master.max_violation(x), 1e-9)
        << "Lemma 1 violated at trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1, ::testing::Range(0, 10));

class LpRelaxation : public ::testing::TestWithParam<int> {};

TEST_P(LpRelaxation, LpValueDominatesExactOptimum) {
  const AuctionInstance instance = gen::make_disk_auction(
      10, 2, gen::ValuationMix::kMixed, static_cast<std::uint64_t>(GetParam()));
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const ExactResult exact = solve_exact(instance);
  ASSERT_TRUE(exact.exact);
  EXPECT_GE(lp.objective, exact.welfare - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRelaxation, ::testing::Range(0, 12));

class ColgenEquality : public ::testing::TestWithParam<int> {};

TEST_P(ColgenEquality, ColumnGenerationMatchesExplicitLp) {
  const int seed = GetParam();
  const AuctionInstance instance =
      seed % 2 == 0
          ? gen::make_disk_auction(14, 4, gen::ValuationMix::kMixed,
                                   static_cast<std::uint64_t>(seed) + 100)
          : gen::make_protocol_auction(14, 4, 1.0, gen::ValuationMix::kMixed,
                                       static_cast<std::uint64_t>(seed) + 100);
  const FractionalSolution explicit_lp = solve_auction_lp(instance);
  ColGenStats stats;
  const FractionalSolution colgen = solve_auction_lp_colgen(instance, &stats);
  ASSERT_EQ(explicit_lp.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(colgen.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(colgen.objective, explicit_lp.objective,
              1e-6 * (1.0 + explicit_lp.objective));
  EXPECT_TRUE(stats.proved_optimal);
  EXPECT_GT(stats.columns_generated, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColgenEquality, ::testing::Range(0, 10));

TEST(ColGen, WorksBeyondExplicitLimit) {
  // k = 14 > 12: explicit enumeration refuses, column generation succeeds.
  const std::size_t n = 10;
  Rng rng(404);
  auto valuations =
      gen::random_valuations(n, 14, gen::ValuationMix::kAdditive, 20, rng);
  ConflictGraph graph(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.bernoulli(0.3)) graph.add_edge(u, v);
    }
  }
  const AuctionInstance instance(std::move(graph), identity_ordering(n), 14,
                                 std::move(valuations));
  EXPECT_THROW((void)solve_auction_lp(instance), std::invalid_argument);
  const FractionalSolution colgen = solve_auction_lp_colgen(instance);
  ASSERT_EQ(colgen.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(colgen.objective, 0.0);
}

/// Bitwise equality of two fractional solutions: the warm-start contract
/// is payload IDENTITY, not numerical closeness.
void expect_identical_fraction(const FractionalSolution& warm,
                               const FractionalSolution& cold) {
  ASSERT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.objective, cold.objective);
  ASSERT_EQ(warm.columns.size(), cold.columns.size());
  for (std::size_t c = 0; c < cold.columns.size(); ++c) {
    EXPECT_EQ(warm.columns[c].bidder, cold.columns[c].bidder);
    EXPECT_EQ(warm.columns[c].bundle, cold.columns[c].bundle);
    EXPECT_EQ(warm.columns[c].x, cold.columns[c].x);
  }
}

/// Support-preserving valuation churn: every positive bundle value is
/// rescaled, zeros stay zero. solve_auction_lp only emits columns for
/// positive-value bundles, so this keeps the LP's column structure (and
/// thus basis-snapshot compatibility) while changing the objective.
AuctionInstance rescale_valuation(const AuctionInstance& instance,
                                  std::size_t v, Rng& rng) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * rng.uniform(0.5, 2.0);
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

TEST(WarmStart, ValuePerturbationReusesBasisOnAuctionLp) {
  // The service workload: identical structure, resampled valuations. The
  // remapped... no remap at all here -- the donor basis installs directly.
  const AuctionInstance base =
      gen::make_disk_auction(14, 3, gen::ValuationMix::kMixed, 42);
  LpWarmStart donor;
  lp::BasisSnapshot basis;
  donor.exported = &basis;
  ASSERT_EQ(solve_auction_lp(base, {}, &donor).status,
            lp::SolveStatus::kOptimal);
  ASSERT_FALSE(basis.empty());

  Rng rng(4242);
  AuctionInstance churned = base;
  for (int round = 0; round < 5; ++round) {
    const std::size_t v = rng.uniform_int(churned.num_bidders());
    churned = rescale_valuation(churned, v, rng);
    const FractionalSolution cold = solve_auction_lp(churned);
    LpWarmStart warm;
    warm.hint = &basis;
    const FractionalSolution rewarmed = solve_auction_lp(churned, {}, &warm);
    EXPECT_TRUE(warm.warm_started) << "round " << round;
    EXPECT_LE(rewarmed.pivots, cold.pivots) << "round " << round;
    expect_identical_fraction(rewarmed, cold);
  }
}

TEST(AuctionLp, ConvexityRowsRespected) {
  const AuctionInstance instance =
      gen::make_disk_auction(12, 3, gen::ValuationMix::kMixed, 7);
  const FractionalSolution lp = solve_auction_lp(instance);
  std::vector<double> per_bidder(instance.num_bidders(), 0.0);
  for (const FractionalColumn& column : lp.columns) {
    per_bidder[static_cast<std::size_t>(column.bidder)] += column.x;
    EXPECT_GT(column.x, 0.0);
    EXPECT_NE(column.bundle, kEmptyBundle);
  }
  for (double total : per_bidder) EXPECT_LE(total, 1.0 + 1e-7);
}

TEST(AuctionLp, ObjectiveMatchesColumnValues) {
  const AuctionInstance instance =
      gen::make_disk_auction(12, 3, gen::ValuationMix::kMixed, 8);
  const FractionalSolution lp = solve_auction_lp(instance);
  double recomputed = 0.0;
  for (const FractionalColumn& column : lp.columns) {
    recomputed +=
        instance.value(static_cast<std::size_t>(column.bidder), column.bundle) *
        column.x;
  }
  EXPECT_NEAR(recomputed, lp.objective, 1e-6 * (1.0 + lp.objective));
}

TEST(AuctionLp, CliqueLpRespectsRhoOne) {
  // On a clique with k = 1 and rho = 1 the LP value is bounded by the
  // number of channels times rho plus the best single bid... in fact for
  // identical unit bids LP (1) gives at most 2 (one winner fractionally
  // plus rho slack), far below the edge LP's n/2.
  const AuctionInstance clique = gen::make_clique_auction(20, 0);
  const FractionalSolution lp = solve_auction_lp(clique);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  EXPECT_LE(lp.objective, 2.0 + 1e-6);
}

TEST(InstanceValidation, RejectsBadInput) {
  ConflictGraph graph(2);
  std::vector<ValuationPtr> one{
      std::make_shared<AdditiveValuation>(std::vector<double>{1.0})};
  EXPECT_THROW(AuctionInstance(graph, identity_ordering(2), 1, one),
               std::invalid_argument);
  std::vector<ValuationPtr> two{
      std::make_shared<AdditiveValuation>(std::vector<double>{1.0}),
      std::make_shared<AdditiveValuation>(std::vector<double>{1.0, 2.0})};
  EXPECT_THROW(AuctionInstance(graph, identity_ordering(2), 1, two),
               std::invalid_argument);
}

TEST(Instance, MeasuredRhoClampedToOne) {
  // Empty graph: measured rho would be 0; the instance clamps to 1.
  ConflictGraph graph(3);
  std::vector<ValuationPtr> vals(3, std::make_shared<AdditiveValuation>(
                                        std::vector<double>{1.0, 2.0}));
  const AuctionInstance instance(graph, identity_ordering(3), 2, vals);
  EXPECT_DOUBLE_EQ(instance.rho(), 1.0);
  EXPECT_TRUE(instance.unweighted());
}

}  // namespace
}  // namespace ssa
