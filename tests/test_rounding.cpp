// Tests for the rounding algorithms: feasibility invariants (every output
// is feasible, Algorithm 2 outputs satisfy Eq. (5)), the statistical
// approximation guarantees of Theorem 3 / Lemmas 7-8, and the derandomized
// pairwise-independent variant.

#include <gtest/gtest.h>

#include <cmath>

#include "core/auction_lp.hpp"
#include "core/rounding.hpp"
#include "gen/scenario.hpp"
#include "support/pairwise.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace ssa {
namespace {

class UnweightedRounding : public ::testing::TestWithParam<int> {};

TEST_P(UnweightedRounding, AlwaysFeasible) {
  const int seed = GetParam();
  const AuctionInstance instance = gen::make_disk_auction(
      20, 1 + seed % 4, gen::ValuationMix::kMixed,
      static_cast<std::uint64_t>(seed) + 50);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int trial = 0; trial < 30; ++trial) {
    const Allocation allocation = round_unweighted(instance, lp, rng);
    EXPECT_TRUE(instance.feasible(allocation));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnweightedRounding, ::testing::Range(0, 8));

TEST(UnweightedRounding, RejectsWeightedInstances) {
  const AuctionInstance weighted = gen::make_physical_auction(
      10, 2, PowerScheme::kUniform, gen::ValuationMix::kMixed, 3);
  ASSERT_FALSE(weighted.unweighted());
  const FractionalSolution lp = solve_auction_lp(weighted);
  Rng rng(1);
  EXPECT_THROW((void)round_unweighted(weighted, lp, rng), std::invalid_argument);
}

TEST(UnweightedRounding, ExpectedWelfareMeetsTheorem3) {
  // Theorem 3: E[welfare] >= b* / (8 sqrt(k) rho). Check the sample mean
  // over many runs with a safety factor for sampling noise.
  const AuctionInstance instance =
      gen::make_disk_auction(24, 4, gen::ValuationMix::kMixed, 1234);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const double bound =
      lp.objective /
      (8.0 * std::sqrt(static_cast<double>(instance.num_channels())) *
       instance.rho());
  Rng rng(99);
  RunningStats stats;
  for (int trial = 0; trial < 400; ++trial) {
    stats.add(instance.welfare(round_unweighted(instance, lp, rng)));
  }
  EXPECT_GE(stats.mean() + 3.0 * stats.ci95_halfwidth(), bound);
}

TEST(UnweightedRounding, Lemma4RemovalProbabilityAtMostHalf) {
  // Lemma 4: conditioned on surviving the rounding stage, the probability
  // of being removed in conflict resolution is at most 1/2. We estimate
  // P[removed | sampled] aggregated over all vertices and runs; the
  // aggregate must respect the 1/2 bound up to sampling noise.
  const AuctionInstance instance =
      gen::make_disk_auction(24, 4, gen::ValuationMix::kMixed, 2718);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  // Identify sampled vertices by the expected winner mass: run the two
  // stages via round_unweighted and compare winners against a "sampling
  // only" proxy: the total winner probability mass per pass. Instead of
  // instrumenting internals, use the aggregate identity
  //   E[#winners] >= E[#sampled] / 2,
  // where E[#sampled] = sum_c x_c / (2 sqrt(k) rho) by construction.
  double sampled_mass = 0.0;
  for (const FractionalColumn& column : lp.columns) {
    sampled_mass += column.x;
  }
  const double denominator =
      2.0 * std::sqrt(static_cast<double>(instance.num_channels())) *
      instance.rho();
  // Each decomposition half samples from its own share of the mass; the
  // returned allocation is the better half, so its winner count is at
  // least half the winners of a random half. Conservative aggregate bound:
  const double expected_sampled = sampled_mass / denominator;
  Rng rng(161803);
  RunningStats winners;
  for (int trial = 0; trial < 600; ++trial) {
    winners.add(static_cast<double>(
        round_unweighted(instance, lp, rng).winners()));
  }
  // E[winners of best half] >= E[winners of one half] >= (1/2) * E[sampled
  // of that half] and the halves partition the mass, so overall
  // E[winners] >= expected_sampled / 4. Allow 3 CI widths of noise.
  EXPECT_GE(winners.mean() + 3.0 * winners.ci95_halfwidth(),
            expected_sampled / 4.0);
}

TEST(BestOfRounds, AtLeastSinglePassAndDeterministic) {
  const AuctionInstance instance =
      gen::make_disk_auction(18, 2, gen::ValuationMix::kMixed, 77);
  const FractionalSolution lp = solve_auction_lp(instance);
  const Allocation best32 = best_of_rounds(instance, lp, 32, 5);
  const Allocation best32_again = best_of_rounds(instance, lp, 32, 5);
  EXPECT_EQ(best32.bundles, best32_again.bundles);  // same seed, same result
  Rng rng(5);
  const Allocation single = round_once(instance, lp, rng);
  EXPECT_GE(instance.welfare(best32), instance.welfare(single) - 1e-12);
  EXPECT_TRUE(instance.feasible(best32));
}

TEST(BestOfRounds, ExpiredDeadlineTruncatesButStaysFeasible) {
  const AuctionInstance instance =
      gen::make_disk_auction(18, 2, gen::ValuationMix::kMixed, 77);
  const FractionalSolution lp = solve_auction_lp(instance);
  bool timed_out = false;
  const Allocation truncated =
      best_of_rounds(instance, lp, 64, 5, Deadline::after(1e-9), &timed_out);
  EXPECT_TRUE(timed_out);  // repetitions beyond the first were skipped
  EXPECT_TRUE(instance.feasible(truncated));  // repetition 0 always runs
  // An unlimited deadline leaves the result and the flag untouched.
  bool untruncated = false;
  const Allocation full =
      best_of_rounds(instance, lp, 32, 5, Deadline{}, &untruncated);
  EXPECT_FALSE(untruncated);
  EXPECT_EQ(full.bundles, best_of_rounds(instance, lp, 32, 5).bundles);
}

class WeightedRounding : public ::testing::TestWithParam<int> {};

TEST_P(WeightedRounding, PartialOutputsSatisfyCondition5) {
  const int seed = GetParam();
  const AuctionInstance instance = gen::make_physical_auction(
      18, 1 + seed % 3, PowerScheme::kLinear, gen::ValuationMix::kMixed,
      static_cast<std::uint64_t>(seed) + 11);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  Rng rng(static_cast<std::uint64_t>(seed) + 1000);
  for (int trial = 0; trial < 20; ++trial) {
    const Allocation partial = round_weighted_partial(instance, lp, rng);
    EXPECT_TRUE(is_partly_feasible(instance, partial));
  }
}

TEST_P(WeightedRounding, FinalizedOutputsAreFeasible) {
  const int seed = GetParam();
  const AuctionInstance instance = gen::make_physical_auction(
      18, 1 + seed % 3, PowerScheme::kUniform, gen::ValuationMix::kMixed,
      static_cast<std::uint64_t>(seed) + 21);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  Rng rng(static_cast<std::uint64_t>(seed) + 2000);
  for (int trial = 0; trial < 20; ++trial) {
    const Allocation partial = round_weighted_partial(instance, lp, rng);
    const Allocation final_allocation = finalize_partial(instance, partial);
    EXPECT_TRUE(instance.feasible(final_allocation));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedRounding, ::testing::Range(0, 8));

TEST(WeightedRounding, ExpectedWelfareMeetsLemma7And8) {
  // Lemmas 7+8: E[welfare after finalize] >= b*/(16 sqrt(k) rho ceil(log n)).
  const AuctionInstance instance = gen::make_physical_auction(
      20, 2, PowerScheme::kLinear, gen::ValuationMix::kMixed, 555);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const double log_n =
      std::ceil(std::log2(static_cast<double>(instance.num_bidders())));
  const double bound =
      lp.objective /
      (16.0 * std::sqrt(static_cast<double>(instance.num_channels())) *
       instance.rho() * log_n);
  Rng rng(777);
  RunningStats stats;
  for (int trial = 0; trial < 300; ++trial) {
    const Allocation partial = round_weighted_partial(instance, lp, rng);
    stats.add(instance.welfare(finalize_partial(instance, partial)));
  }
  EXPECT_GE(stats.mean() + 3.0 * stats.ci95_halfwidth(), bound);
}

TEST(FinalizePartial, FeasibleInputPassesThrough) {
  // A partly-feasible allocation that is already feasible should come back
  // with at least ~1/log n of its welfare; a singleton comes back intact.
  const AuctionInstance instance = gen::make_physical_auction(
      12, 2, PowerScheme::kUniform, gen::ValuationMix::kMixed, 31);
  // Pick a (bidder, bundle) with positive value so the singleton candidate
  // beats the empty allocation.
  std::size_t bidder = 0;
  Bundle bundle = kEmptyBundle;
  for (std::size_t v = 0; v < instance.num_bidders() && bundle == kEmptyBundle;
       ++v) {
    for (Bundle t = 1; t < num_bundles(2); ++t) {
      if (instance.value(v, t) > 0.0) {
        bidder = v;
        bundle = t;
        break;
      }
    }
  }
  ASSERT_NE(bundle, kEmptyBundle);
  Allocation single;
  single.bundles.assign(instance.num_bidders(), kEmptyBundle);
  single.bundles[bidder] = bundle;
  const Allocation out = finalize_partial(instance, single);
  EXPECT_EQ(out.bundles[bidder], bundle);
  EXPECT_TRUE(instance.feasible(out));
}

TEST(FinalizePartial, LosesAtMostLogFactor) {
  const AuctionInstance instance = gen::make_physical_auction(
      20, 2, PowerScheme::kLinear, gen::ValuationMix::kMixed, 41);
  const FractionalSolution lp = solve_auction_lp(instance);
  Rng rng(42);
  const int cap = static_cast<int>(std::ceil(
                      std::log2(static_cast<double>(instance.num_bidders())))) +
                  1;
  for (int trial = 0; trial < 25; ++trial) {
    const Allocation partial = round_weighted_partial(instance, lp, rng);
    const Allocation out = finalize_partial(instance, partial);
    EXPECT_GE(out.winners() == 0 ? 0.0 : instance.welfare(out),
              instance.welfare(partial) / static_cast<double>(cap) - 1e-9);
  }
}

TEST(DerandomizedRound, MeetsBoundDeterministically) {
  // The best pairwise-independent seed must reach the family average, which
  // matches Theorem 3 up to the 1/p quantization; assert 90% of the bound.
  const AuctionInstance instance =
      gen::make_disk_auction(16, 2, gen::ValuationMix::kMixed, 90);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const PairwiseFamily family(instance.num_bidders(), 61);
  const Allocation allocation = derandomized_round(instance, lp, family);
  EXPECT_TRUE(instance.feasible(allocation));
  const double bound =
      lp.objective /
      (8.0 * std::sqrt(static_cast<double>(instance.num_channels())) *
       instance.rho());
  EXPECT_GE(instance.welfare(allocation), 0.9 * bound);
}

TEST(DerandomizedRound, WeightedInstancesSupported) {
  const AuctionInstance instance = gen::make_physical_auction(
      14, 2, PowerScheme::kUniform, gen::ValuationMix::kMixed, 91);
  const FractionalSolution lp = solve_auction_lp(instance);
  const PairwiseFamily family(instance.num_bidders(), 61);
  const Allocation allocation = derandomized_round(instance, lp, family);
  EXPECT_TRUE(instance.feasible(allocation));
}

TEST(Rounding, EmptyFractionalSolutionGivesEmptyAllocation) {
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 13);
  FractionalSolution empty;
  empty.status = lp::SolveStatus::kOptimal;
  Rng rng(3);
  const Allocation allocation = round_unweighted(instance, empty, rng);
  EXPECT_EQ(allocation.winners(), 0u);
}

TEST(Rounding, SingleChannelDegenerateCase) {
  // k = 1: the sqrt(k) decomposition has one non-trivial half; everything
  // must still work.
  const AuctionInstance instance =
      gen::make_disk_auction(15, 1, gen::ValuationMix::kMixed, 17);
  const FractionalSolution lp = solve_auction_lp(instance);
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    EXPECT_TRUE(instance.feasible(round_unweighted(instance, lp, rng)));
  }
}

TEST(Rounding, AllocationWinnersCount) {
  Allocation allocation;
  allocation.bundles = {0u, 3u, 0u, 1u};
  EXPECT_EQ(allocation.winners(), 2u);
  EXPECT_EQ(channel_holders(allocation, 0), (std::vector<int>{1, 3}));
  EXPECT_EQ(channel_holders(allocation, 1), (std::vector<int>{1}));
}

}  // namespace
}  // namespace ssa
