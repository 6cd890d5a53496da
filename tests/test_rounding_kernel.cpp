// Tests for the rounding kernel (core/sampling_plan.hpp): every rounding
// caller -- best_of_rounds, derandomized_round, best_asymmetric_rounds,
// the single-pass entry points and the Lavi-Swamy pricing loop -- must be
// bitwise identical to the reference below, which samples x* through
// tables rebuilt on every pass: decompose + round_with_uniforms for
// Algorithms 1 and 2 + 3, round_asymmetric with a per-pass by_bidder
// table, and the decomposition loop pricing through one SparseValuation
// instance per round. Every comparison runs under 1 and 4 OpenMP threads.
//
// The second half checks the paper's guarantees as properties over the same
// instances: feasibility of every best_of_rounds output, Condition (5) for
// every Algorithm 2 output, and mean single-pass welfare against b*/factor
// (Theorem 3, Lemmas 7 + 8, Section 6).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <variant>
#include <vector>

#include "core/asymmetric.hpp"
#include "core/auction_lp.hpp"
#include "core/exact.hpp"
#include "core/rounding.hpp"
#include "gen/scenario.hpp"
#include "load/workload.hpp"
#include "lp/simplex.hpp"
#include "mechanism/decomposition.hpp"
#include "support/deadline.hpp"
#include "support/pairwise.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace ssa {
namespace {

// ---------------------------------------------------------------------------
// Reference: per-pass sampling tables.

namespace reference {

struct BidderDistribution {
  std::vector<Bundle> bundles;
  std::vector<double> cumulative;
};

std::vector<std::vector<BidderDistribution>> decompose(
    const AuctionInstance& instance, const FractionalSolution& fractional,
    double denominator) {
  const double sqrt_k = std::sqrt(static_cast<double>(instance.num_channels()));
  std::vector<std::vector<BidderDistribution>> halves(
      2, std::vector<BidderDistribution>(instance.num_bidders()));
  for (const FractionalColumn& column : fractional.columns) {
    const int half = bundle_size(column.bundle) <= sqrt_k + 1e-12 ? 0 : 1;
    BidderDistribution& dist = halves[static_cast<std::size_t>(half)]
                                     [static_cast<std::size_t>(column.bidder)];
    const double previous =
        dist.cumulative.empty() ? 0.0 : dist.cumulative.back();
    dist.bundles.push_back(column.bundle);
    dist.cumulative.push_back(previous + column.x / denominator);
  }
  return halves;
}

Bundle sample(const BidderDistribution& dist, double u) {
  for (std::size_t i = 0; i < dist.cumulative.size(); ++i) {
    if (u < dist.cumulative[i]) return dist.bundles[i];
  }
  return kEmptyBundle;
}

void resolve_unweighted(const AuctionInstance& instance,
                        Allocation& allocation) {
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  for (int v : instance.order()) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (allocation.bundles[sv] == kEmptyBundle) continue;
    for (int u : graph.neighbors(sv)) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (position[su] < position[sv] &&
          (allocation.bundles[su] & allocation.bundles[sv]) != kEmptyBundle) {
        allocation.bundles[sv] = kEmptyBundle;
        break;
      }
    }
  }
}

void resolve_partial(const AuctionInstance& instance, Allocation& allocation) {
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  for (int v : instance.order()) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (allocation.bundles[sv] == kEmptyBundle) continue;
    double incoming = 0.0;
    for (int u : graph.neighbors(sv)) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (position[su] < position[sv] &&
          (allocation.bundles[su] & allocation.bundles[sv]) != kEmptyBundle) {
        incoming += graph.coupling_weight(su, sv);
      }
    }
    if (incoming >= 0.5) allocation.bundles[sv] = kEmptyBundle;
  }
}

template <typename Resolver>
Allocation round_with_uniforms(const AuctionInstance& instance,
                               const FractionalSolution& fractional,
                               double denominator, std::span<const double> u0,
                               std::span<const double> u1,
                               const Resolver& resolve) {
  const auto halves = decompose(instance, fractional, denominator);
  Allocation best;
  best.bundles.assign(instance.num_bidders(), kEmptyBundle);
  double best_welfare = -1.0;
  for (int half = 0; half < 2; ++half) {
    const auto& dists = halves[static_cast<std::size_t>(half)];
    const std::span<const double> uniforms = half == 0 ? u0 : u1;
    Allocation candidate;
    candidate.bundles.resize(dists.size(), kEmptyBundle);
    for (std::size_t v = 0; v < dists.size(); ++v) {
      candidate.bundles[v] = sample(dists[v], uniforms[v]);
    }
    resolve(instance, candidate);
    const double welfare = instance.welfare(candidate);
    if (welfare > best_welfare) {
      best_welfare = welfare;
      best = std::move(candidate);
    }
  }
  return best;
}

std::vector<double> draw_uniforms(Rng& rng, std::size_t n) {
  std::vector<double> uniforms(n);
  for (double& u : uniforms) u = rng.uniform();
  return uniforms;
}

double denominator(const AuctionInstance& instance, double c) {
  return c * std::sqrt(static_cast<double>(instance.num_channels())) *
         instance.rho();
}

Allocation round_unweighted(const AuctionInstance& instance,
                            const FractionalSolution& fractional, Rng& rng) {
  const auto u0 = draw_uniforms(rng, instance.num_bidders());
  const auto u1 = draw_uniforms(rng, instance.num_bidders());
  return round_with_uniforms(instance, fractional, denominator(instance, 2.0),
                             u0, u1, resolve_unweighted);
}

Allocation round_weighted_partial(const AuctionInstance& instance,
                                  const FractionalSolution& fractional,
                                  Rng& rng) {
  const auto u0 = draw_uniforms(rng, instance.num_bidders());
  const auto u1 = draw_uniforms(rng, instance.num_bidders());
  return round_with_uniforms(instance, fractional, denominator(instance, 4.0),
                             u0, u1, resolve_partial);
}

Allocation finalize_partial(const AuctionInstance& instance,
                            const Allocation& partial) {
  const std::size_t n = instance.num_bidders();
  const auto& graph = instance.graph();
  std::vector<bool> remaining(n, false);
  std::size_t remaining_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (partial.bundles[v] != kEmptyBundle) {
      remaining[v] = true;
      ++remaining_count;
    }
  }
  std::vector<int> descending(instance.order().rbegin(),
                              instance.order().rend());
  Allocation best;
  best.bundles.assign(n, kEmptyBundle);
  double best_welfare = instance.welfare(best);
  const int iteration_cap =
      static_cast<int>(std::ceil(std::log2(std::max<std::size_t>(n, 2)))) + 4;
  for (int iteration = 0; iteration < iteration_cap && remaining_count > 0;
       ++iteration) {
    Allocation candidate;
    candidate.bundles.assign(n, kEmptyBundle);
    for (std::size_t v = 0; v < n; ++v) {
      if (remaining[v]) candidate.bundles[v] = partial.bundles[v];
    }
    const std::size_t before = remaining_count;
    for (int v : descending) {
      const std::size_t sv = static_cast<std::size_t>(v);
      if (!remaining[sv] || candidate.bundles[sv] == kEmptyBundle) continue;
      double incoming = 0.0;
      for (int u : graph.neighbors(sv)) {
        const std::size_t su = static_cast<std::size_t>(u);
        if ((candidate.bundles[su] & candidate.bundles[sv]) != kEmptyBundle) {
          incoming += graph.coupling_weight(su, sv);
        }
      }
      if (incoming < 1.0) {
        remaining[sv] = false;
        --remaining_count;
      } else {
        candidate.bundles[sv] = kEmptyBundle;
      }
    }
    if (remaining_count == before) break;
    const double welfare = instance.welfare(candidate);
    if (welfare > best_welfare) {
      best_welfare = welfare;
      best = std::move(candidate);
    }
  }
  return best;
}

Allocation round_once(const AuctionInstance& instance,
                      const FractionalSolution& fractional, Rng& rng) {
  if (instance.unweighted()) {
    return reference::round_unweighted(instance, fractional, rng);
  }
  return reference::finalize_partial(
      instance, reference::round_weighted_partial(instance, fractional, rng));
}

/// Best-of-R that keeps every repetition's allocation.
template <typename Pass, typename WelfareOf>
Allocation best_rounds(int repetitions, std::uint64_t seed, const Pass& pass,
                       const WelfareOf& welfare_of) {
  Rng base(seed);
  std::vector<Allocation> allocations(static_cast<std::size_t>(repetitions));
  std::vector<double> welfare(static_cast<std::size_t>(repetitions), 0.0);
  parallel_for(repetitions, [&](std::ptrdiff_t r) {
    Rng child = base.split(static_cast<std::uint64_t>(r));
    allocations[static_cast<std::size_t>(r)] = pass(child);
    welfare[static_cast<std::size_t>(r)] =
        welfare_of(allocations[static_cast<std::size_t>(r)]);
  });
  std::size_t best = 0;
  for (std::size_t r = 1; r < welfare.size(); ++r) {
    if (welfare[r] > welfare[best]) best = r;
  }
  return allocations[best];
}

Allocation best_of_rounds(const AuctionInstance& instance,
                          const FractionalSolution& fractional,
                          int repetitions, std::uint64_t seed) {
  return best_rounds(
      repetitions, seed,
      [&](Rng& rng) {
        return reference::round_once(instance, fractional, rng);
      },
      [&](const Allocation& a) { return instance.welfare(a); });
}

Allocation derandomized_round(const AuctionInstance& instance,
                              const FractionalSolution& fractional,
                              const PairwiseFamily& family) {
  const std::size_t n = instance.num_bidders();
  const double d = denominator(instance, instance.unweighted() ? 2.0 : 4.0);
  const auto run = [&](const std::vector<double>& uniforms) {
    if (instance.unweighted()) {
      return round_with_uniforms(instance, fractional, d, uniforms, uniforms,
                                 resolve_unweighted);
    }
    return reference::finalize_partial(
        instance, round_with_uniforms(instance, fractional, d, uniforms,
                                      uniforms, resolve_partial));
  };
  std::vector<double> welfare(family.seed_count(), 0.0);
  parallel_for(static_cast<std::ptrdiff_t>(family.seed_count()),
               [&](std::ptrdiff_t s) {
                 welfare[static_cast<std::size_t>(s)] = instance.welfare(
                     run(family.values(static_cast<std::uint64_t>(s), n)));
               });
  std::uint64_t best_seed = 0;
  for (std::uint64_t s = 1; s < family.seed_count(); ++s) {
    if (welfare[s] > welfare[best_seed]) best_seed = s;
  }
  return run(family.values(best_seed, n));
}

Allocation round_asymmetric(const AsymmetricInstance& instance,
                            const FractionalSolution& fractional, Rng& rng) {
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const double denominator = 2.0 * static_cast<double>(k) * instance.rho();
  std::vector<std::vector<const FractionalColumn*>> by_bidder(n);
  for (const FractionalColumn& column : fractional.columns) {
    by_bidder[static_cast<std::size_t>(column.bidder)].push_back(&column);
  }
  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (std::size_t v = 0; v < n; ++v) {
    const double u = rng.uniform();
    double cumulative = 0.0;
    for (const FractionalColumn* column : by_bidder[v]) {
      cumulative += column->x / denominator;
      if (u < cumulative) {
        allocation.bundles[v] = column->bundle;
        break;
      }
    }
  }
  for (int v : instance.order()) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (allocation.bundles[sv] == kEmptyBundle) continue;
    bool removed = false;
    for (int j = 0; !removed && j < k; ++j) {
      if (!bundle_has(allocation.bundles[sv], j)) continue;
      for (int u : instance.graph(j).neighbors(sv)) {
        const std::size_t su = static_cast<std::size_t>(u);
        if (instance.positions()[su] < instance.positions()[sv] &&
            bundle_has(allocation.bundles[su], j)) {
          allocation.bundles[sv] = kEmptyBundle;
          removed = true;
          break;
        }
      }
    }
  }
  return allocation;
}

Allocation best_asymmetric_rounds(const AsymmetricInstance& instance,
                                  const FractionalSolution& fractional,
                                  int repetitions, std::uint64_t seed) {
  return best_rounds(
      repetitions, seed,
      [&](Rng& rng) {
        return reference::round_asymmetric(instance, fractional, rng);
      },
      [&](const Allocation& a) { return instance.welfare(a); });
}

class SparseValuation final : public Valuation {
 public:
  SparseValuation(int num_channels, std::map<Bundle, double> values)
      : Valuation(num_channels), values_(std::move(values)) {}
  [[nodiscard]] double value(Bundle bundle) const override {
    const auto it = values_.find(bundle);
    return it == values_.end() ? 0.0 : it->second;
  }

 private:
  std::map<Bundle, double> values_;
};

/// The Lavi-Swamy loop with one SparseValuation pricing instance per round,
/// rounded through the per-pass reference.
Decomposition decompose_fractional(const AuctionInstance& instance,
                                   const FractionalSolution& fractional,
                                   DecompositionOptions options) {
  Decomposition result;
  result.alpha = options.alpha > 0.0 ? options.alpha : default_alpha(instance);
  std::vector<FractionalColumn> support;
  for (const FractionalColumn& column : fractional.columns) {
    if (column.x > 1e-9) support.push_back(column);
  }
  const std::size_t num_coords = support.size();
  std::map<std::pair<int, Bundle>, int> coord_of;
  for (std::size_t c = 0; c < num_coords; ++c) {
    coord_of[{support[c].bidder, support[c].bundle}] = static_cast<int>(c);
  }
  lp::LinearProgram master(lp::Objective::kMinimize);
  for (std::size_t c = 0; c < num_coords; ++c) {
    master.add_row(lp::RowSense::kEqual, support[c].x / result.alpha);
  }
  const int convexity_row = master.add_row(lp::RowSense::kEqual, 1.0);
  for (std::size_t c = 0; c < num_coords; ++c) {
    master.add_column(1.0, {{static_cast<int>(c), 1.0}});
    master.add_column(1.0, {{static_cast<int>(c), -1.0}});
  }
  std::vector<Allocation> columns;
  std::vector<int> master_index;
  lp::SimplexEngine engine;
  {
    Allocation empty;
    empty.bundles.assign(instance.num_bidders(), kEmptyBundle);
    master.add_column(0.0, {{convexity_row, 1.0}});
    columns.push_back(empty);
    master_index.push_back(static_cast<int>(master.num_columns()) - 1);
  }
  lp::Solution solution = engine.solve(master);
  const bool exact_pricing_possible = options.use_exact_pricing &&
                                      instance.num_channels() <= 6 &&
                                      instance.num_bidders() <= 14;
  for (result.rounds = 0; result.rounds < options.max_rounds; ++result.rounds) {
    if (solution.status != lp::SolveStatus::kOptimal) break;
    if (solution.objective < 1e-8) break;
    std::vector<double> weights(num_coords, 0.0);
    for (std::size_t c = 0; c < num_coords; ++c) weights[c] = solution.duals[c];
    const double theta =
        solution.duals[static_cast<std::size_t>(convexity_row)];
    std::vector<ValuationPtr> valuations;
    std::vector<std::map<Bundle, double>> tables(instance.num_bidders());
    for (std::size_t c = 0; c < num_coords; ++c) {
      if (weights[c] > 0.0) {
        tables[static_cast<std::size_t>(support[c].bidder)][support[c].bundle] =
            weights[c];
      }
    }
    for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
      valuations.push_back(std::make_shared<SparseValuation>(
          instance.num_channels(), std::move(tables[v])));
    }
    const AuctionInstance pricing(instance.graph(), instance.order(),
                                  instance.num_channels(),
                                  std::move(valuations), instance.rho());
    Allocation candidate = reference::best_of_rounds(
        pricing, fractional, options.rounding_repetitions,
        options.seed + static_cast<std::uint64_t>(result.rounds));
    if (exact_pricing_possible) {
      const ExactResult exact = solve_exact(pricing);
      if (exact.welfare > pricing.welfare(candidate)) {
        candidate = exact.allocation;
      }
    }
    for (std::size_t v = 0; v < candidate.size(); ++v) {
      if (candidate.bundles[v] == kEmptyBundle) continue;
      const auto it =
          coord_of.find({static_cast<int>(v), candidate.bundles[v]});
      if (it == coord_of.end() ||
          weights[static_cast<std::size_t>(it->second)] <= 0.0) {
        candidate.bundles[v] = kEmptyBundle;
      }
    }
    double score = theta;
    for (std::size_t v = 0; v < candidate.size(); ++v) {
      if (candidate.bundles[v] == kEmptyBundle) continue;
      score += weights[static_cast<std::size_t>(
          coord_of.at({static_cast<int>(v), candidate.bundles[v]}))];
    }
    if (score <= 1e-8) break;
    std::vector<lp::ColumnEntry> entries{{convexity_row, 1.0}};
    for (std::size_t v = 0; v < candidate.size(); ++v) {
      if (candidate.bundles[v] == kEmptyBundle) continue;
      entries.push_back(
          {coord_of.at({static_cast<int>(v), candidate.bundles[v]}), 1.0});
    }
    master.add_column(0.0, entries);
    engine.add_column(0.0, entries);
    columns.push_back(candidate);
    master_index.push_back(static_cast<int>(master.num_columns()) - 1);
    ++result.columns_generated;
    solution = engine.resolve();
  }
  result.residual = std::max(0.0, solution.objective);
  double total = 0.0;
  for (std::size_t a = 0; a < columns.size(); ++a) {
    const double lambda = solution.x[static_cast<std::size_t>(master_index[a])];
    if (lambda > 1e-9) {
      result.entries.push_back(DecompositionEntry{columns[a], lambda});
      total += lambda;
    }
  }
  if (total > 0.0) {
    for (DecompositionEntry& entry : result.entries) entry.probability /= total;
  }
  return result;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Instances: the mixed suite, a ScenarioPool sample with churn variants, and
// weighted physical-model auctions (neither of the former has edge weights).

std::vector<gen::NamedInstance> kernel_instances() {
  std::vector<gen::NamedInstance> all;
  for (const auto& [n, k, seed] :
       {std::tuple<std::size_t, int, std::uint64_t>{12, 2, 1}, {20, 3, 2},
        {32, 4, 3}}) {
    for (gen::NamedInstance& named : gen::mixed_scenario_suite(n, k, seed)) {
      all.push_back(std::move(named));
    }
  }
  load::TraceSpec spec;
  spec.seed = 29;
  spec.pool_size = 5;
  spec.bidders = 14;
  spec.channels = 3;
  load::ScenarioPool pool(spec);
  for (std::uint32_t scenario = 0; scenario < pool.size(); ++scenario) {
    for (std::uint32_t variant = 0; variant < 2; ++variant) {
      all.push_back(pool.instance(scenario, variant));
    }
  }
  int index = 0;
  for (const auto& [n, k, scheme] :
       {std::tuple<std::size_t, int, PowerScheme>{10, 2, PowerScheme::kUniform},
        {18, 3, PowerScheme::kLinear},
        {30, 4, PowerScheme::kUniform}}) {
    all.push_back({"physical", gen::make_physical_auction(
                                   n, k, scheme, gen::ValuationMix::kMixed,
                                   static_cast<std::uint64_t>(600 + index++))});
  }
  return all;
}

const std::vector<gen::NamedInstance>& instances() {
  static const std::vector<gen::NamedInstance> all = kernel_instances();
  return all;
}

std::vector<const AuctionInstance*> symmetric_instances() {
  std::vector<const AuctionInstance*> out;
  for (const gen::NamedInstance& named : instances()) {
    if (const auto* instance = std::get_if<AuctionInstance>(&named.instance)) {
      out.push_back(instance);
    }
  }
  return out;
}

std::vector<const AsymmetricInstance*> asymmetric_instances() {
  std::vector<const AsymmetricInstance*> out;
  for (const gen::NamedInstance& named : instances()) {
    if (const auto* instance =
            std::get_if<AsymmetricInstance>(&named.instance)) {
      out.push_back(instance);
    }
  }
  return out;
}

TEST(KernelInstances, CoverUnweightedWeightedAndAsymmetric) {
  int unweighted = 0;
  int weighted = 0;
  for (const AuctionInstance* instance : symmetric_instances()) {
    (instance->unweighted() ? unweighted : weighted) += 1;
  }
  EXPECT_GE(unweighted, 8);
  EXPECT_GE(weighted, 3);
  EXPECT_GE(asymmetric_instances().size(), 8u);
}

// ---------------------------------------------------------------------------
// Bitwise identity with the reference, under 1 and 4 threads.

/// The LP optimum plus a synthetic spread x. The optima above are nearly
/// integral (about one column per bidder); the spread one puts several
/// columns per bidder on both sides of the sqrt(k) split and repeats one
/// column, so thresholds past the first and duplicate coordinates are
/// exercised too.
template <typename Instance>
std::vector<FractionalSolution> fractionals(const Instance& instance,
                                            const FractionalSolution& lp) {
  FractionalSolution spread;
  spread.status = lp::SolveStatus::kOptimal;
  Rng rng(instance.num_bidders() * 31 +
          static_cast<std::size_t>(instance.num_channels()));
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
      if (rng.bernoulli(0.5)) {
        spread.columns.push_back(
            {static_cast<int>(v), t, rng.uniform(0.05, 0.5)});
      }
    }
  }
  spread.columns.push_back(spread.columns[spread.columns.size() / 2]);
  return {lp, spread};
}

class KernelIdentity : public ::testing::TestWithParam<int> {};

TEST_P(KernelIdentity, BestOfRoundsAndSinglePasses) {
  const ThreadCountScope threads(GetParam());
  for (const AuctionInstance* instance : symmetric_instances()) {
    for (const FractionalSolution& x :
         fractionals(*instance, solve_auction_lp(*instance))) {
      for (const std::uint64_t seed : {1u, 77u}) {
        const Allocation expected =
            reference::best_of_rounds(*instance, x, 64, seed);
        const Allocation actual = best_of_rounds(*instance, x, 64, seed);
        EXPECT_EQ(actual.bundles, expected.bundles);
        EXPECT_EQ(instance->welfare(actual), instance->welfare(expected));
      }
      Rng rng_expected(5);
      Rng rng_actual(5);
      for (int pass = 0; pass < 8; ++pass) {
        EXPECT_EQ(round_once(*instance, x, rng_actual).bundles,
                  reference::round_once(*instance, x, rng_expected).bundles);
        const Allocation partial_expected =
            reference::round_weighted_partial(*instance, x, rng_expected);
        const Allocation partial =
            round_weighted_partial(*instance, x, rng_actual);
        EXPECT_EQ(partial.bundles, partial_expected.bundles);
        EXPECT_EQ(
            finalize_partial(*instance, partial).bundles,
            reference::finalize_partial(*instance, partial_expected).bundles);
      }
    }
  }
}

TEST_P(KernelIdentity, DerandomizedRound) {
  const ThreadCountScope threads(GetParam());
  for (const AuctionInstance* instance : symmetric_instances()) {
    if (instance->num_bidders() > 20) continue;  // p^2 passes each
    const PairwiseFamily family(instance->num_bidders(), 31);
    for (const FractionalSolution& x :
         fractionals(*instance, solve_auction_lp(*instance))) {
      const Allocation expected =
          reference::derandomized_round(*instance, x, family);
      const Allocation actual = derandomized_round(*instance, x, family);
      EXPECT_EQ(actual.bundles, expected.bundles);
      EXPECT_EQ(instance->welfare(actual), instance->welfare(expected));
    }
  }
}

TEST_P(KernelIdentity, AsymmetricRounds) {
  const ThreadCountScope threads(GetParam());
  for (const AsymmetricInstance* instance : asymmetric_instances()) {
    for (const FractionalSolution& x :
         fractionals(*instance, solve_asymmetric_lp(*instance))) {
      for (const std::uint64_t seed : {3u, 9u}) {
        const Allocation expected =
            reference::best_asymmetric_rounds(*instance, x, 64, seed);
        const Allocation actual =
            best_asymmetric_rounds(*instance, x, 64, seed);
        EXPECT_EQ(actual.bundles, expected.bundles);
        EXPECT_EQ(instance->welfare(actual), instance->welfare(expected));
      }
      Rng rng_expected(11);
      Rng rng_actual(11);
      for (int pass = 0; pass < 8; ++pass) {
        EXPECT_EQ(
            round_asymmetric(*instance, x, rng_actual).bundles,
            reference::round_asymmetric(*instance, x, rng_expected).bundles);
      }
    }
  }
}

TEST_P(KernelIdentity, DecomposeFractional) {
  const ThreadCountScope threads(GetParam());
  int entries = 0;
  for (const AuctionInstance* instance : symmetric_instances()) {
    if (instance->num_bidders() > 20) continue;
    for (const FractionalSolution& x :
         fractionals(*instance, solve_auction_lp(*instance))) {
      // 0 and 1 are the round-cap edges, where the loop's round accounting
      // could part from the reference's.
      for (const int max_rounds : {0, 1, 40}) {
        DecompositionOptions options;
        options.max_rounds = max_rounds;
        const Decomposition expected =
            reference::decompose_fractional(*instance, x, options);
        const Decomposition actual =
            decompose_fractional(*instance, x, options);
        EXPECT_EQ(actual.rounds, expected.rounds) << max_rounds;
        EXPECT_EQ(actual.columns_generated, expected.columns_generated)
            << max_rounds;
        EXPECT_EQ(actual.residual, expected.residual) << max_rounds;
        ASSERT_EQ(actual.entries.size(), expected.entries.size())
            << max_rounds;
        for (std::size_t e = 0; e < actual.entries.size(); ++e) {
          EXPECT_EQ(actual.entries[e].allocation.bundles,
                    expected.entries[e].allocation.bundles);
          EXPECT_EQ(actual.entries[e].probability,
                    expected.entries[e].probability);
        }
        if (max_rounds == 40) {
          entries += static_cast<int>(actual.entries.size());
        }
      }
    }
  }
  EXPECT_GT(entries, 100);  // the loop really priced many rounds
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelIdentity, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// The paper's guarantees as properties over the same instances.

constexpr int kPasses = 200;

TEST(RoundingGuarantees, BestOfRoundsOutputsAreFeasible) {
  for (const AuctionInstance* instance : symmetric_instances()) {
    const FractionalSolution lp = solve_auction_lp(*instance);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      EXPECT_TRUE(instance->feasible(best_of_rounds(*instance, lp, 16, seed)));
    }
  }
  for (const AsymmetricInstance* instance : asymmetric_instances()) {
    const FractionalSolution lp = solve_asymmetric_lp(*instance);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      EXPECT_TRUE(
          instance->feasible(best_asymmetric_rounds(*instance, lp, 16, seed)));
    }
  }
}

TEST(RoundingGuarantees, Algorithm2OutputsSatisfyCondition5) {
  for (const AuctionInstance* instance : symmetric_instances()) {
    const FractionalSolution lp = solve_auction_lp(*instance);
    Rng rng(17);
    for (int pass = 0; pass < 50; ++pass) {
      EXPECT_TRUE(is_partly_feasible(
          *instance, round_weighted_partial(*instance, lp, rng)));
    }
  }
}

/// Mean single-pass welfare plus three 95% CI half-widths.
template <typename Pass>
double optimistic_mean(const Pass& pass) {
  RunningStats stats;
  for (int r = 0; r < kPasses; ++r) {
    stats.add(pass(static_cast<std::uint64_t>(r)));
  }
  return stats.mean() + 3.0 * stats.ci95_halfwidth();
}

TEST(RoundingGuarantees, Theorem3AndLemmas7And8InExpectation) {
  for (const AuctionInstance* instance : symmetric_instances()) {
    const FractionalSolution lp = solve_auction_lp(*instance);
    const double sqrt_k =
        std::sqrt(static_cast<double>(instance->num_channels()));
    const double log_n = std::ceil(std::log2(static_cast<double>(
        std::max<std::size_t>(instance->num_bidders(), 2))));
    const double factor = instance->unweighted()
                              ? 8.0 * sqrt_k * instance->rho()
                              : 16.0 * sqrt_k * instance->rho() * log_n;
    const double mean = optimistic_mean([&](std::uint64_t seed) {
      Rng rng(seed);
      return instance->welfare(round_once(*instance, lp, rng));
    });
    EXPECT_GE(mean, lp.objective / factor)
        << (instance->unweighted() ? "Theorem 3" : "Lemmas 7 + 8");
  }
}

TEST(RoundingGuarantees, Section6InExpectation) {
  for (const AsymmetricInstance* instance : asymmetric_instances()) {
    const FractionalSolution lp = solve_asymmetric_lp(*instance);
    const double factor =
        4.0 * static_cast<double>(instance->num_channels()) * instance->rho();
    const double mean = optimistic_mean([&](std::uint64_t seed) {
      Rng rng(seed);
      return instance->welfare(round_asymmetric(*instance, lp, rng));
    });
    EXPECT_GE(mean, lp.objective / factor);
  }
}

}  // namespace
}  // namespace ssa
