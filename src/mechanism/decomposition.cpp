#include "mechanism/decomposition.hpp"

#include <algorithm>
#include <map>

#include "core/exact.hpp"
#include "core/rounding.hpp"
#include "core/sampling_plan.hpp"
#include "lp/benders.hpp"

namespace ssa {

Decomposition decompose_fractional(const AuctionInstance& instance,
                                   const FractionalSolution& fractional,
                                   DecompositionOptions options) {
  Decomposition result;
  result.alpha = options.alpha > 0.0 ? options.alpha : default_alpha(instance);

  // Coordinates = support of x*.
  std::vector<FractionalColumn> support;
  for (const FractionalColumn& column : fractional.columns) {
    if (column.x > 1e-9) support.push_back(column);
  }
  const std::size_t num_coords = support.size();
  std::map<std::pair<int, Bundle>, int> coord_of;
  for (std::size_t c = 0; c < num_coords; ++c) {
    coord_of[{support[c].bidder, support[c].bundle}] = static_cast<int>(c);
  }

  // Master: coordinate equality rows + convexity row; s+/s- and the empty
  // allocation (which makes the convexity row satisfiable) as initial
  // columns. Oracle columns follow the empty allocation in master order.
  lp::LinearProgram master(lp::Objective::kMinimize);
  for (std::size_t c = 0; c < num_coords; ++c) {
    master.add_row(lp::RowSense::kEqual, support[c].x / result.alpha);
  }
  const int convexity_row = master.add_row(lp::RowSense::kEqual, 1.0);
  for (std::size_t c = 0; c < num_coords; ++c) {
    master.add_column(1.0, {{static_cast<int>(c), 1.0}});   // s+
    master.add_column(1.0, {{static_cast<int>(c), -1.0}});  // s-
  }
  const auto first_allocation =
      static_cast<std::size_t>(master.add_column(0.0, {{convexity_row, 1.0}}));
  std::vector<Allocation> allocation_columns(1);
  allocation_columns[0].bundles.assign(instance.num_bidders(), kEmptyBundle);

  const bool exact_pricing_possible =
      options.use_exact_pricing && instance.num_channels() <= 6 &&
      instance.num_bidders() <= 14;

  // Pricing rounds x* valuing bundle T of bidder v at the last positive
  // dual weight of coordinate (v, T), else 0 (priced[num_coords] for
  // columns outside supp(x*)): one plan, its values rewritten each round.
  detail::SamplingPlan plan = sampling_plan(instance, fractional);
  std::vector<std::size_t> plan_coord(plan.bundle.size(), num_coords);
  for (std::size_t j = 0; j < plan.bundle.size(); ++j) {
    const auto it = coord_of.find({plan.bidder[j], plan.bundle[j]});
    if (it != coord_of.end()) {
      plan_coord[j] = static_cast<std::size_t>(it->second);
    }
  }
  std::vector<double> priced(num_coords + 1);

  const lp::PricingOracle oracle =
      [&](const lp::Solution& solution) -> std::vector<lp::PricedColumn> {
    if (solution.objective < 1e-8) return {};  // decomposition complete

    // Dual weights w_c and theta.
    std::vector<double> weights(num_coords, 0.0);
    for (std::size_t c = 0; c < num_coords; ++c) weights[c] = solution.duals[c];
    const double theta = solution.duals[static_cast<std::size_t>(convexity_row)];

    std::fill(priced.begin(), priced.end(), 0.0);
    for (std::size_t c = 0; c < num_coords; ++c) {
      if (weights[c] > 0.0) {
        priced[static_cast<std::size_t>(
            coord_of.at({support[c].bidder, support[c].bundle}))] = weights[c];
      }
    }
    for (std::size_t j = 0; j < plan.value.size(); ++j) {
      plan.value[j] = priced[plan_coord[j]];
    }

    // Candidate allocations from the rounding verifier (and exact B&B),
    // seeded by the number of columns generated so far.
    Allocation candidate = best_of_rounds(
        instance, plan, options.rounding_repetitions,
        options.seed + (allocation_columns.size() - 1));
    if (exact_pricing_possible) {
      // The same pricing auction as explicit 2^k value tables.
      std::vector<std::vector<double>> tables(
          instance.num_bidders(),
          std::vector<double>(num_bundles(instance.num_channels()), 0.0));
      for (std::size_t j = 0; j < plan.value.size(); ++j) {
        tables[static_cast<std::size_t>(plan.bidder[j])][plan.bundle[j]] =
            plan.value[j];
      }
      std::vector<ValuationPtr> pricing_valuations;
      for (std::vector<double>& table : tables) {
        pricing_valuations.push_back(std::make_shared<ExplicitValuation>(
            instance.num_channels(), std::move(table)));
      }
      const AuctionInstance pricing_instance(
          instance.graph(), instance.order(), instance.num_channels(),
          std::move(pricing_valuations), instance.rho());
      const ExactResult exact = solve_exact(pricing_instance);
      if (exact.welfare > pricing_instance.welfare(candidate)) {
        candidate = exact.allocation;
      }
    }
    // Drop coordinates outside supp(x*) or whose true (signed) weight is
    // non-positive; this only raises the score and keeps feasibility
    // (downward closure). The kept ones score the allocation and form its
    // column.
    double score = theta;
    std::vector<lp::ColumnEntry> entries{{convexity_row, 1.0}};
    for (std::size_t v = 0; v < candidate.size(); ++v) {
      if (candidate.bundles[v] == kEmptyBundle) continue;
      const auto it = coord_of.find({static_cast<int>(v), candidate.bundles[v]});
      if (it == coord_of.end() ||
          weights[static_cast<std::size_t>(it->second)] <= 0.0) {
        candidate.bundles[v] = kEmptyBundle;
        continue;
      }
      score += weights[static_cast<std::size_t>(it->second)];
      entries.push_back({it->second, 1.0});
    }
    if (score <= 1e-8) return {};  // no improving allocation found
    allocation_columns.push_back(std::move(candidate));
    return {lp::PricedColumn{0.0, std::move(entries)}};
  };

  lp::BendersOptions benders;
  benders.max_rounds = options.max_rounds;
  const lp::BendersResult run =
      lp::solve_with_benders(master, oracle, {}, benders);
  result.rounds = run.columns_added;
  result.columns_generated = run.columns_added;
  result.residual = std::max(0.0, run.solution.objective);
  result.pivots = run.pivots;

  // Extract the distribution.
  double total = 0.0;
  for (std::size_t a = 0; a < allocation_columns.size(); ++a) {
    const double lambda = run.solution.x[first_allocation + a];
    if (lambda > 1e-9) {
      result.entries.push_back(
          DecompositionEntry{allocation_columns[a], lambda});
      total += lambda;
    }
  }
  if (total > 0.0) {
    for (DecompositionEntry& entry : result.entries) {
      entry.probability /= total;
    }
  }
  return result;
}

}  // namespace ssa
