#include "core/auction_lp.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace ssa {

FractionalSolution extract_fractional(
    const lp::Solution& solution,
    std::span<const std::pair<int, Bundle>> meaning) {
  FractionalSolution result;
  result.status = solution.status;
  result.objective = solution.objective;
  result.pivots = solution.pivots;
  if (solution.status != lp::SolveStatus::kOptimal) return result;
  for (std::size_t j = 0; j < meaning.size(); ++j) {
    if (solution.x[j] > 1e-9) {
      result.columns.push_back(FractionalColumn{
          meaning[j].first, meaning[j].second, solution.x[j]});
    }
  }
  return result;
}

std::vector<lp::ColumnEntry> bundle_column(const AuctionInstance& instance,
                                           int bidder, Bundle bundle) {
  if (bundle == kEmptyBundle) {
    throw std::invalid_argument("bundle_column: empty bundle has no column");
  }
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  const std::size_t v = static_cast<std::size_t>(bidder);

  std::vector<lp::ColumnEntry> entries;
  // Interference rows: (u, j) for forward neighbors u of v and j in T.
  for (int u : graph.neighbors(v)) {
    if (position[static_cast<std::size_t>(u)] <= position[v]) continue;
    const double wbar = graph.coupling_weight(v, static_cast<std::size_t>(u));
    if (wbar <= 0.0) continue;
    for (int j = 0; j < k; ++j) {
      if (bundle_has(bundle, j)) {
        entries.push_back({channel_row(static_cast<std::size_t>(u), j, k), wbar});
      }
    }
  }
  // Convexity row of bidder v.
  entries.push_back({static_cast<int>(n) * k + bidder, 1.0});
  return entries;
}

double tiebreak_unit(std::size_t v, Bundle t) {
  std::uint64_t x = (static_cast<std::uint64_t>(v) << 32) ^
                    (static_cast<std::uint64_t>(t) + 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

namespace {

/// Objective coefficient of column (v, t) in the EXPLICIT master:
/// b_{v,T} under the shared symmetry-breaking lift (lifted_value in the
/// header). Auction instances carry exactly tied alternate optima for real
/// (equal-value bundles of one bidder), and the warm-start contract
/// requires cold and warm solves to terminate at the SAME optimal vertex
/// from any starting basis -- a generically unique optimum is what makes
/// the terminal vertex start-independent. The SYMMETRIC column-generation
/// path below is left unlifted: its demand oracle prices columns with the
/// true values, and a lifted master under an unlifted oracle could
/// terminate epsilon-short of lifted-optimal. Explicit and colgen
/// objectives therefore differ by <= kTiebreakScale relative
/// (tests/test_auction_lp.cpp compares them within 1e-6). The asymmetric
/// colgen path lifts BOTH master and oracle instead -- see
/// asymmetric_colgen.cpp.
[[nodiscard]] double explicit_objective(const AuctionInstance& instance,
                                        std::size_t v, Bundle t) {
  return lifted_value(instance.value(v, t), v, t);
}

}  // namespace

FractionalSolution solve_auction_lp(const AuctionInstance& instance,
                                    lp::SimplexOptions options,
                                    LpWarmStart* warm) {
  const int k = instance.num_channels();
  if (k > kExplicitChannelLimit) {
    throw std::invalid_argument(
        "solve_auction_lp: explicit enumeration limited to k <= " +
        std::to_string(kExplicitChannelLimit) +
        "; use solve_auction_lp_colgen");
  }
  lp::LinearProgram master = build_master_rows(instance);
  std::vector<std::pair<int, Bundle>> meaning;
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      if (instance.value(v, t) <= 0.0) continue;
      master.add_column(explicit_objective(instance, v, t),
                        bundle_column(instance, static_cast<int>(v), t));
      meaning.emplace_back(static_cast<int>(v), t);
    }
  }
  lp::SimplexEngine engine(options);
  lp::Solution solution;
  bool warm_used = false;
  if (warm != nullptr && warm->hint != nullptr && !warm->hint->empty()) {
    solution = engine.solve(master, *warm->hint, &warm_used);
  } else {
    solution = engine.solve(master);
  }
  if (warm != nullptr) {
    warm->warm_started = warm_used;
    if (warm->exported != nullptr &&
        solution.status == lp::SolveStatus::kOptimal) {
      *warm->exported = engine.export_basis();
    }
  }
  return extract_fractional(solution, meaning);
}

FractionalSolution solve_auction_lp_colgen(
    const AuctionInstance& instance, ColGenStats* stats,
    lp::BendersOptions options) {
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const auto& graph = instance.graph();
  const auto& position = instance.positions();

  lp::LinearProgram master = build_master_rows(instance);
  std::vector<std::pair<int, Bundle>> meaning;
  // Track proposed columns to be robust against dual degeneracy.
  const bool track = k <= kEnumerationChannelLimit;
  std::vector<std::vector<bool>> proposed(
      n, std::vector<bool>(track ? num_bundles(k) : 0, false));

  const lp::PricingOracle oracle =
      [&](const lp::Solution& rmp) -> std::vector<lp::PricedColumn> {
    std::vector<lp::PricedColumn> columns;
    std::vector<double> prices(static_cast<std::size_t>(k), 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      // Bidder-specific prices p_{v,j} = sum over forward neighbors u of
      // wbar(v,u) * y_{u,j} (Section 2.2).
      std::fill(prices.begin(), prices.end(), 0.0);
      for (int u : graph.neighbors(v)) {
        if (position[static_cast<std::size_t>(u)] <= position[v]) continue;
        const double wbar = graph.coupling_weight(v, static_cast<std::size_t>(u));
        if (wbar <= 0.0) continue;
        for (int j = 0; j < k; ++j) {
          prices[static_cast<std::size_t>(j)] +=
              wbar * rmp.duals[static_cast<std::size_t>(
                         channel_row(static_cast<std::size_t>(u), j, k))];
        }
      }
      const DemandResult demand = instance.valuation(v).demand(prices);
      if (demand.bundle == kEmptyBundle) continue;
      const double z_v = rmp.duals[n * static_cast<std::size_t>(k) + v];
      if (demand.utility > z_v + 1e-7) {
        if (track && proposed[v][demand.bundle]) continue;
        if (track) proposed[v][demand.bundle] = true;
        columns.push_back(lp::PricedColumn{
            instance.value(v, demand.bundle),
            bundle_column(instance, static_cast<int>(v), demand.bundle)});
        meaning.emplace_back(static_cast<int>(v), demand.bundle);
      }
    }
    return columns;
  };

  const lp::BendersResult result =
      lp::solve_with_benders(master, oracle, {}, options);
  if (stats != nullptr) {
    stats->rounds = result.rounds;
    stats->columns_generated = result.columns_added;
    stats->proved_optimal = result.proved_optimal;
  }
  return extract_fractional(result.solution, meaning);
}

}  // namespace ssa
