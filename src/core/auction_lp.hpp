#pragma once
/// \file auction_lp.hpp
/// The paper's LP relaxations (1) (unweighted) and (4) (edge-weighted) in
/// one builder: the coefficient of column (v, T) in row (u, j) is
/// wbar(v, u) when pi(v) < pi(u) and j in T (in unweighted graphs wbar is 1
/// on edges), the per-bidder convexity row caps sum_T x_{v,T} at 1, and the
/// (u, j) rows have right-hand side rho.
///
/// Two solution paths:
///  - explicit: enumerate all 2^k - 1 bundles per bidder
///    (k <= kExplicitChannelLimit);
///  - column generation with demand oracles (Section 2.2): bidder-specific
///    prices p_{v,j} = sum_{u: v in Gamma_pi(u)} wbar(v,u) * y_{u,j} turn
///    the dual separation problem into a demand query.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "lp/benders.hpp"
#include "lp/lp_model.hpp"

namespace ssa {

/// One non-zero of the fractional allocation.
struct FractionalColumn {
  int bidder = 0;
  Bundle bundle = kEmptyBundle;
  double x = 0.0;
};

/// Fractional optimum of LP (1)/(4).
struct FractionalSolution {
  lp::SolveStatus status = lp::SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<FractionalColumn> columns;  ///< x > 0 entries only
  /// Simplex pivots spent producing this solution. An in-process run
  /// diagnostic, NOT part of the payload: the wire/snapshot codec skips it
  /// (SolveReport::pivots is the serialized counterpart) and payload
  /// equality ignores it -- warm and cold solves of one instance disagree
  /// here by design while agreeing on everything above.
  long long pivots = 0;
};

/// Warm-start side channel of the explicit LP path. Runtime-only: never
/// serialized, never part of a cache key. `hint`, when set, is installed
/// by the engine (falling back to a cold solve on any incompatibility --
/// the payload is warm/cold-invariant, see lp/simplex.hpp), and
/// `exported`, when set, receives the optimal basis of this solve.
struct LpWarmStart {
  const lp::BasisSnapshot* hint = nullptr;
  lp::BasisSnapshot* exported = nullptr;  ///< out
  bool warm_started = false;              ///< out
};

/// What one solve leaves for the next solve of the same structure
/// (structural_fingerprint, support/fingerprint.hpp): its optimal basis,
/// the dimensions it was banked for and, for the "asymmetric-colgen"
/// master, the (bidder, bundle) meaning of every master column; an
/// explicit-LP solve leaves `columns` empty. The one entry type of the
/// service's per-shard warm store (service/basis_cache.hpp). Runtime-only
/// like LpWarmStart: never serialized, never snapshotted, never a key.
struct WarmState {
  lp::BasisSnapshot basis;
  std::uint32_t num_bidders = 0;
  std::uint32_t num_channels = 0;
  std::vector<std::pair<std::uint32_t, Bundle>> columns;

  /// Nothing to replay: neither a basis nor columns.
  [[nodiscard]] bool empty() const noexcept {
    return basis.empty() && columns.empty();
  }
};

/// Row index of constraint (u, j) in the master LP (needed by extensions).
[[nodiscard]] constexpr int channel_row(std::size_t u, int j, int k) {
  return static_cast<int>(u) * k + j;
}

/// Deterministic unit in [0, 1) from (bidder, bundle) -- a splitmix64 mix.
/// The shared ingredient of the symmetry-breaking lift below; exposed so
/// the asymmetric column-generation path (asymmetric_colgen.cpp) lifts its
/// master AND its pricing oracle with the exact same per-column unit.
[[nodiscard]] double tiebreak_unit(std::size_t v, Bundle t);

/// Relative scale of the symmetry-breaking lift. Must exceed the engine's
/// optimality tolerance (1e-9) by enough that a previously tied vertex
/// shows a strictly improving reduced cost, and stay far inside every
/// consumer's comparison tolerance (colgen equality allows 1e-6 relative):
/// the lift moves the reported LP value by at most kTiebreakScale relative.
inline constexpr double kTiebreakScale = 1e-7;

/// Objective coefficient of column (v, t) under the symmetry-breaking
/// lift: \p value plus a deterministic per-column relative bump. The lift
/// only ever INCREASES a coefficient, so a lifted LP value stays a valid
/// upper bound on the integral optimum; it depends only on (bidder,
/// bundle), so churn variants of one structure are lifted identically and
/// basis/column-pool reuse is unaffected.
[[nodiscard]] inline double lifted_value(double value, std::size_t v,
                                         Bundle t) {
  return value * (1.0 + kTiebreakScale * tiebreak_unit(v, t));
}

/// Builds the master LP rows (no columns) for an instance of either family
/// (AuctionInstance or AsymmetricInstance): n*k rows "(u,j) <= rho"
/// followed by n rows "sum_T x_{v,T} <= 1".
template <typename Instance>
[[nodiscard]] lp::LinearProgram build_master_rows(const Instance& instance) {
  lp::LinearProgram master(lp::Objective::kMaximize);
  const std::size_t n = instance.num_bidders();
  const std::size_t channel_rows =
      n * static_cast<std::size_t>(instance.num_channels());
  for (std::size_t row = 0; row < channel_rows; ++row) {
    master.add_row(lp::RowSense::kLessEqual, instance.rho());
  }
  for (std::size_t v = 0; v < n; ++v) {
    master.add_row(lp::RowSense::kLessEqual, 1.0);
  }
  return master;
}

/// The fractional solution of a master LP of either family: status,
/// objective and pivots of \p solution, plus every column with x > 1e-9
/// read as the (bidder, bundle) \p meaning[j] of its index j (no columns
/// unless the solve was optimal).
[[nodiscard]] FractionalSolution extract_fractional(
    const lp::Solution& solution,
    std::span<const std::pair<int, Bundle>> meaning);

/// Column entries of variable (v, T) for the master LP.
[[nodiscard]] std::vector<lp::ColumnEntry> bundle_column(
    const AuctionInstance& instance, int bidder, Bundle bundle);

/// Solves the LP by explicit bundle enumeration; requires
/// k <= kExplicitChannelLimit.
/// Columns with zero value are skipped (they cannot help a packing LP).
/// \p warm, when non-null, threads a basis hint in and the optimal basis
/// out (see LpWarmStart); the result is identical to the cold solve's
/// whenever the optimal vertex is unique.
[[nodiscard]] FractionalSolution solve_auction_lp(
    const AuctionInstance& instance, lp::SimplexOptions options = {},
    LpWarmStart* warm = nullptr);

/// Statistics of a column-generation solve (E6 measures these).
struct ColGenStats {
  int rounds = 0;  ///< master solves (lp::BendersResult::rounds)
  int columns_generated = 0;
  bool proved_optimal = false;
};

/// Solves the LP with demand-oracle column generation; works for any k.
[[nodiscard]] FractionalSolution solve_auction_lp_colgen(
    const AuctionInstance& instance, ColGenStats* stats = nullptr,
    lp::BendersOptions options = {});

}  // namespace ssa
