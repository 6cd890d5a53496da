#pragma once
/// \file benders.hpp
/// The library's one column-generation (Dantzig-Wolfe / delayed column)
/// loop. Solving the restricted master gives dual prices; the pricing
/// oracle either proves optimality or returns columns with improving
/// reduced cost. This is the simplex-based equivalent of the paper's
/// ellipsoid-plus-separation approach (Section 2.2), and column generation
/// on the primal master is exactly Benders decomposition on its dual (each
/// generated column is a feasibility cut on the dual polyhedron).
///
/// Three callers run their masters through it:
///  - solve_auction_lp_colgen (core/auction_lp.hpp): LP (1)/(4) priced by
///    demand queries;
///  - solve_asymmetric_lp_colgen (core/asymmetric_colgen.hpp): the
///    Section 6 LP, with both warm starts below;
///  - decompose_fractional (mechanism/decomposition.hpp): the Lavi-Swamy
///    master priced by the rounding algorithm as an approximate oracle.
///
/// Two dual-side warm starts:
///  - seed columns: a donor run's generated column pool is appended to the
///    restricted master before the first solve, so the oracle only has to
///    separate what churn actually changed (a handful of rounds instead of
///    rebuilding the pool from scratch);
///  - a basis hint: the donor's terminal simplex basis is installed into
///    the first master solve (falling back to a cold solve on any
///    incompatibility, exactly like lp/simplex.hpp's warm path).

#include <functional>
#include <vector>

#include "lp/lp_model.hpp"
#include "lp/simplex.hpp"

namespace ssa::lp {

/// A column proposed by a pricing oracle or seeded from a donor pool.
struct PricedColumn {
  double cost = 0.0;
  std::vector<ColumnEntry> entries;
};

/// Pricing callback: receives the current master solution (notably its row
/// duals) and returns columns with positive reduced cost (maximization
/// masters) / negative reduced cost (minimization masters); an empty result
/// certifies optimality of the master over the full column set.
using PricingOracle = std::function<std::vector<PricedColumn>(const Solution&)>;

struct BendersOptions {
  int max_rounds = 500;         ///< oracle calls before giving up
  SimplexOptions simplex = {};  ///< master solver options
  /// Donor basis for the first master solve; dimensions must cover the
  /// master's rows and (initial + seed) structural columns. Null or
  /// incompatible hints cold-solve -- the payload is warm/cold-invariant.
  const BasisSnapshot* basis_hint = nullptr;
};

struct BendersResult {
  Solution solution;  ///< final master solution (x spans all columns)
  /// Master solves performed: the first solve plus one re-solve per oracle
  /// call that returned columns (max_rounds + 1 when the cap ends the run).
  int rounds = 0;
  /// Columns generated by the oracle during this run; seed columns are
  /// NOT counted (they were generated by the donor run).
  int columns_added = 0;
  bool proved_optimal = false;  ///< oracle returned empty on the last round
  bool warm_started = false;    ///< the basis hint actually installed
  long long pivots = 0;         ///< simplex pivots across all rounds
};

/// Solves \p master to optimality over the (implicit) full column set,
/// after appending \p seeds to it. Seed columns get indices [initial,
/// initial + seeds.size()) and oracle columns follow in proposal order, so
/// the caller can map x back to its own column meanings. \p export_basis,
/// when non-null, receives the terminal basis of an optimal run (left
/// empty otherwise) for banking into a warm-start cache.
[[nodiscard]] BendersResult solve_with_benders(
    LinearProgram& master, const PricingOracle& oracle,
    const std::vector<PricedColumn>& seeds = {},
    const BendersOptions& options = {}, BasisSnapshot* export_basis = nullptr);

}  // namespace ssa::lp
