#pragma once
/// \file certify.hpp
/// Optimality certificate check for an LP solution: primal feasibility,
/// dual feasibility and the primal-dual gap, each reported as the worst
/// violation found, in one O(nnz) pass over the LP. Together the three
/// prove optimality without a second solver: a feasible x and a feasible y
/// with c^T x = b^T y are both optimal.

#include "lp/lp_model.hpp"

namespace ssa::lp {

/// Worst violations found by certify(); all zero for an exact optimum.
struct Certificate {
  /// Largest row violation under the row's sense, or largest -x_j.
  double primal = 0.0;
  /// Largest reduced-cost sign violation (c_j - y^T A_j above zero when
  /// maximizing, below zero when minimizing) or row-dual sign violation
  /// (the convention of lp_model.hpp: a <= row of a maximization has
  /// y >= 0, a >= row y <= 0, an = row a free dual; minimization flips
  /// both signs).
  double dual = 0.0;
  /// max(|c^T x - b^T y|, |objective - c^T x|): the duality gap, and how
  /// far the reported objective is from the objective of the reported x.
  double gap = 0.0;
};

/// Certifies \p solution (x, duals and objective) against \p lp. Throws
/// std::invalid_argument when x or duals do not match the LP's column or
/// row count.
[[nodiscard]] Certificate certify(const LinearProgram& lp,
                                  const Solution& solution);

}  // namespace ssa::lp
