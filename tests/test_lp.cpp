// Tests for the revised-simplex solver and the column-generation engine.
// Random packing LPs are verified by certificate: primal feasibility, dual
// feasibility (all reduced costs <= 0) and strong duality together prove
// optimality without an external solver. lp::certify runs the same check
// over every auction LP family, cold and warm-started.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <variant>

#include "core/asymmetric_colgen.hpp"
#include "core/auction_lp.hpp"
#include "gen/scenario.hpp"
#include "load/workload.hpp"
#include "lp/basis_factor.hpp"
#include "lp/benders.hpp"
#include "lp/certify.hpp"
#include "lp/lp_model.hpp"
#include "lp/simplex.hpp"
#include "support/random.hpp"

namespace ssa::lp {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x = 4, y = 0, obj 12.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 4.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 6.0);
  model.add_column(3.0, {{r0, 1.0}, {r1, 1.0}});
  model.add_column(2.0, {{r0, 1.0}, {r1, 3.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 12.0, 1e-9);
  EXPECT_NEAR(solution.x[0], 4.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 0.0, 1e-9);
}

TEST(Simplex, KnownFractionalOptimum) {
  // max x + y s.t. 2x + y <= 2, x + 2y <= 2 -> x = y = 2/3, obj 4/3.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 2.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 2.0);
  model.add_column(1.0, {{r0, 2.0}, {r1, 1.0}});
  model.add_column(1.0, {{r0, 1.0}, {r1, 2.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 4.0 / 3.0, 1e-9);
}

TEST(Simplex, Minimization) {
  // min 2x + 3y s.t. x + y >= 4, x <= 3 -> x = 3, y = 1, obj 9.
  LinearProgram model(Objective::kMinimize);
  const int r0 = model.add_row(RowSense::kGreaterEqual, 4.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 3.0);
  model.add_column(2.0, {{r0, 1.0}, {r1, 1.0}});
  model.add_column(3.0, {{r0, 1.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 9.0, 1e-9);
}

TEST(Simplex, EqualityRows) {
  // max x + 2y s.t. x + y = 3, y <= 2 -> x = 1, y = 2, obj 5.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kEqual, 3.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 2.0);
  model.add_column(1.0, {{r0, 1.0}});
  model.add_column(2.0, {{r0, 1.0}, {r1, 1.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
}

TEST(Simplex, NegativeRhsHandled) {
  // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, -2.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 5.0);
  model.add_column(1.0, {{r0, -1.0}, {r1, 1.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 2.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 1.0);
  const int r1 = model.add_row(RowSense::kGreaterEqual, 2.0);
  model.add_column(1.0, {{r0, 1.0}, {r1, 1.0}});
  EXPECT_EQ(solve(model).status, SolveStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 1.0);
  model.add_column(1.0, {});  // no constraint touches the column
  (void)r0;
  EXPECT_EQ(solve(model).status, SolveStatus::kUnbounded);
}

TEST(Simplex, ZeroColumnsGiveZeroObjective) {
  LinearProgram model(Objective::kMaximize);
  model.add_row(RowSense::kLessEqual, 1.0);
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(solution.objective, 0.0);
}

TEST(Simplex, EqualityWithZeroColumnsInfeasible) {
  LinearProgram model(Objective::kMaximize);
  model.add_row(RowSense::kEqual, 1.0);
  EXPECT_EQ(solve(model).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LinearProgram model(Objective::kMaximize);
  std::vector<int> rows;
  for (int i = 0; i < 12; ++i) rows.push_back(model.add_row(RowSense::kLessEqual, 1.0));
  std::vector<ColumnEntry> entries;
  for (int r : rows) entries.push_back({r, 1.0});
  model.add_column(1.0, entries);
  model.add_column(1.0, entries);
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.0, 1e-9);
}

TEST(Simplex, StrongDualityOnSimpleProblem) {
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 4.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 6.0);
  model.add_column(3.0, {{r0, 1.0}, {r1, 1.0}});
  model.add_column(2.0, {{r0, 1.0}, {r1, 3.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  const double dual_value =
      solution.duals[0] * 4.0 + solution.duals[1] * 6.0;
  EXPECT_NEAR(dual_value, solution.objective, 1e-8);
  EXPECT_GE(solution.duals[0], -1e-9);
  EXPECT_GE(solution.duals[1], -1e-9);
}

/// Certificate check for a random packing LP: feasibility, dual
/// feasibility, strong duality.
class RandomPackingLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomPackingLp, OptimalityCertificate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t rows = 3 + rng.uniform_int(10);
  const std::size_t cols = 3 + rng.uniform_int(20);
  LinearProgram model(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) {
    model.add_row(RowSense::kLessEqual, rng.uniform(1.0, 10.0));
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<ColumnEntry> entries;
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.4)) {
        entries.push_back({static_cast<int>(r), rng.uniform(0.1, 2.0)});
      }
    }
    if (entries.empty()) {  // an unconstrained column would be unbounded
      entries.push_back({static_cast<int>(rng.uniform_int(rows)),
                         rng.uniform(0.1, 2.0)});
    }
    model.add_column(rng.uniform(0.5, 5.0), entries);
  }
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);

  // Primal feasibility.
  EXPECT_LE(model.max_violation(solution.x), 1e-7);
  // Dual feasibility: c_j - y^T A_j <= tol for every column, y >= 0.
  for (std::size_t r = 0; r < rows; ++r) EXPECT_GE(solution.duals[r], -1e-8);
  for (std::size_t c = 0; c < cols; ++c) {
    double rc = model.cost(c);
    for (const auto& entry : model.column(c)) {
      rc -= solution.duals[static_cast<std::size_t>(entry.row)] * entry.coeff;
    }
    EXPECT_LE(rc, 1e-7) << "column " << c;
  }
  // Strong duality.
  double dual_value = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    dual_value += solution.duals[r] * model.rhs(r);
  }
  EXPECT_NEAR(dual_value, solution.objective,
              1e-6 * (1.0 + std::abs(solution.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPackingLp, ::testing::Range(0, 25));

TEST(Simplex, IncrementalColumnAdditionMatchesScratchSolve) {
  Rng rng(99);
  LinearProgram model(Objective::kMaximize);
  for (int r = 0; r < 6; ++r) model.add_row(RowSense::kLessEqual, 5.0);
  for (int c = 0; c < 4; ++c) {
    std::vector<ColumnEntry> entries;
    for (int r = 0; r < 6; ++r) {
      if (rng.bernoulli(0.5)) entries.push_back({r, rng.uniform(0.2, 1.5)});
    }
    model.add_column(rng.uniform(1.0, 3.0), entries);
  }
  SimplexEngine engine;
  Solution first = engine.solve(model);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  // Add two more columns both ways.
  std::vector<std::pair<double, std::vector<ColumnEntry>>> extra;
  for (int c = 0; c < 2; ++c) {
    std::vector<ColumnEntry> entries;
    for (int r = 0; r < 6; ++r) {
      if (rng.bernoulli(0.5)) entries.push_back({r, rng.uniform(0.2, 1.5)});
    }
    extra.emplace_back(rng.uniform(2.0, 6.0), entries);
  }
  for (const auto& [cost, entries] : extra) {
    engine.add_column(cost, entries);
    model.add_column(cost, entries);
  }
  const Solution incremental = engine.resolve();
  const Solution scratch = solve(model);
  ASSERT_EQ(incremental.status, SolveStatus::kOptimal);
  ASSERT_EQ(scratch.status, SolveStatus::kOptimal);
  EXPECT_NEAR(incremental.objective, scratch.objective, 1e-7);
}

/// A random packing LP with a generic (unique-vertex) optimum; shared by
/// the warm-start tests below.
LinearProgram random_packing_lp(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t rows = 4 + rng.uniform_int(8);
  const std::size_t cols = 6 + rng.uniform_int(14);
  LinearProgram model(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) {
    model.add_row(RowSense::kLessEqual, rng.uniform(1.0, 10.0));
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<ColumnEntry> entries;
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.4)) {
        entries.push_back({static_cast<int>(r), rng.uniform(0.1, 2.0)});
      }
    }
    if (entries.empty()) {
      entries.push_back({static_cast<int>(rng.uniform_int(rows)),
                         rng.uniform(0.1, 2.0)});
    }
    model.add_column(rng.uniform(0.5, 5.0), entries);
  }
  return model;
}

TEST(WarmStart, ExportedBasisRoundTripsAndResolvesPivotFree) {
  const LinearProgram model = random_packing_lp(7);
  SimplexEngine cold_engine;
  const Solution cold = cold_engine.solve(model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const BasisSnapshot basis = cold_engine.export_basis();
  EXPECT_FALSE(basis.empty());
  EXPECT_EQ(basis.basic.size(), static_cast<std::size_t>(basis.rows));

  // Re-solving the SAME model from its own optimal basis needs no pivots
  // and reproduces the solution bitwise.
  SimplexEngine warm_engine;
  bool warm_used = false;
  const Solution warm = warm_engine.solve(model, basis, &warm_used);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm_used);
  EXPECT_EQ(warm.pivots, 0);
  EXPECT_EQ(warm.x, cold.x);  // bitwise, not approximately
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST(WarmStart, PerturbedObjectiveReusesBasisWithFewerPivots) {
  // The warm-start workload: same constraint matrix, perturbed objective.
  // The old basis stays primal feasible, so the warm solve re-optimizes in
  // (far) fewer pivots and lands on the identical payload.
  int strictly_fewer = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const LinearProgram base = random_packing_lp(seed);
    SimplexEngine donor;
    ASSERT_EQ(donor.solve(base).status, SolveStatus::kOptimal);
    const BasisSnapshot basis = donor.export_basis();

    Rng rng(seed ^ 0xabcdef);
    LinearProgram perturbed(Objective::kMaximize);
    for (std::size_t r = 0; r < base.num_rows(); ++r) {
      perturbed.add_row(base.row_sense(r), base.rhs(r));
    }
    for (std::size_t c = 0; c < base.num_columns(); ++c) {
      perturbed.add_column(base.cost(c) * rng.uniform(0.95, 1.05),
                           {base.column(c).begin(), base.column(c).end()});
    }

    SimplexEngine cold_engine;
    const Solution cold = cold_engine.solve(perturbed);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal);
    SimplexEngine warm_engine;
    bool warm_used = false;
    const Solution warm = warm_engine.solve(perturbed, basis, &warm_used);
    ASSERT_EQ(warm.status, SolveStatus::kOptimal);
    EXPECT_TRUE(warm_used);
    EXPECT_LE(warm.pivots, cold.pivots) << "seed " << seed;
    if (warm.pivots < cold.pivots) ++strictly_fewer;
    // Payload identity is the warm-start contract: bitwise, not "near".
    EXPECT_EQ(warm.x, cold.x) << "seed " << seed;
    EXPECT_EQ(warm.objective, cold.objective) << "seed " << seed;
  }
  EXPECT_GE(strictly_fewer, 5);  // the reuse must actually save work
}

TEST(WarmStart, ChangedRhsRepairsViaRestrictedPhase1) {
  // Shrinking an rhs can make the donor basis primal infeasible; the
  // install must repair it (restricted phase 1) and still reach the true
  // optimum -- identical to the cold solve of the modified model.
  const LinearProgram base = random_packing_lp(11);
  SimplexEngine donor;
  ASSERT_EQ(donor.solve(base).status, SolveStatus::kOptimal);
  const BasisSnapshot basis = donor.export_basis();

  LinearProgram modified(Objective::kMaximize);
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    modified.add_row(base.row_sense(r), base.rhs(r) * (r % 2 ? 0.3 : 1.0));
  }
  for (std::size_t c = 0; c < base.num_columns(); ++c) {
    modified.add_column(base.cost(c),
                        {base.column(c).begin(), base.column(c).end()});
  }

  const Solution cold = solve(modified);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  SimplexEngine warm_engine;
  const Solution warm = warm_engine.solve(modified, basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.x, cold.x);
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST(WarmStart, IncompatibleHintFallsBackToCold) {
  const LinearProgram model = random_packing_lp(3);
  SimplexEngine donor;
  ASSERT_EQ(donor.solve(random_packing_lp(20)).status, SolveStatus::kOptimal);
  const BasisSnapshot foreign = donor.export_basis();

  // Dimension mismatch: rejected, cold solve still optimal.
  SimplexEngine engine;
  bool warm_used = true;
  const Solution fallback = engine.solve(model, foreign, &warm_used);
  ASSERT_EQ(fallback.status, SolveStatus::kOptimal);
  EXPECT_FALSE(warm_used);
  EXPECT_EQ(fallback.x, solve(model).x);

  // Singular basis (every position the same column): rejected the same way.
  SimplexEngine own_donor;
  ASSERT_EQ(own_donor.solve(model).status, SolveStatus::kOptimal);
  BasisSnapshot corrupt = own_donor.export_basis();
  for (BasisSnapshot::Entry& entry : corrupt.basic) {
    entry = corrupt.basic.front();
  }
  SimplexEngine engine2;
  warm_used = true;
  const Solution fallback2 = engine2.solve(model, corrupt, &warm_used);
  ASSERT_EQ(fallback2.status, SolveStatus::kOptimal);
  EXPECT_FALSE(warm_used);
  EXPECT_EQ(fallback2.x, solve(model).x);
}

/// Max |B x - b| for the basis given column by column.
double residual(const std::vector<std::vector<ColumnEntry>>& basis,
                const std::vector<double>& x, const std::vector<double>& b) {
  std::vector<double> bx(b.size(), 0.0);
  for (std::size_t p = 0; p < basis.size(); ++p) {
    for (const ColumnEntry& entry : basis[p]) {
      bx[static_cast<std::size_t>(entry.row)] += entry.coeff * x[p];
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) worst = std::max(worst, std::abs(bx[i] - b[i]));
  return worst;
}

/// Max |y^T B - c^T| for the basis given column by column.
double transposed_residual(const std::vector<std::vector<ColumnEntry>>& basis,
                           const std::vector<double>& y,
                           const std::vector<double>& c) {
  double worst = 0.0;
  for (std::size_t p = 0; p < basis.size(); ++p) {
    double value = 0.0;
    for (const ColumnEntry& entry : basis[p]) {
      value += y[static_cast<std::size_t>(entry.row)] * entry.coeff;
    }
    worst = std::max(worst, std::abs(value - c[p]));
  }
  return worst;
}

TEST(BasisFactor, SolvesThroughEtasAndKeepsFactorsWhenSingular) {
  // A slack, a column with a duplicated row entry (summed), and a dense
  // column: enough to need elimination and fill-in.
  std::vector<std::vector<ColumnEntry>> basis = {
      {{1, 1.0}},
      {{0, 2.0}, {2, 1.0}, {0, 1.0}},
      {{0, 1.0}, {1, 4.0}, {2, 5.0}}};
  std::vector<std::span<const ColumnEntry>> spans;
  for (const auto& column : basis) spans.emplace_back(column);
  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(spans));
  const std::vector<double> b = {1.0, -2.0, 0.5};
  const std::vector<double> c = {0.25, 3.0, -1.0};
  std::vector<double> x = b;
  factor.ftran(x);
  EXPECT_LE(residual(basis, x, b), 1e-12);
  std::vector<double> y = c;
  factor.btran(y);
  EXPECT_LE(transposed_residual(basis, y, c), 1e-12);

  // Replace position 0 through the eta file, then negate position 2.
  const std::vector<ColumnEntry> entering = {{0, 1.0}, {1, 1.0}, {2, -1.0}};
  std::vector<double> d = {1.0, 1.0, -1.0};
  factor.ftran(d);
  factor.replace(0, d);
  basis[0] = entering;
  factor.negate(2);
  for (ColumnEntry& entry : basis[2]) entry.coeff = -entry.coeff;
  EXPECT_EQ(factor.etas(), 2u);
  x = b;
  factor.ftran(x);
  EXPECT_LE(residual(basis, x, b), 1e-12);
  y = c;
  factor.btran(y);
  EXPECT_LE(transposed_residual(basis, y, c), 1e-12);

  // A singular basis is refused and the factors above stay usable.
  const std::vector<std::vector<ColumnEntry>> singular = {
      {{0, 1.0}, {1, 2.0}}, {{0, 2.0}, {1, 4.0}}, {{2, 1.0}}};
  std::vector<std::span<const ColumnEntry>> singular_spans;
  for (const auto& column : singular) singular_spans.emplace_back(column);
  EXPECT_FALSE(factor.factorize(singular_spans));
  EXPECT_EQ(factor.etas(), 2u);
  x = b;
  factor.ftran(x);
  EXPECT_LE(residual(basis, x, b), 1e-12);
}

TEST(Simplex, SingularRefactorizationRestartsColdUnderBland) {
  // A near-degenerate LP whose Dantzig path pivots x_C into a basis next to
  // the nearly parallel x_A: the vertex x_A = 1 makes r0 and r1 tight, x_D
  // enters there at zero, and x_C then replaces x_D on a 5e-9 pivot. The
  // basis {x_A, x_C, s2} has an LU pivot of 5e-13, below the singular
  // tolerance, so the eta-growth refactorization right after that pivot
  // fails. The engine restarts from the slack basis under Bland's rule,
  // which replaces x_A by x_C instead and reaches the optimum x_C = 2.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 1.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 1e-3);
  const int r2 = model.add_row(RowSense::kLessEqual, 10.0);
  model.add_column(1.0, {{r0, 1.0}, {r1, 1e-3}, {r2, 1.0}});    // x_A
  model.add_column(0.5 + 5e-9, {{r0, 0.5}, {r1, 5e-4 + 5e-13}});  // x_C
  model.add_column(0.05, {{r1, 1e-4}});                          // x_D

  SimplexEngine engine;
  const Solution solution = engine.solve(model);
  EXPECT_EQ(engine.restarts(), 1);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.x[1], 2.0, 1e-9);
  EXPECT_NEAR(solution.objective, 1.0 + 1e-8, 1e-12);
  const Certificate certificate = certify(model, solution);
  EXPECT_LE(certificate.primal, 1e-9);
  EXPECT_LE(certificate.dual, 1e-9);
  EXPECT_LE(certificate.gap, 1e-9);

  // The restart is deterministic, and a fresh engine never restarts on a
  // well-conditioned LP.
  SimplexEngine again;
  EXPECT_EQ(again.solve(model).x, solution.x);
  EXPECT_EQ(again.restarts(), 1);
  SimplexEngine plain;
  ASSERT_EQ(plain.solve(random_packing_lp(5)).status, SolveStatus::kOptimal);
  EXPECT_EQ(plain.restarts(), 0);
}

TEST(Certify, ReportsEachKindOfViolation) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6: x = 4, y = 0, duals (3, 0).
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 4.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 6.0);
  model.add_column(3.0, {{r0, 1.0}, {r1, 1.0}});
  model.add_column(2.0, {{r0, 1.0}, {r1, 3.0}});
  const Solution exact = solve(model);
  ASSERT_EQ(exact.status, SolveStatus::kOptimal);
  const Certificate clean = certify(model, exact);
  EXPECT_LE(clean.primal, 1e-12);
  EXPECT_LE(clean.dual, 1e-12);
  EXPECT_LE(clean.gap, 1e-12);

  Solution infeasible = exact;
  infeasible.x[1] = 1.0;  // row 0 overshoots by 1
  EXPECT_NEAR(certify(model, infeasible).primal, 1.0, 1e-12);

  Solution dual_infeasible = exact;
  dual_infeasible.duals = {1.0, 0.0};  // column 0 prices out at +2
  EXPECT_NEAR(certify(model, dual_infeasible).dual, 2.0, 1e-12);
  dual_infeasible.duals = {3.0, -0.5};  // wrong sign on a <= row
  EXPECT_NEAR(certify(model, dual_infeasible).dual, 0.5, 1e-12);

  Solution misreported = exact;
  misreported.objective += 0.25;
  EXPECT_NEAR(certify(model, misreported).gap, 0.25, 1e-12);

  // Minimization flips both sign conventions.
  LinearProgram minimize(Objective::kMinimize);
  const int g0 = minimize.add_row(RowSense::kGreaterEqual, 4.0);
  const int g1 = minimize.add_row(RowSense::kLessEqual, 3.0);
  minimize.add_column(2.0, {{g0, 1.0}, {g1, 1.0}});
  minimize.add_column(3.0, {{g0, 1.0}});
  const Solution min_solution = solve(minimize);
  ASSERT_EQ(min_solution.status, SolveStatus::kOptimal);
  const Certificate min_certificate = certify(minimize, min_solution);
  EXPECT_LE(min_certificate.primal, 1e-12);
  EXPECT_LE(min_certificate.dual, 1e-12);
  EXPECT_LE(min_certificate.gap, 1e-12);

  EXPECT_THROW((void)certify(model, Solution{}), std::invalid_argument);
}

// ------------------------------------------- certified auction LP families

/// The explicit master of solve_auction_lp: every positive-value bundle,
/// under the symmetry-breaking lift.
LinearProgram explicit_master(const AuctionInstance& instance) {
  LinearProgram master = build_master_rows(instance);
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
      const double value = instance.value(v, t);
      if (value <= 0.0) continue;
      master.add_column(lifted_value(value, v, t),
                        bundle_column(instance, static_cast<int>(v), t));
    }
  }
  return master;
}

/// The explicit master of the Section 6 LP.
LinearProgram explicit_master(const AsymmetricInstance& instance) {
  LinearProgram master = build_master_rows(instance);
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
      const double value = instance.value(v, t);
      if (value <= 0.0) continue;
      master.add_column(value,
                        asymmetric_bundle_column(instance, static_cast<int>(v), t));
    }
  }
  return master;
}

/// The Section 2.2 demand oracle of solve_auction_lp_colgen: bidder prices
/// from the channel-row duals, one demand query per bidder. \p known lists
/// the (bidder, bundle) columns already in the master and grows with every
/// proposal.
PricingOracle demand_oracle(const AuctionInstance& instance,
                            std::vector<std::pair<int, Bundle>>& known) {
  return [&instance, &known](const Solution& rmp) {
    const std::size_t n = instance.num_bidders();
    const int k = instance.num_channels();
    const auto& graph = instance.graph();
    const auto& position = instance.positions();
    std::vector<PricedColumn> columns;
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<double> prices(static_cast<std::size_t>(k), 0.0);
      for (const int u : graph.neighbors(v)) {
        const std::size_t w = static_cast<std::size_t>(u);
        if (position[w] <= position[v]) continue;
        const double wbar = graph.coupling_weight(v, w);
        for (int j = 0; j < k && wbar > 0.0; ++j) {
          prices[static_cast<std::size_t>(j)] +=
              wbar * rmp.duals[static_cast<std::size_t>(channel_row(w, j, k))];
        }
      }
      const DemandResult demand = instance.valuation(v).demand(prices);
      const std::pair<int, Bundle> key{static_cast<int>(v), demand.bundle};
      if (demand.bundle == kEmptyBundle ||
          demand.utility <= rmp.duals[n * static_cast<std::size_t>(k) + v] + 1e-7 ||
          std::find(known.begin(), known.end(), key) != known.end()) {
        continue;
      }
      known.push_back(key);
      columns.push_back({instance.value(v, demand.bundle),
                         bundle_column(instance, key.first, demand.bundle)});
    }
    return columns;
  };
}

/// Asserts optimality and a clean certificate; tolerances scale with the
/// objective (auction LP values reach the thousands).
void expect_certified(const LinearProgram& lp, const Solution& solution,
                      const std::string& what) {
  ASSERT_EQ(solution.status, SolveStatus::kOptimal) << what;
  const Certificate certificate = certify(lp, solution);
  const double scale = 1.0 + std::abs(solution.objective);
  EXPECT_LE(certificate.primal, 1e-9) << what;
  EXPECT_LE(certificate.dual, 1e-9 * scale) << what;
  EXPECT_LE(certificate.gap, 1e-9 * scale) << what;
}

struct CertifiedRuns {
  int solves = 0;
  int warm_installs = 0;
};

/// Solves every LP of \p chain cold and again warm-started from the
/// previous LP's optimal basis, certifying both.
void certify_chain(const std::vector<LinearProgram>& chain,
                   const std::string& label, CertifiedRuns& runs) {
  BasisSnapshot previous;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::string what = label + " #" + std::to_string(i);
    SimplexEngine cold_engine;
    const Solution cold = cold_engine.solve(chain[i]);
    expect_certified(chain[i], cold, what + " cold");
    ++runs.solves;
    if (!previous.empty()) {
      SimplexEngine warm_engine;
      bool warm_used = false;
      expect_certified(chain[i], warm_engine.solve(chain[i], previous, &warm_used),
                       what + " warm");
      ++runs.solves;
      runs.warm_installs += warm_used ? 1 : 0;
    }
    if (cold.status == SolveStatus::kOptimal) previous = cold_engine.export_basis();
  }
}

/// Runs the demand-oracle column generation over \p variants cold, and
/// again seeded with the previous variant's columns and terminal basis
/// (the column-pool warm start), certifying every final master.
void certify_colgen_chain(const std::vector<const AuctionInstance*>& variants,
                          const std::string& label, CertifiedRuns& runs) {
  std::vector<std::pair<int, Bundle>> previous_columns;
  BasisSnapshot previous_basis;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const AuctionInstance& instance = *variants[i];
    const std::string what = label + " colgen #" + std::to_string(i);
    std::vector<std::pair<int, Bundle>> generated;
    LinearProgram cold_master = build_master_rows(instance);
    BasisSnapshot terminal;
    const BendersResult cold = solve_with_benders(
        cold_master, demand_oracle(instance, generated), {}, {}, &terminal);
    EXPECT_TRUE(cold.proved_optimal) << what;
    expect_certified(cold_master, cold.solution, what + " cold");
    ++runs.solves;
    if (!previous_basis.empty()) {
      std::vector<std::pair<int, Bundle>> known = previous_columns;
      std::vector<PricedColumn> seeds;
      for (const auto& [v, t] : previous_columns) {
        seeds.push_back({instance.value(static_cast<std::size_t>(v), t),
                         bundle_column(instance, v, t)});
      }
      BendersOptions options;
      options.basis_hint = &previous_basis;
      LinearProgram warm_master = build_master_rows(instance);
      const BendersResult warm = solve_with_benders(
          warm_master, demand_oracle(instance, known), seeds, options);
      EXPECT_TRUE(warm.proved_optimal) << what;
      expect_certified(warm_master, warm.solution, what + " warm");
      EXPECT_NEAR(warm.solution.objective, cold.solution.objective,
                  1e-7 * (1.0 + std::abs(cold.solution.objective)))
          << what;
      ++runs.solves;
      runs.warm_installs += warm.warm_started ? 1 : 0;
    }
    previous_columns = generated;
    previous_basis = terminal;
  }
}

/// Every LP family over one chain of variants of a structure: the explicit
/// master across the variants, the column-generation master across the
/// variants (symmetric), and the fractional-VCG LPs of the first variant
/// (symmetric: its master, then each bidder removed in turn).
void certify_families(const std::vector<const gen::NamedInstance*>& variants,
                      CertifiedRuns& runs) {
  const std::string label = variants.front()->label;
  std::vector<LinearProgram> masters;
  std::vector<const AuctionInstance*> symmetric;
  for (const gen::NamedInstance* named : variants) {
    std::visit([&](const auto& instance) { masters.push_back(explicit_master(instance)); },
               named->instance);
    if (const auto* instance = std::get_if<AuctionInstance>(&named->instance)) {
      symmetric.push_back(instance);
    }
  }
  certify_chain(masters, label + " explicit", runs);
  if (symmetric.empty()) return;
  certify_colgen_chain(symmetric, label, runs);
  const AuctionInstance& first = *symmetric.front();
  std::vector<LinearProgram> vcg{explicit_master(first)};
  for (std::size_t v = 0; v < first.num_bidders(); ++v) {
    vcg.push_back(explicit_master(first.without_bidder(v)));
  }
  certify_chain(vcg, label + " vcg", runs);
}

TEST(Certify, EveryAuctionLpColdAndWarm) {
  CertifiedRuns runs;

  // The mixed suite; each instance's variants churn one bidder's values,
  // the way load::ScenarioPool derives its variants.
  const std::vector<gen::NamedInstance> suite = gen::mixed_scenario_suite(12, 3, 7);
  Rng rng(41);
  for (const gen::NamedInstance& base : suite) {
    std::vector<gen::NamedInstance> owned{base};
    for (int variant = 1; variant <= 2; ++variant) {
      owned.push_back(std::visit(
          [&](const auto& instance) -> gen::NamedInstance {
            const std::size_t bidder = rng.uniform_int(instance.num_bidders());
            auto valuation = gen::random_valuations(1, instance.num_channels(),
                                                    gen::ValuationMix::kMixed,
                                                    100, rng)
                                 .front();
            return {base.label, instance.with_valuation(bidder, std::move(valuation))};
          },
          base.instance));
    }
    std::vector<const gen::NamedInstance*> variants;
    for (const gen::NamedInstance& named : owned) variants.push_back(&named);
    certify_families(variants, runs);
  }

  // A load::ScenarioPool sample: one scenario per family, four variants.
  load::TraceSpec spec;
  spec.seed = 23;
  spec.pool_size = 5;
  spec.bidders = 14;
  spec.channels = 3;
  load::ScenarioPool pool(spec);
  for (std::uint32_t scenario = 0; scenario < pool.size(); ++scenario) {
    std::vector<const gen::NamedInstance*> variants;
    for (std::uint32_t variant = 0; variant < 4; ++variant) {
      variants.push_back(&pool.instance(scenario, variant));
    }
    certify_families(variants, runs);
  }

  EXPECT_GE(runs.solves, 200);
  EXPECT_GE(runs.warm_installs, 20);  // the warm path really ran
}

TEST(ColumnGeneration, ReachesFullModelOptimum) {
  // Full model: 8 columns over 4 rows; the oracle reveals columns lazily.
  Rng rng(123);
  const std::size_t rows = 4, cols = 8;
  std::vector<double> rhs(rows);
  for (auto& b : rhs) b = rng.uniform(2.0, 6.0);
  std::vector<double> costs(cols);
  std::vector<std::vector<ColumnEntry>> entries(cols);
  LinearProgram full(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) full.add_row(RowSense::kLessEqual, rhs[r]);
  for (std::size_t c = 0; c < cols; ++c) {
    costs[c] = rng.uniform(1.0, 4.0);
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.6)) {
        entries[c].push_back({static_cast<int>(r), rng.uniform(0.2, 1.0)});
      }
    }
    full.add_column(costs[c], entries[c]);
  }
  const double full_optimum = solve(full).objective;

  LinearProgram master(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) {
    master.add_row(RowSense::kLessEqual, rhs[r]);
  }
  std::vector<bool> added(cols, false);
  const PricingOracle oracle =
      [&](const Solution& rmp) -> std::vector<PricedColumn> {
    // Return the best positive-reduced-cost column not yet added.
    int best = -1;
    double best_rc = 1e-7;
    for (std::size_t c = 0; c < cols; ++c) {
      if (added[c]) continue;
      double rc = costs[c];
      for (const auto& entry : entries[c]) {
        rc -= rmp.duals[static_cast<std::size_t>(entry.row)] * entry.coeff;
      }
      if (rc > best_rc) {
        best_rc = rc;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) return {};
    added[static_cast<std::size_t>(best)] = true;
    return {PricedColumn{costs[static_cast<std::size_t>(best)],
                         entries[static_cast<std::size_t>(best)]}};
  };
  const BendersResult result = solve_with_benders(master, oracle);
  EXPECT_TRUE(result.proved_optimal);
  EXPECT_NEAR(result.solution.objective, full_optimum, 1e-7);
}

TEST(LpModel, ValidatesInput) {
  LinearProgram model(Objective::kMaximize);
  model.add_row(RowSense::kLessEqual, 1.0);
  EXPECT_THROW(model.add_column(1.0, {{5, 1.0}}), std::out_of_range);
  model.add_column(1.0, {{0, 0.5}, {0, 0.25}});  // duplicates merged
  EXPECT_EQ(model.column(0).size(), 1u);
  EXPECT_DOUBLE_EQ(model.column(0)[0].coeff, 0.75);
}

TEST(LpModel, MaxViolationMeasuresAllSenses) {
  LinearProgram model(Objective::kMaximize);
  const int le = model.add_row(RowSense::kLessEqual, 1.0);
  const int ge = model.add_row(RowSense::kGreaterEqual, 1.0);
  const int eq = model.add_row(RowSense::kEqual, 1.0);
  model.add_column(0.0, {{le, 1.0}, {ge, 1.0}, {eq, 1.0}});
  EXPECT_NEAR(model.max_violation(std::vector<double>{2.0}), 1.0, 1e-12);
  EXPECT_NEAR(model.max_violation(std::vector<double>{1.0}), 0.0, 1e-12);
  EXPECT_NEAR(model.max_violation(std::vector<double>{0.5}), 0.5, 1e-12);
}

}  // namespace
}  // namespace ssa::lp
