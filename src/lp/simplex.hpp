#pragma once
/// \file simplex.hpp
/// Two-phase revised primal simplex over a sparse LU basis factorization.
///
/// Design notes
///  - All variables are non-negative; rows are <=, =, or >=. Internally the
///    problem is converted to max c x, A x = b, b >= 0 with slack/surplus
///    columns and phase-1 artificials.
///  - The basis is held as a sparse Markowitz LU factorization plus a
///    product-form eta file (lp/basis_factor.hpp), so FTRAN, BTRAN and the
///    basis update cost the nonzeros of the factors, not m^2. The engine
///    refactorizes when the eta file outgrows the LU.
///  - Dantzig pricing with an automatic switch to Bland's rule after a run
///    of degenerate pivots guarantees termination in practice.
///  - A basis that the LU finds singular mid-solve does not fail the solve:
///    the engine restarts once from the slack basis, cold and under Bland's
///    rule, and throws std::runtime_error only if that run meets a singular
///    basis too (restarts() counts the restarts).
///  - Columns can be appended after a solve and the engine resumes from the
///    current basis, which is what the column-generation loops need: adding
///    a column keeps the current basis primal feasible.
///  - An optimal basis can be exported as a BasisSnapshot and installed
///    into a later solve of a similar LP (warm start): the engine factorizes
///    the installed basis, repairs primal feasibility with a phase 1
///    restricted to the violated rows, and re-optimizes. Incompatible or
///    singular snapshots fall back to a cold solve, so a warm solve never
///    fails where a cold one would succeed.
///  - Canonical extraction: at optimality the final basis is factorized
///    afresh before the basic values and duals are read, and the positive
///    support's values are recomputed from the active-row system by a
///    deterministic elimination that depends only on the LP data and the
///    optimal vertex -- NOT on the pivot path or the final basis. Warm- and
///    cold-started solves of the same LP therefore return bitwise-identical
///    x and objective whenever the optimal vertex is unique (generic
///    instances), which is what lets the serving layer reuse bases without
///    perturbing payloads.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/basis_factor.hpp"
#include "lp/lp_model.hpp"
#include "support/deadline.hpp"

namespace ssa::lp {

/// Solver tunables. Defaults are suitable for the auction LPs in this
/// library (hundreds to a few thousand rows).
struct SimplexOptions {
  double tolerance = 1e-9;        ///< feasibility/optimality tolerance
  int max_iterations = 200000;    ///< total pivot limit
  int bland_after_stalls = 64;    ///< degenerate pivots before Bland's rule
  /// Cooperative wall-clock deadline, polled every few pivots; an expired
  /// deadline makes the solve return SolveStatus::kTimeLimit. Default:
  /// unlimited.
  Deadline deadline = {};
};

/// A compact, engine-independent description of a simplex basis: one entry
/// per row position recording which variable occupies it. Structural
/// variables are identified by their LP column index, slack/surplus and
/// artificial variables by the row they belong to, so a snapshot exported
/// from one engine can be installed into a fresh engine that loaded an LP
/// of the same shape (same row count and structural column count).
struct BasisSnapshot {
  enum class Kind : std::uint8_t {
    kStructural = 0,  ///< index = LP column
    kSlack = 1,       ///< index = owning row (slack or surplus)
    kArtificial = 2,  ///< index = owning row (basic at zero at export time)
  };
  struct Entry {
    Kind kind = Kind::kSlack;
    std::int32_t index = 0;
  };
  std::uint32_t rows = 0;         ///< row count of the donor LP
  std::uint32_t structurals = 0;  ///< structural column count of the donor LP
  std::vector<Entry> basic;       ///< one entry per basis position

  [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
};

/// Stateful simplex engine supporting incremental column addition.
class SimplexEngine {
 public:
  explicit SimplexEngine(SimplexOptions options = {});

  /// Loads and solves \p lp from scratch.
  Solution solve(const LinearProgram& lp);

  /// Loads \p lp and warm-starts from \p hint: installs the snapshot's
  /// basis, repairs primal feasibility (phase 1 restricted to the violated
  /// positions), and re-optimizes. Falls back to a cold solve -- reported
  /// through \p warm_used, when given -- if the snapshot's dimensions do
  /// not match the LP, the basis matrix is singular, or the repair cannot
  /// reach feasibility. The returned payload is identical to the cold
  /// solve's whenever the optimal vertex is unique (see the file comment).
  Solution solve(const LinearProgram& lp, const BasisSnapshot& hint,
                 bool* warm_used = nullptr);

  /// Exports the current basis after an optimal solve()/resolve(). Throws
  /// std::logic_error without a prior optimal solve.
  [[nodiscard]] BasisSnapshot export_basis() const;

  /// Appends a structural column (same semantics as LinearProgram::
  /// add_column) and returns its index. Call resolve() afterwards.
  int add_column(double cost, const std::vector<ColumnEntry>& entries);

  /// Re-optimizes after add_column calls, warm-starting from the current
  /// basis. Requires a previous successful solve().
  Solution resolve();

  /// Number of simplex pivots performed over the lifetime of the engine.
  [[nodiscard]] long long pivots() const noexcept { return pivots_; }

  /// Number of cold restarts from the slack basis after the LU found the
  /// basis singular mid-solve, over the lifetime of the engine.
  [[nodiscard]] long long restarts() const noexcept { return restarts_; }

 private:
  enum class ColKind { kStructural, kSlack, kArtificial };

  void load(const LinearProgram& lp);
  /// Closes the internal column whose entries were just appended to
  /// entries_; returns its index.
  int close_column(ColKind kind, double cost);
  [[nodiscard]] std::span<const ColumnEntry> column(int j) const {
    return {entries_.data() + start_[static_cast<std::size_t>(j)],
            entries_.data() + start_[static_cast<std::size_t>(j) + 1]};
  }
  [[nodiscard]] std::vector<double> phase_costs(int phase) const;
  /// Runs primal simplex pivots for the given phase. Returns status.
  SolveStatus iterate(int phase);
  /// Factorizes the current basis and recomputes beta_ from it; false (state
  /// unchanged) when the LU finds the basis singular.
  [[nodiscard]] bool factorize_basis();
  /// factorize_basis() for mid-solve use: a singular basis throws the
  /// internal signal that restart_cold() answers.
  void refactorize();
  /// d := B^-1 a_j for internal column \p j (position-indexed).
  void ftran(int j, std::vector<double>& d);
  Solution extract_solution(SolveStatus status);
  /// Phase 1 (when artificials carry cost), then phase 2, from the current
  /// basis.
  SolveStatus run_phases();
  /// The singular-basis contract: restarts once from the slack basis,
  /// cold and under Bland's rule; a second singular basis throws
  /// std::runtime_error.
  SolveStatus restart_cold();
  /// Sum of the basic artificial values (phase-1 infeasibility).
  [[nodiscard]] double artificial_infeasibility() const;
  /// Cold solve of the already-loaded problem (phase 1 if needed, phase 2).
  Solution solve_loaded();
  /// Installs \p hint as the starting basis of the loaded problem,
  /// factorizing it and repairing infeasible positions with restricted
  /// artificials. False when the snapshot is incompatible or its basis
  /// matrix is singular (engine state is then unspecified; callers reload
  /// and solve cold).
  [[nodiscard]] bool try_install(const BasisSnapshot& hint);
  /// Deterministic recomputation of the optimal x from the active-row
  /// system; basis-independent (see the file comment). Requires an optimal
  /// basis; leaves \p x untouched when the polish system is unusable.
  void polish_vertex(std::vector<double>& x) const;

  SimplexOptions options_;

  // Problem data in internal form.
  Objective original_objective_ = Objective::kMaximize;
  std::size_t m_ = 0;                       // rows
  std::vector<double> rhs_;                 // b >= 0
  std::vector<double> row_scale_;           // +-1 applied to original rows
  // Internal columns (structural, then slack, artificial), stored flat:
  // column j holds entries_[start_[j], start_[j + 1]), row-scaled.
  std::vector<ColKind> kind_;
  std::vector<double> cost_;                // phase-2 objective (internal max)
  std::vector<std::size_t> start_;
  std::vector<ColumnEntry> entries_;
  std::vector<int> structural_;             // indices of structural columns
  std::vector<int> row_aux_;                // slack/surplus column per row, -1 if none
  std::vector<int> slack_basis_;            // the basis load() starts from
  std::size_t original_rows_ = 0;

  // Basis state.
  std::vector<int> basis_;      // column index per row
  std::vector<int> position_;   // row position per column, -1 if non-basic
  BasisFactor factor_;
  std::vector<double> beta_;    // basic variable values
  long long pivots_ = 0;
  long long restarts_ = 0;
  bool has_solution_ = false;
  bool phase1_needed_ = false;
  bool bland_only_ = false;     // set by restart_cold() until the next load()
  std::vector<std::span<const ColumnEntry>> basic_columns_;  // factorize scratch
};

/// One-shot convenience wrapper.
[[nodiscard]] Solution solve(const LinearProgram& lp, SimplexOptions options = {});

}  // namespace ssa::lp
