#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ssa::lp {

namespace {

/// Thrown by refactorize() when the LU finds the basis singular mid-solve;
/// the entry points answer it with restart_cold().
struct SingularBasis {};

}  // namespace

SimplexEngine::SimplexEngine(SimplexOptions options) : options_(options) {}

void SimplexEngine::load(const LinearProgram& lp) {
  original_objective_ = lp.objective();
  m_ = lp.num_rows();
  original_rows_ = m_;
  rhs_.assign(m_, 0.0);
  row_scale_.assign(m_, 1.0);
  kind_.clear();
  cost_.clear();
  start_.assign(1, 0);
  entries_.clear();
  structural_.clear();
  phase1_needed_ = false;

  // Scale rows so that b >= 0; senses flip with the scale.
  std::vector<RowSense> sense(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    double b = lp.rhs(i);
    RowSense s = lp.row_sense(i);
    if (b < 0.0) {
      b = -b;
      row_scale_[i] = -1.0;
      if (s == RowSense::kLessEqual) {
        s = RowSense::kGreaterEqual;
      } else if (s == RowSense::kGreaterEqual) {
        s = RowSense::kLessEqual;
      }
    }
    rhs_[i] = b;
    sense[i] = s;
  }

  // Structural columns (row-scaled, objective in internal max convention).
  const double obj_sign = original_objective_ == Objective::kMaximize ? 1.0 : -1.0;
  for (std::size_t j = 0; j < lp.num_columns(); ++j) {
    for (const auto& entry : lp.column(j)) {
      entries_.push_back({entry.row, entry.coeff * row_scale_[entry.row]});
    }
    structural_.push_back(close_column(ColKind::kStructural, obj_sign * lp.cost(j)));
  }

  // Slack/surplus columns and the initial basis. Rows whose slack cannot
  // start basic (>=, =) get an artificial and trigger phase 1.
  basis_.assign(m_, -1);
  row_aux_.assign(m_, -1);
  for (std::size_t i = 0; i < m_; ++i) {
    if (sense[i] == RowSense::kEqual) continue;
    const bool slack = sense[i] == RowSense::kLessEqual;
    entries_.push_back({static_cast<int>(i), slack ? 1.0 : -1.0});
    row_aux_[i] = close_column(ColKind::kSlack, 0.0);
    if (slack) basis_[i] = row_aux_[i];
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (basis_[i] != -1) continue;
    entries_.push_back({static_cast<int>(i), 1.0});
    basis_[i] = close_column(ColKind::kArtificial, 0.0);
    phase1_needed_ = true;
  }

  position_.assign(kind_.size(), -1);
  for (std::size_t i = 0; i < m_; ++i) position_[basis_[i]] = static_cast<int>(i);
  slack_basis_ = basis_;
  bland_only_ = false;
  has_solution_ = false;
}

int SimplexEngine::close_column(ColKind kind, double cost) {
  kind_.push_back(kind);
  cost_.push_back(cost);
  start_.push_back(entries_.size());
  return static_cast<int>(kind_.size()) - 1;
}

std::vector<double> SimplexEngine::phase_costs(int phase) const {
  std::vector<double> costs(kind_.size(), 0.0);
  for (std::size_t j = 0; j < kind_.size(); ++j) {
    if (phase == 1) {
      costs[j] = kind_[j] == ColKind::kArtificial ? -1.0 : 0.0;
    } else {
      costs[j] = kind_[j] == ColKind::kStructural ? cost_[j] : 0.0;
    }
  }
  return costs;
}

void SimplexEngine::ftran(int j, std::vector<double>& d) {
  d.assign(m_, 0.0);
  for (const auto& entry : column(j)) {
    d[static_cast<std::size_t>(entry.row)] += entry.coeff;
  }
  factor_.ftran(d);
}

bool SimplexEngine::factorize_basis() {
  basic_columns_.clear();
  for (std::size_t i = 0; i < m_; ++i) basic_columns_.push_back(column(basis_[i]));
  if (!factor_.factorize(basic_columns_)) return false;
  beta_ = rhs_;
  factor_.ftran(beta_);
  return true;
}

void SimplexEngine::refactorize() {
  if (!factorize_basis()) throw SingularBasis{};
}

SolveStatus SimplexEngine::iterate(int phase) {
  const std::vector<double> costs = phase_costs(phase);
  const double tol = options_.tolerance;
  int consecutive_degenerate = 0;
  bool bland = bland_only_;
  std::vector<double> y(m_, 0.0);
  std::vector<double> d(m_, 0.0);

  for (;;) {
    if (pivots_ >= options_.max_iterations) return SolveStatus::kIterationLimit;
    // Cooperative deadline: polled every 32 pivots (and on entry, so an
    // already-expired budget returns before the first BTRAN).
    if ((pivots_ & 31) == 0 && options_.deadline.expired()) {
      return SolveStatus::kTimeLimit;
    }

    // BTRAN: y = c_B B^-1.
    for (std::size_t i = 0; i < m_; ++i) y[i] = costs[basis_[i]];
    factor_.btran(y);

    // Pricing. In phase 2 artificials may not enter.
    int entering = -1;
    double best_rc = tol;
    for (std::size_t j = 0; j < kind_.size(); ++j) {
      if (position_[j] >= 0) continue;
      if (phase == 2 && kind_[j] == ColKind::kArtificial) continue;
      double rc = costs[j];
      for (std::size_t e = start_[j]; e < start_[j + 1]; ++e) {
        rc -= y[static_cast<std::size_t>(entries_[e].row)] * entries_[e].coeff;
      }
      if (rc > best_rc) {
        entering = static_cast<int>(j);
        best_rc = rc;
        if (bland) break;  // Bland: first improving index
      }
    }
    if (entering < 0) return SolveStatus::kOptimal;

    // FTRAN and ratio test.
    ftran(entering, d);
    int leaving_pos = -1;
    double theta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m_; ++i) {
      if (d[i] > tol) {
        const double ratio = std::max(beta_[i], 0.0) / d[i];
        if (ratio < theta - tol ||
            (ratio < theta + tol &&
             (leaving_pos < 0 ||
              (bland ? basis_[i] < basis_[leaving_pos]
                     : d[i] > d[leaving_pos])))) {
          theta = ratio;
          leaving_pos = static_cast<int>(i);
        }
      }
    }
    if (leaving_pos < 0) {
      // No blocking row: unbounded in phase 2; in phase 1 the objective is
      // bounded by 0 so this indicates numerical trouble -> refactor once,
      // and treat a fresh factorization that still sees a ray as singular.
      if (phase == 1) {
        if (factor_.etas() == 0) throw SingularBasis{};
        refactorize();
        continue;
      }
      return SolveStatus::kUnbounded;
    }

    // Pivot.
    const int leaving_col = basis_[leaving_pos];
    const std::size_t r = static_cast<std::size_t>(leaving_pos);

    // Update basic values.
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == r) continue;
      beta_[i] -= theta * d[i];
      if (beta_[i] < 0.0 && beta_[i] > -1e-7) beta_[i] = 0.0;
    }
    beta_[r] = theta;

    factor_.replace(r, d);
    position_[leaving_col] = -1;
    position_[entering] = leaving_pos;
    basis_[leaving_pos] = entering;
    ++pivots_;

    if (theta <= tol) {
      if (++consecutive_degenerate >= options_.bland_after_stalls) bland = true;
    } else {
      consecutive_degenerate = 0;
      bland = bland_only_;
    }

    if (factor_.wants_refactor()) refactorize();
  }
}

void SimplexEngine::polish_vertex(std::vector<double>& x) const {
  constexpr double kSupportTol = 1e-9;  // x above this is "positive"
  constexpr double kActiveTol = 1e-9;   // slack below this is "tight"
  constexpr double kPivotTol = 1e-11;   // elimination rank threshold
  constexpr double kAgreeTol = 1e-6;    // max drift from the basis values

  std::vector<std::size_t> support;
  for (std::size_t s = 0; s < structural_.size(); ++s) {
    if (x[s] > kSupportTol) support.push_back(s);
  }
  if (support.empty()) return;  // the all-zero vertex is already canonical

  // Active rows: equality rows always, inequality rows whose slack/surplus
  // sits at (numerical) zero. At a unique optimal vertex this set does not
  // depend on which optimal basis the pivot path terminated in.
  std::vector<std::size_t> active;
  std::vector<int> row_of(m_, -1);
  for (std::size_t i = 0; i < m_; ++i) {
    double slack = 0.0;
    if (row_aux_[i] >= 0) {
      const int pos = position_[row_aux_[i]];
      if (pos >= 0) slack = std::max(0.0, beta_[static_cast<std::size_t>(pos)]);
    }
    if (slack <= kActiveTol) {
      row_of[i] = static_cast<int>(active.size());
      active.push_back(i);
    }
  }
  if (active.size() < support.size()) return;

  // Augmented system [A_{active,support} | b_active] in the internal row
  // scaling -- a deterministic function of the loaded LP alone. Each row
  // keeps its nonzeros sorted by column; column `cols` holds the rhs.
  // holders[c] lists the rows with an entry in column c.
  const std::size_t rows = active.size();
  const std::size_t cols = support.size();
  struct Cell {
    std::size_t col;
    double value;
  };
  std::vector<std::vector<Cell>> system(rows);
  std::vector<std::vector<std::size_t>> holders(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    for (const auto& entry : column(structural_[support[c]])) {
      const int r = row_of[static_cast<std::size_t>(entry.row)];
      if (r < 0) continue;
      auto& row = system[static_cast<std::size_t>(r)];
      if (!row.empty() && row.back().col == c) {
        row.back().value += entry.coeff;
      } else {
        row.push_back({c, entry.coeff});
        holders[c].push_back(static_cast<std::size_t>(r));
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) system[r].push_back({cols, rhs_[active[r]]});

  // Gauss-Jordan with deterministic partial pivoting (largest |pivot|,
  // earliest position on exact ties). Any rank deficiency keeps the basis
  // x. A column is never read again once eliminated, so every row drops
  // its entry there; each surviving entry sees exactly the operations of a
  // dense elimination, so the values do not depend on the sparsity.
  std::vector<std::size_t> order(rows);     // position -> row
  std::vector<std::size_t> position(rows);  // row -> position
  for (std::size_t r = 0; r < rows; ++r) order[r] = position[r] = r;
  std::vector<Cell> merged;
  for (std::size_t c = 0; c < cols; ++c) {
    std::size_t best = c;
    double best_abs = 0.0;
    for (const std::size_t row : holders[c]) {
      const std::size_t at = position[row];
      const double a = std::abs(system[row].front().value);
      if (at >= c && (a > best_abs || (a == best_abs && a > 0.0 && at < best))) {
        best_abs = a;
        best = at;
      }
    }
    if (best_abs < kPivotTol) return;
    std::swap(order[c], order[best]);
    position[order[c]] = c;
    position[order[best]] = best;
    const std::size_t pivot_row = order[c];
    auto& pivot = system[pivot_row];
    const double inv_pivot = 1.0 / pivot.front().value;
    for (Cell& cell : pivot) cell.value *= inv_pivot;
    pivot.erase(pivot.begin());
    for (const std::size_t r : holders[c]) {
      if (r == pivot_row) continue;
      auto& row = system[r];
      const double factor = row.front().value;
      if (factor == 0.0) {
        row.erase(row.begin());
        continue;
      }
      merged.clear();
      auto it = row.begin() + 1;
      for (const Cell& p : pivot) {
        while (it->col < p.col) merged.push_back(*it++);
        double current = 0.0;
        if (it->col == p.col) {
          current = (it++)->value;
        } else {
          holders[p.col].push_back(r);  // fill-in (p.col < cols here)
        }
        merged.push_back({p.col, current - factor * p.value});
      }
      row.swap(merged);
    }
  }

  // Commit only when the canonical values agree with the basis values:
  // disagreement means the support/active detection misfired (degenerate
  // tie at a tolerance boundary), where keeping the basis x is the honest
  // answer.
  std::vector<double> polished(cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    polished[c] = std::max(0.0, system[order[c]].back().value);
    if (std::abs(polished[c] - x[support[c]]) > kAgreeTol) return;
  }
  for (std::size_t c = 0; c < cols; ++c) x[support[c]] = polished[c];
}

Solution SimplexEngine::extract_solution(SolveStatus status) {
  Solution solution;
  solution.status = status;
  solution.pivots = pivots_;
  solution.x.assign(structural_.size(), 0.0);
  solution.duals.assign(original_rows_, 0.0);
  if (status == SolveStatus::kInfeasible) {
    has_solution_ = false;
    return solution;
  }

  // Canonical extraction, step 1: factorize the final basis afresh so the
  // extracted values do not depend on the eta-update history of the pivot
  // path. A factorization without etas already is one of the final basis.
  // (A numerically singular basis keeps the eta state; the polish below
  // then rejects itself through its agreement check.)
  if (status == SolveStatus::kOptimal && factor_.etas() > 0) {
    (void)factorize_basis();
  }

  for (std::size_t s = 0; s < structural_.size(); ++s) {
    const int pos = position_[structural_[s]];
    if (pos >= 0) solution.x[s] = std::max(0.0, beta_[pos]);
    // Snap basic-at-zero values so a variable that is zero at the vertex
    // extracts as exactly 0.0 whether it ended basic or non-basic.
    if (solution.x[s] < 1e-9) solution.x[s] = 0.0;
  }
  // Canonical extraction, step 2: recompute the positive support from the
  // active-row system, a basis-independent function of the LP and the
  // optimal vertex -- warm and cold pivot paths then extract bitwise-equal
  // payloads (file comment in simplex.hpp).
  if (status == SolveStatus::kOptimal) polish_vertex(solution.x);

  // Duals from phase-2 costs: y_int = c_B B^-1, mapped back to the original
  // row scaling and objective sense so that strong duality holds as stated
  // in lp_model.hpp.
  const std::vector<double> costs = phase_costs(2);
  std::vector<double> y(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) y[i] = costs[basis_[i]];
  factor_.btran(y);
  const double sign = original_objective_ == Objective::kMaximize ? 1.0 : -1.0;
  for (std::size_t i = 0; i < original_rows_; ++i) {
    solution.duals[i] = sign * y[i] * row_scale_[i];
  }

  double objective = 0.0;
  for (std::size_t s = 0; s < structural_.size(); ++s) {
    objective += cost_[structural_[s]] * solution.x[s];
  }
  solution.objective = sign * objective;
  has_solution_ = status == SolveStatus::kOptimal;
  return solution;
}

double SimplexEngine::artificial_infeasibility() const {
  double infeasibility = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (kind_[basis_[i]] == ColKind::kArtificial) {
      infeasibility += std::max(0.0, beta_[i]);
    }
  }
  return infeasibility;
}

SolveStatus SimplexEngine::run_phases() {
  if (phase1_needed_) {
    const SolveStatus phase1 = iterate(1);
    if (phase1 != SolveStatus::kOptimal) return phase1;
    if (artificial_infeasibility() > 1e-7) return SolveStatus::kInfeasible;
  }
  return iterate(2);
}

SolveStatus SimplexEngine::restart_cold() {
  ++restarts_;
  basis_ = slack_basis_;
  std::fill(position_.begin(), position_.end(), -1);
  phase1_needed_ = false;
  for (std::size_t i = 0; i < m_; ++i) {
    position_[basis_[i]] = static_cast<int>(i);
    if (kind_[basis_[i]] == ColKind::kArtificial) phase1_needed_ = true;
  }
  bland_only_ = true;
  try {
    refactorize();  // the slack basis, a unit matrix
    return run_phases();
  } catch (const SingularBasis&) {
    throw std::runtime_error(
        "simplex: singular basis after a cold restart under Bland's rule");
  }
}

Solution SimplexEngine::solve_loaded() {
  try {
    refactorize();  // the slack basis, a unit matrix
    return extract_solution(run_phases());
  } catch (const SingularBasis&) {
    return extract_solution(restart_cold());
  }
}

Solution SimplexEngine::solve(const LinearProgram& lp) {
  load(lp);
  return solve_loaded();
}

Solution SimplexEngine::solve(const LinearProgram& lp,
                              const BasisSnapshot& hint, bool* warm_used) {
  if (warm_used) *warm_used = false;
  load(lp);
  if (!try_install(hint)) {
    load(lp);  // try_install may have half-mutated the basis state
    return solve_loaded();
  }
  try {
    if (phase1_needed_) {
      // Restricted phase 1: only the repair artificials installed at the
      // violated positions carry phase-1 cost, so the drive-out touches the
      // infeasible part of the basis and leaves the rest in place.
      const SolveStatus phase1 = iterate(1);
      if (phase1 == SolveStatus::kIterationLimit ||
          phase1 == SolveStatus::kTimeLimit) {
        return extract_solution(phase1);
      }
      if (phase1 != SolveStatus::kOptimal || artificial_infeasibility() > 1e-7) {
        // The repair could not reach feasibility from this hint; the LP may
        // still be feasible from scratch, so the fallback owns the verdict.
        load(lp);
        return solve_loaded();
      }
    }
    const SolveStatus status = iterate(2);
    if (warm_used) *warm_used = true;
    return extract_solution(status);
  } catch (const SingularBasis&) {
    if (warm_used) *warm_used = false;  // cold from here on
    return extract_solution(restart_cold());
  }
}

bool SimplexEngine::try_install(const BasisSnapshot& hint) {
  if (hint.rows != m_ || hint.basic.size() != m_ ||
      hint.structurals != structural_.size() || m_ == 0) {
    return false;
  }

  // Resolve snapshot entries to internal columns; artificial entries are
  // materialized on demand (an exported optimal basis can carry them at
  // zero, e.g. on equality rows).
  std::vector<int> desired(m_, -1);
  for (std::size_t i = 0; i < m_; ++i) {
    const BasisSnapshot::Entry& entry = hint.basic[i];
    switch (entry.kind) {
      case BasisSnapshot::Kind::kStructural:
        if (entry.index < 0 ||
            entry.index >= static_cast<std::int32_t>(structural_.size())) {
          return false;
        }
        desired[i] = structural_[static_cast<std::size_t>(entry.index)];
        break;
      case BasisSnapshot::Kind::kSlack:
        if (entry.index < 0 ||
            entry.index >= static_cast<std::int32_t>(m_) ||
            row_aux_[static_cast<std::size_t>(entry.index)] < 0) {
          return false;
        }
        desired[i] = row_aux_[static_cast<std::size_t>(entry.index)];
        break;
      case BasisSnapshot::Kind::kArtificial: {
        if (entry.index < 0 || entry.index >= static_cast<std::int32_t>(m_)) {
          return false;
        }
        entries_.push_back({entry.index, 1.0});
        desired[i] = close_column(ColKind::kArtificial, 0.0);
        position_.push_back(-1);
        break;
      }
      default:
        return false;
    }
  }
  std::vector<char> used(kind_.size(), 0);
  for (const int col : desired) {
    if (used[static_cast<std::size_t>(col)]) return false;  // duplicate
    used[static_cast<std::size_t>(col)] = 1;
  }

  // Factorize the candidate basis; singular means the donor's basis does
  // not span this LP's row space.
  basis_ = desired;
  std::fill(position_.begin(), position_.end(), -1);
  for (std::size_t i = 0; i < m_; ++i) {
    position_[basis_[i]] = static_cast<int>(i);
  }
  if (!factorize_basis()) return false;

  // Feasibility repair restricted to the violated positions: swap the
  // basic column at a negative position for its own negation, kept as an
  // artificial. B' = B D with D = diag(1,..,-1,..,1), one sign-flip eta per
  // repaired position, so the basic value flips positive; phase 1 then
  // drives exactly these artificials out.
  phase1_needed_ = false;
  for (std::size_t i = 0; i < m_; ++i) {
    if (beta_[i] >= -options_.tolerance) {
      if (beta_[i] < 0.0) beta_[i] = 0.0;
      if (kind_[basis_[i]] == ColKind::kArtificial &&
          beta_[i] > options_.tolerance) {
        phase1_needed_ = true;  // installed artificial at a positive value
      }
      continue;
    }
    const std::size_t source = static_cast<std::size_t>(basis_[i]);
    for (std::size_t e = start_[source]; e < start_[source + 1]; ++e) {
      entries_.push_back({entries_[e].row, -entries_[e].coeff});
    }
    const int col = close_column(ColKind::kArtificial, 0.0);
    position_.push_back(-1);
    position_[basis_[i]] = -1;
    basis_[i] = col;
    position_[col] = static_cast<int>(i);
    factor_.negate(i);
    beta_[i] = -beta_[i];
    phase1_needed_ = true;
  }
  return true;
}

BasisSnapshot SimplexEngine::export_basis() const {
  if (!has_solution_) {
    throw std::logic_error("SimplexEngine::export_basis: no prior optimal solve");
  }
  BasisSnapshot snapshot;
  snapshot.rows = static_cast<std::uint32_t>(m_);
  snapshot.structurals = static_cast<std::uint32_t>(structural_.size());
  snapshot.basic.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    const int col = basis_[i];
    BasisSnapshot::Entry entry;
    switch (kind_[col]) {
      case ColKind::kStructural: {
        const auto it =
            std::lower_bound(structural_.begin(), structural_.end(), col);
        entry.kind = BasisSnapshot::Kind::kStructural;
        entry.index = static_cast<std::int32_t>(it - structural_.begin());
        break;
      }
      case ColKind::kSlack:
        entry.kind = BasisSnapshot::Kind::kSlack;
        entry.index = column(col).front().row;
        break;
      case ColKind::kArtificial:
        // Repair artificials span several rows; the canonical stand-in is
        // the unit artificial of the position they occupy (install
        // re-validates and re-repairs anyway).
        entry.kind = BasisSnapshot::Kind::kArtificial;
        entry.index = static_cast<std::int32_t>(i);
        break;
    }
    snapshot.basic[i] = entry;
  }
  return snapshot;
}

int SimplexEngine::add_column(double cost,
                              const std::vector<ColumnEntry>& entries) {
  const double obj_sign = original_objective_ == Objective::kMaximize ? 1.0 : -1.0;
  for (const auto& entry : entries) {
    if (entry.row < 0 || entry.row >= static_cast<int>(original_rows_)) {
      throw std::out_of_range("SimplexEngine::add_column: bad row");
    }
  }
  for (const auto& entry : entries) {
    entries_.push_back({entry.row, entry.coeff * row_scale_[entry.row]});
  }
  structural_.push_back(close_column(ColKind::kStructural, obj_sign * cost));
  position_.push_back(-1);
  return static_cast<int>(structural_.size()) - 1;
}

Solution SimplexEngine::resolve() {
  if (!has_solution_) {
    throw std::logic_error("SimplexEngine::resolve: no prior optimal solve");
  }
  try {
    return extract_solution(iterate(2));
  } catch (const SingularBasis&) {
    return extract_solution(restart_cold());
  }
}

Solution solve(const LinearProgram& lp, SimplexOptions options) {
  SimplexEngine engine(options);
  return engine.solve(lp);
}

}  // namespace ssa::lp
