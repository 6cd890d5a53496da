#include "lp/basis_factor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace ssa::lp {

namespace {

/// Threshold pivoting: a pivot is at least this fraction of its column's
/// largest active magnitude.
constexpr double kPivotThreshold = 0.1;
/// An active column whose largest magnitude is below this is numerically
/// zero, which makes the basis singular.
constexpr double kSingularTolerance = 1e-12;
/// Markowitz search: lines examined once a candidate pivot exists.
constexpr int kSearchLimit = 4;
/// Eta-file growth rule: refactorize after this many basis changes, or
/// once the file holds more nonzeros than L and U together.
constexpr std::size_t kMaxEtas = 100;

}  // namespace

void BasisFactor::Factors::reset() {
  pivot_row.clear();
  pivot_position.clear();
  diagonal.clear();
  l_start.assign(1, 0);
  l_row.clear();
  l_value.clear();
  u_start.assign(1, 0);
  u_position.clear();
  u_value.clear();
  uc_start.clear();
  uc_row.clear();
  uc_value.clear();
}

void BasisFactor::CountBuckets::reset(std::size_t m) {
  head.assign(m + 1, -1);
  next.assign(m, -1);
  prev.assign(m, -1);
}

void BasisFactor::CountBuckets::link(int line, std::size_t count) {
  const std::size_t l = static_cast<std::size_t>(line);
  prev[l] = -1;
  next[l] = head[count];
  if (head[count] >= 0) prev[static_cast<std::size_t>(head[count])] = line;
  head[count] = line;
}

void BasisFactor::CountBuckets::unlink(int line, std::size_t count) {
  const std::size_t l = static_cast<std::size_t>(line);
  if (prev[l] >= 0) {
    next[static_cast<std::size_t>(prev[l])] = next[l];
  } else {
    head[count] = next[l];
  }
  if (next[l] >= 0) prev[static_cast<std::size_t>(next[l])] = prev[l];
}

double BasisFactor::column_max(int position) const {
  double largest = 0.0;
  for (const Cell& cell : active_column_[static_cast<std::size_t>(position)]) {
    largest = std::max(largest, std::abs(cell.value));
  }
  return largest;
}

bool BasisFactor::choose_pivot(int& row, int& position) const {
  long long best_cost = std::numeric_limits<long long>::max();
  row = -1;
  position = -1;
  const auto consider = [&](int i, int p, long long cost) {
    if (cost < best_cost ||
        (cost == best_cost && (p < position || (p == position && i < row)))) {
      best_cost = cost;
      row = i;
      position = p;
    }
  };
  int examined = 0;
  for (std::size_t count = 1; count < column_buckets_.head.size(); ++count) {
    const long long others = static_cast<long long>(count) - 1;
    // An unexamined entry at this count level costs at least others^2.
    const auto done = [&] {
      return position >= 0 &&
             (best_cost <= others * others || examined >= kSearchLimit);
    };
    for (int p = column_buckets_.head[count]; p >= 0;
         p = column_buckets_.next[static_cast<std::size_t>(p)]) {
      const double largest = column_max(p);
      if (largest < kSingularTolerance) continue;
      for (const Cell& cell : active_column_[static_cast<std::size_t>(p)]) {
        if (std::abs(cell.value) < kPivotThreshold * largest) continue;
        const long long row_others = static_cast<long long>(
            active_row_[static_cast<std::size_t>(cell.row)].size()) - 1;
        consider(cell.row, p, row_others * others);
      }
      ++examined;
      if (done()) return true;
    }
    for (int i = row_buckets_.head[count]; i >= 0;
         i = row_buckets_.next[static_cast<std::size_t>(i)]) {
      for (const int q : active_row_[static_cast<std::size_t>(i)]) {
        const auto& column = active_column_[static_cast<std::size_t>(q)];
        const double largest = column_max(q);
        if (largest < kSingularTolerance) continue;
        for (const Cell& cell : column) {
          if (cell.row != i) continue;
          if (std::abs(cell.value) >= kPivotThreshold * largest) {
            consider(i, q,
                     others * static_cast<long long>(column.size() - 1));
          }
          break;
        }
      }
      ++examined;
      if (done()) return true;
    }
    // Past this level every unexamined entry has both counts > count.
    if (position >= 0 &&
        best_cost <= static_cast<long long>(count) * static_cast<long long>(count)) {
      return true;
    }
  }
  return position >= 0;
}

void BasisFactor::eliminate(int row, int position, Factors& out) {
  const std::size_t r = static_cast<std::size_t>(row);
  const std::size_t p = static_cast<std::size_t>(position);
  double pivot = 0.0;
  for (const Cell& cell : active_column_[p]) {
    if (cell.row == row) pivot = cell.value;
  }
  out.pivot_row.push_back(row);
  out.pivot_position.push_back(position);
  out.diagonal.push_back(pivot);
  column_buckets_.unlink(position, active_column_[p].size());
  row_buckets_.unlink(row, active_row_[r].size());

  // Row k of U: the pivot row's other entries, detached from their columns.
  const std::size_t u_begin = out.u_position.size();
  for (const int q : active_row_[r]) {
    if (q == position) continue;
    auto& column = active_column_[static_cast<std::size_t>(q)];
    column_buckets_.unlink(q, column.size());
    for (std::size_t s = 0; s < column.size(); ++s) {
      if (column[s].row != row) continue;
      out.u_position.push_back(q);
      out.u_value.push_back(column[s].value);
      column[s] = column.back();
      column.pop_back();
      break;
    }
  }
  out.u_start.push_back(static_cast<int>(out.u_position.size()));

  // Column k of L: the pivot column's other rows, detached from the column.
  const std::size_t l_begin = out.l_row.size();
  for (const Cell& cell : active_column_[p]) {
    if (cell.row == row) continue;
    auto& pattern = active_row_[static_cast<std::size_t>(cell.row)];
    row_buckets_.unlink(cell.row, pattern.size());
    for (std::size_t s = 0; s < pattern.size(); ++s) {
      if (pattern[s] != position) continue;
      pattern[s] = pattern.back();
      pattern.pop_back();
      break;
    }
    out.l_row.push_back(cell.row);
    out.l_value.push_back(cell.value / pivot);
  }
  out.l_start.push_back(static_cast<int>(out.l_row.size()));
  active_column_[p].clear();
  active_row_[r].clear();

  // Schur complement: a_iq -= l_i * u_q, appending fill-in.
  const std::size_t l_end = out.l_row.size();
  if (l_begin < l_end) {
    for (std::size_t e = u_begin; e < out.u_position.size(); ++e) {
      const int q = out.u_position[e];
      const double u = out.u_value[e];
      auto& column = active_column_[static_cast<std::size_t>(q)];
      for (std::size_t s = 0; s < column.size(); ++s) {
        slot_[static_cast<std::size_t>(column[s].row)] = static_cast<int>(s);
      }
      for (std::size_t f = l_begin; f < l_end; ++f) {
        const int i = out.l_row[f];
        const double delta = out.l_value[f] * u;
        const int s = slot_[static_cast<std::size_t>(i)];
        if (s >= 0) {
          column[static_cast<std::size_t>(s)].value -= delta;
        } else {
          column.push_back({i, -delta});
          active_row_[static_cast<std::size_t>(i)].push_back(q);
        }
      }
      for (const Cell& cell : column) slot_[static_cast<std::size_t>(cell.row)] = -1;
    }
  }
  for (std::size_t e = u_begin; e < out.u_position.size(); ++e) {
    const int q = out.u_position[e];
    column_buckets_.link(q, active_column_[static_cast<std::size_t>(q)].size());
  }
  for (std::size_t f = l_begin; f < l_end; ++f) {
    const int i = out.l_row[f];
    row_buckets_.link(i, active_row_[static_cast<std::size_t>(i)].size());
  }
}

bool BasisFactor::factorize(
    std::span<const std::span<const ColumnEntry>> columns) {
  const std::size_t m = columns.size();
  active_column_.resize(m);
  active_row_.resize(m);
  slot_.assign(m, -1);
  for (std::size_t i = 0; i < m; ++i) {
    active_column_[i].clear();
    active_row_[i].clear();
  }
  for (std::size_t p = 0; p < m; ++p) {
    auto& column = active_column_[p];
    for (const ColumnEntry& entry : columns[p]) {
      if (entry.coeff == 0.0) continue;
      const std::size_t i = static_cast<std::size_t>(entry.row);
      if (slot_[i] >= 0) {
        column[static_cast<std::size_t>(slot_[i])].value += entry.coeff;
        continue;
      }
      slot_[i] = static_cast<int>(column.size());
      column.push_back({entry.row, entry.coeff});
      active_row_[i].push_back(static_cast<int>(p));
    }
    for (const Cell& cell : column) slot_[static_cast<std::size_t>(cell.row)] = -1;
  }
  column_buckets_.reset(m);
  row_buckets_.reset(m);
  // Linked in descending order so every bucket starts out ascending.
  for (std::size_t p = m; p-- > 0;) {
    column_buckets_.link(static_cast<int>(p), active_column_[p].size());
  }
  for (std::size_t i = m; i-- > 0;) {
    row_buckets_.link(static_cast<int>(i), active_row_[i].size());
  }

  next_.reset();
  for (std::size_t k = 0; k < m; ++k) {
    int row = -1;
    int position = -1;
    if (!choose_pivot(row, position)) return false;
    eliminate(row, position, next_);
  }

  // Column view of U for FTRAN's back substitution.
  std::vector<int> step_of(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    step_of[static_cast<std::size_t>(next_.pivot_position[k])] =
        static_cast<int>(k);
  }
  next_.uc_start.assign(m + 1, 0);
  for (const int q : next_.u_position) {
    ++next_.uc_start[static_cast<std::size_t>(step_of[static_cast<std::size_t>(q)]) + 1];
  }
  for (std::size_t k = 0; k < m; ++k) next_.uc_start[k + 1] += next_.uc_start[k];
  next_.uc_row.resize(next_.u_position.size());
  next_.uc_value.resize(next_.u_position.size());
  std::vector<int> fill(next_.uc_start.begin(), next_.uc_start.end() - 1);
  for (std::size_t k = 0; k < m; ++k) {
    for (int e = next_.u_start[k]; e < next_.u_start[k + 1]; ++e) {
      const std::size_t target = static_cast<std::size_t>(
          step_of[static_cast<std::size_t>(next_.u_position[static_cast<std::size_t>(e)])]);
      const std::size_t slot = static_cast<std::size_t>(fill[target]++);
      next_.uc_row[slot] = next_.pivot_row[k];
      next_.uc_value[slot] = next_.u_value[static_cast<std::size_t>(e)];
    }
  }

  std::swap(lu_, next_);
  m_ = m;
  lu_nonzeros_ = m + lu_.l_row.size() + lu_.u_position.size();
  eta_position_.clear();
  eta_start_.assign(1, 0);
  eta_index_.clear();
  eta_pivot_.clear();
  eta_value_.clear();
  return true;
}

void BasisFactor::replace(std::size_t position, std::span<const double> d) {
  eta_position_.push_back(static_cast<int>(position));
  eta_pivot_.push_back(d[position]);
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i == position || d[i] == 0.0) continue;
    eta_index_.push_back(static_cast<int>(i));
    eta_value_.push_back(d[i]);
  }
  eta_start_.push_back(static_cast<int>(eta_index_.size()));
}

void BasisFactor::negate(std::size_t position) {
  eta_position_.push_back(static_cast<int>(position));
  eta_pivot_.push_back(-1.0);
  eta_start_.push_back(static_cast<int>(eta_index_.size()));
}

bool BasisFactor::wants_refactor() const noexcept {
  return eta_position_.size() >= kMaxEtas || eta_index_.size() > lu_nonzeros_;
}

void BasisFactor::ftran(std::vector<double>& v) {
  const Factors& f = lu_;
  // L^-1, column by column in pivot order.
  for (std::size_t k = 0; k < m_; ++k) {
    const double x = v[static_cast<std::size_t>(f.pivot_row[k])];
    if (x == 0.0) continue;
    for (int e = f.l_start[k]; e < f.l_start[k + 1]; ++e) {
      v[static_cast<std::size_t>(f.l_row[static_cast<std::size_t>(e)])] -=
          f.l_value[static_cast<std::size_t>(e)] * x;
    }
  }
  // U^-1 by back substitution into position order.
  work_.assign(m_, 0.0);
  for (std::size_t k = m_; k-- > 0;) {
    const double x = v[static_cast<std::size_t>(f.pivot_row[k])] / f.diagonal[k];
    work_[static_cast<std::size_t>(f.pivot_position[k])] = x;
    if (x == 0.0) continue;
    for (int e = f.uc_start[k]; e < f.uc_start[k + 1]; ++e) {
      v[static_cast<std::size_t>(f.uc_row[static_cast<std::size_t>(e)])] -=
          f.uc_value[static_cast<std::size_t>(e)] * x;
    }
  }
  // The eta file, oldest update first.
  for (std::size_t t = 0; t < eta_position_.size(); ++t) {
    const std::size_t r = static_cast<std::size_t>(eta_position_[t]);
    const double x = work_[r] / eta_pivot_[t];
    work_[r] = x;
    if (x == 0.0) continue;
    for (int e = eta_start_[t]; e < eta_start_[t + 1]; ++e) {
      work_[static_cast<std::size_t>(eta_index_[static_cast<std::size_t>(e)])] -=
          eta_value_[static_cast<std::size_t>(e)] * x;
    }
  }
  v.swap(work_);
}

void BasisFactor::btran(std::vector<double>& v) {
  const Factors& f = lu_;
  // The eta file, newest update first.
  for (std::size_t t = eta_position_.size(); t-- > 0;) {
    const std::size_t r = static_cast<std::size_t>(eta_position_[t]);
    double x = v[r];
    for (int e = eta_start_[t]; e < eta_start_[t + 1]; ++e) {
      x -= eta_value_[static_cast<std::size_t>(e)] *
           v[static_cast<std::size_t>(eta_index_[static_cast<std::size_t>(e)])];
    }
    v[r] = x / eta_pivot_[t];
  }
  // U^-T by forward substitution into row order.
  work_.assign(m_, 0.0);
  for (std::size_t k = 0; k < m_; ++k) {
    const double z = v[static_cast<std::size_t>(f.pivot_position[k])] / f.diagonal[k];
    work_[static_cast<std::size_t>(f.pivot_row[k])] = z;
    if (z == 0.0) continue;
    for (int e = f.u_start[k]; e < f.u_start[k + 1]; ++e) {
      v[static_cast<std::size_t>(f.u_position[static_cast<std::size_t>(e)])] -=
          f.u_value[static_cast<std::size_t>(e)] * z;
    }
  }
  // L^-T, last pivot first.
  for (std::size_t k = m_; k-- > 0;) {
    double y = work_[static_cast<std::size_t>(f.pivot_row[k])];
    for (int e = f.l_start[k]; e < f.l_start[k + 1]; ++e) {
      y -= f.l_value[static_cast<std::size_t>(e)] *
           work_[static_cast<std::size_t>(f.l_row[static_cast<std::size_t>(e)])];
    }
    work_[static_cast<std::size_t>(f.pivot_row[k])] = y;
  }
  v.swap(work_);
}

}  // namespace ssa::lp
