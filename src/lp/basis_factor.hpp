#pragma once
/// \file basis_factor.hpp
/// Sparse LU factorization of a simplex basis with a product-form eta file.
///
/// The basis B (m x m; column p is the basic column at basis position p) is
/// factorized by right-looking Gaussian elimination in Markowitz order:
/// each step pivots on the entry of the active submatrix that minimizes
/// (r - 1)(c - 1), r and c being its active row and column counts, among
/// entries within a threshold of their column's largest magnitude. Column
/// singletons (every slack column starts as one) and row singletons cost
/// zero and are eliminated first; equal costs break on the lower position,
/// then the lower row, so the factors are a deterministic function of the
/// basis columns in position order.
///
/// A basis change appends one eta column (B' = B E) instead of touching the
/// factors, so FTRAN and BTRAN cost the nonzeros of L, U and the eta file
/// rather than m^2. wants_refactor() is the eta-file growth rule that tells
/// the owner when a fresh factorization is cheaper than carrying the file.

#include <cstddef>
#include <span>
#include <vector>

#include "lp/lp_model.hpp"

namespace ssa::lp {

class BasisFactor {
 public:
  /// Factorizes the m x m basis whose column at position p has the entries
  /// \p columns[p] (row indices in [0, m); duplicate rows are summed) and
  /// clears the eta file. Returns false when the basis is numerically
  /// singular, leaving the previous factorization and eta file in place.
  [[nodiscard]] bool factorize(
      std::span<const std::span<const ColumnEntry>> columns);

  /// Records a basis change: the column at \p position is replaced by the
  /// column whose FTRAN (position-indexed) is \p d; d[position] != 0.
  void replace(std::size_t position, std::span<const double> d);

  /// Records the negation of the column at \p position.
  void negate(std::size_t position);

  /// v := B^-1 v. \p v is indexed by row on entry and by position on return.
  void ftran(std::vector<double>& v);

  /// v := B^-T v, i.e. the row vector v^T B^-1. \p v is indexed by
  /// position on entry and by row on return.
  void btran(std::vector<double>& v);

  /// Eta-file growth rule: true once the file holds enough updates (or
  /// nonzeros) that applying it costs more than refactorizing.
  [[nodiscard]] bool wants_refactor() const noexcept;

  /// Basis changes recorded since the last factorization.
  [[nodiscard]] std::size_t etas() const noexcept { return eta_position_.size(); }

 private:
  /// L and U in pivot order: step k pivots on row pivot_row[k] of the
  /// column at position pivot_position[k].
  struct Factors {
    std::vector<int> pivot_row;
    std::vector<int> pivot_position;
    std::vector<double> diagonal;
    /// Column k of L: the multipliers of the rows eliminated at step k.
    std::vector<int> l_start, l_row;
    std::vector<double> l_value;
    /// Row k of U without its diagonal, indexed by position.
    std::vector<int> u_start, u_position;
    std::vector<double> u_value;
    /// The same entries by column: for step k, the entries above the
    /// diagonal in position pivot_position[k], indexed by pivot row.
    std::vector<int> uc_start, uc_row;
    std::vector<double> uc_value;

    void reset();
  };
  struct Cell {
    int row;
    double value;
  };

  /// Lines (columns or rows) of the active submatrix bucketed by active
  /// count: one doubly linked list per count.
  struct CountBuckets {
    std::vector<int> head, next, prev;

    void reset(std::size_t m);
    void link(int line, std::size_t count);
    void unlink(int line, std::size_t count);
  };

  [[nodiscard]] bool choose_pivot(int& row, int& position) const;
  void eliminate(int row, int position, Factors& out);
  [[nodiscard]] double column_max(int position) const;

  std::size_t m_ = 0;
  Factors lu_;
  Factors next_;  // built here, swapped into lu_ on success
  std::size_t lu_nonzeros_ = 0;

  // Active submatrix during factorize(): values by column, pattern by row.
  std::vector<std::vector<Cell>> active_column_;
  std::vector<std::vector<int>> active_row_;
  CountBuckets column_buckets_, row_buckets_;
  std::vector<int> slot_;  // row -> index in the column being updated

  // Product-form eta file: update t replaced position eta_position_[t].
  std::vector<int> eta_position_, eta_start_, eta_index_;
  std::vector<double> eta_pivot_, eta_value_;

  std::vector<double> work_;
};

}  // namespace ssa::lp
