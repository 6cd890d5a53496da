#include "support/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace ssa {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: size");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row_ptr[c] * x[c];
    y[r] = acc;
  }
  return y;
}

bool solve_linear_system(Matrix a, std::vector<double> b,
                         std::vector<double>& x) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_linear_system: dimension mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) * inv;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  x.assign(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return true;
}

double spectral_radius(const Matrix& a, int iterations) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("spectral_radius: non-square");
  if (n == 0) return 0.0;
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> w = a.multiply(v);
    double norm = 0.0;
    for (double value : w) norm = std::max(norm, std::abs(value));
    if (norm < 1e-300) return 0.0;  // nilpotent-ish: radius ~ 0
    lambda = norm;
    for (double& value : w) value /= norm;
    v = std::move(w);
  }
  return lambda;
}

}  // namespace ssa
