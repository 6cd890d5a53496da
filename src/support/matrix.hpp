#pragma once
/// \file matrix.hpp
/// Small dense linear-algebra kernels for the SINR power-control substrate:
/// row-major matrices, Gaussian elimination with partial pivoting, and the
/// power method for spectral radii of non-negative matrices
/// (Perron-Frobenius).

#include <cstddef>
#include <span>
#include <vector>

namespace ssa {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// y = A * x. Requires x.size() == cols().
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Returns false when A is (numerically) singular.
[[nodiscard]] bool solve_linear_system(Matrix a, std::vector<double> b,
                                       std::vector<double>& x);

/// Spectral radius of a non-negative square matrix by the power method.
/// For the (irreducible) gain matrices in SINR feasibility the iteration
/// converges to the Perron root; \p iterations bounds the work.
[[nodiscard]] double spectral_radius(const Matrix& a, int iterations = 200);

}  // namespace ssa
