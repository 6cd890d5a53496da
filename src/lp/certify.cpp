#include "lp/certify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssa::lp {

Certificate certify(const LinearProgram& lp, const Solution& solution) {
  if (solution.x.size() != lp.num_columns() ||
      solution.duals.size() != lp.num_rows()) {
    throw std::invalid_argument("certify: solution does not match the LP");
  }
  // +1 when maximizing: reduced costs must be <= 0 and a <= row's dual
  // >= 0; minimizing flips both.
  const double sense = lp.objective() == Objective::kMaximize ? 1.0 : -1.0;
  Certificate certificate;
  certificate.primal = lp.max_violation(solution.x);

  double primal_value = 0.0;
  for (std::size_t j = 0; j < lp.num_columns(); ++j) {
    double reduced = lp.cost(j);
    for (const ColumnEntry& entry : lp.column(j)) {
      reduced -= solution.duals[static_cast<std::size_t>(entry.row)] * entry.coeff;
    }
    certificate.dual = std::max(certificate.dual, sense * reduced);
    primal_value += lp.cost(j) * solution.x[j];
  }

  double dual_value = 0.0;
  for (std::size_t i = 0; i < lp.num_rows(); ++i) {
    const double y = sense * solution.duals[i];
    switch (lp.row_sense(i)) {
      case RowSense::kLessEqual: certificate.dual = std::max(certificate.dual, -y); break;
      case RowSense::kGreaterEqual: certificate.dual = std::max(certificate.dual, y); break;
      case RowSense::kEqual: break;
    }
    dual_value += lp.rhs(i) * solution.duals[i];
  }
  certificate.gap = std::max(std::abs(primal_value - dual_value),
                             std::abs(solution.objective - primal_value));
  return certificate;
}

}  // namespace ssa::lp
