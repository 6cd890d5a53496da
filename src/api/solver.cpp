#include "api/solver.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>

namespace ssa {

namespace detail {

std::string normalized_solver_error(const std::string& solver,
                                    const std::string& reason) {
  const std::string prefix = solver + ": ";
  if (reason.rfind(prefix, 0) == 0) return reason;
  return prefix + reason;
}

}  // namespace detail

SolveReport Solver::solve(const AnyInstance& instance,
                          const SolveOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  SolveReport report;
  try {
    report = solve_impl(instance, options);
    if (report.allocation.bundles.empty()) {
      report.allocation.bundles.assign(instance.num_bidders(), kEmptyBundle);
    }
    report.welfare = instance.welfare(report.allocation);
    report.feasible = instance.feasible(report.allocation);
  } catch (const std::exception& e) {
    // Domain mismatches (wrong instance type, k out of range, weighted
    // graph, bad options) surface as a structured error, not an exception:
    // mixed-type batches keep running and tables render the reason. The
    // message is normalized to "<solver-key>: <reason>" -- the service
    // fallback chains and operators key off that format.
    report = SolveReport{};
    report.error = detail::normalized_solver_error(name(), e.what());
    if (!instance.empty()) {
      report.allocation.bundles.assign(instance.num_bidders(), kEmptyBundle);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  report.solver = name();
  report.solver_selected = name();
  report.wall_time_seconds =
      std::chrono::duration<double>(stop - start).count();
  return report;
}

SolveReport SymmetricSolver::solve_impl(const AnyInstance& instance,
                                        const SolveOptions& options) const {
  if (!instance.is_symmetric()) {
    // Same "<solver-key>: <reason>" shape as the asymmetric base below:
    // domain-mismatch errors of the two families must never diverge (the
    // selection policy's fallback logic parses them).
    throw std::invalid_argument(name() +
                                ": expected a symmetric AuctionInstance, got " +
                                instance.kind() + " instance");
  }
  return solve_symmetric(instance.symmetric(), options);
}

SolveReport AsymmetricSolver::solve_impl(const AnyInstance& instance,
                                         const SolveOptions& options) const {
  if (!instance.is_asymmetric()) {
    throw std::invalid_argument(name() +
                                ": expected an AsymmetricInstance, got " +
                                instance.kind() + " instance");
  }
  return solve_asymmetric(instance.asymmetric(), options);
}

}  // namespace ssa
