#pragma once
/// \file batch.hpp
/// Batch execution over the unified Solver API: a set of (instance, solver)
/// jobs -- mixing symmetric AuctionInstances and Section-6
/// AsymmetricInstances freely -- is run concurrently through the shared
/// SolveScheduler worker pool (api/scheduler.hpp, the same deadline-aware
/// core the long-lived AuctionService shards run on) and the resulting
/// SolveReports are aggregated into one comparison table. Jobs with a
/// time budget are started in deadline order (tightest budget first);
/// ordering never changes reports[i], and batch jobs are never rejected
/// or degraded by admission. A job pairing a solver with
/// the wrong instance type renders as a per-row error, not a batch abort.
/// This replaces the hand-rolled "call every algorithm, collect a row"
/// loops every bench and example used to carry.

#include <span>
#include <string>
#include <vector>

#include "api/any_instance.hpp"
#include "api/solver.hpp"
#include "support/table.hpp"

namespace ssa {

/// One unit of work: solve \p instance with the registry solver \p solver.
/// \p instance is a non-owning view (over either instance type) and the
/// viewed object must outlive solve_batch.
struct BatchJob {
  std::string solver;
  AnyInstance instance = {};
  std::string instance_label;  ///< row label in the comparison table
  SolveOptions options = {};
};

struct BatchOptions {
  /// Worker count for the batch scheduler: <= 0 = hardware concurrency,
  /// 1 = strictly serial (no worker threads spawned), > 1 = that many
  /// queue workers; never more workers than jobs. Reports are identical
  /// for any value: job i always produces reports[i].
  int threads = 0;
};

/// Aggregated outcome of a batch run. reports[i] belongs to jobs[i]; a job
/// whose solver threw has reports[i].error set (and zero welfare) instead
/// of aborting the batch.
struct BatchResult {
  std::vector<std::string> labels;  ///< instance label per report
  std::vector<SolveReport> reports;

  /// Report of (instance_label, solver), or nullptr when absent/failed.
  [[nodiscard]] const SolveReport* find(const std::string& label,
                                        const std::string& solver) const;

  /// Comparison table: one row per job with the common diagnostics block.
  [[nodiscard]] Table table(int precision = 2) const;
};

/// Runs all jobs (concurrently unless options.threads == 1) and collects
/// their reports in job order. Deterministic for fixed job options
/// regardless of thread count.
[[nodiscard]] BatchResult solve_batch(std::span<const BatchJob> jobs,
                                      const BatchOptions& options = {});

/// Convenience: the cross product of labelled instances and solver names,
/// all sharing \p options.
struct LabelledInstance {
  std::string label;
  AnyInstance instance = {};
};
[[nodiscard]] std::vector<BatchJob> cross_jobs(
    std::span<const LabelledInstance> instances,
    std::span<const std::string> solvers, const SolveOptions& options = {});

}  // namespace ssa
