#include "api/batch.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "api/registry.hpp"
#include "api/scheduler.hpp"
#include "support/deadline.hpp"

namespace ssa {

const SolveReport* BatchResult::find(const std::string& label,
                                     const std::string& solver) const {
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (labels[i] == label && reports[i].solver == solver &&
        reports[i].error.empty()) {
      return &reports[i];
    }
  }
  return nullptr;
}

Table BatchResult::table(int precision) const {
  Table table({"instance", "solver", "welfare", "feasible", "guarantee",
               "LP b*", "ms", "note"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SolveReport& r = reports[i];
    if (!r.error.empty()) {
      table.add_row({labels[i], r.solver, "-", "-", "-", "-", "-", r.error});
      continue;
    }
    table.add_row({labels[i], r.solver, Table::num(r.welfare, precision),
                   r.feasible ? "yes" : "no",
                   r.guarantee > 0.0 ? Table::num(r.guarantee, precision) : "-",
                   r.lp_upper_bound ? Table::num(*r.lp_upper_bound, precision)
                                    : "-",
                   Table::num(r.wall_time_seconds * 1e3, 1),
                   r.exact ? "exact"
                   : r.timed_out ? r.params + " [timed out]"
                                 : r.params});
  }
  return table;
}

BatchResult solve_batch(std::span<const BatchJob> jobs,
                        const BatchOptions& options) {
  BatchResult result;
  result.labels.resize(jobs.size());
  result.reports.resize(jobs.size());

  const auto run_one = [&](std::size_t i, double queue_wait_seconds) {
    const BatchJob& job = jobs[i];
    SolveReport& report = result.reports[i];
    result.labels[i] = job.instance_label;
    try {
      if (job.instance.empty()) {
        throw std::invalid_argument("solve_batch: empty instance");
      }
      report = make_solver(job.solver)->solve(job.instance, job.options);
    } catch (const std::exception& e) {
      // Job-level failures (unknown solver, empty instance) degrade to a
      // per-row error in the same normalized format the solvers use.
      report = SolveReport{};
      report.solver = job.solver;
      report.solver_selected = job.solver;
      report.error = detail::normalized_solver_error(job.solver, e.what());
    }
    report.queue_wait_seconds = queue_wait_seconds;
  };

  if (options.threads == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      run_one(i, 0.0);
    }
  } else {
    // The shared scheduling core (also behind the AuctionService shard
    // pools): one worker per requested thread drains the job queue, and
    // each job's solve runs on the worker that takes it. Results never
    // depend on the thread count (job i always produces reports[i]).
    // Never spawn more workers than jobs (the scheduler is per-call, so
    // idle threads would be pure create/join overhead), but at least one.
    const unsigned requested = options.threads > 0
                                   ? static_cast<unsigned>(options.threads)
                                   : std::thread::hardware_concurrency();
    const std::size_t workers = std::max<std::size_t>(
        1, std::min<std::size_t>(requested, jobs.size()));
    SolveScheduler scheduler(static_cast<int>(workers));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Deadline-ordered execution: a job's time budget is its effective
      // deadline, so tightly-budgeted jobs start first. Pure scheduling --
      // reports[i] never depends on the execution order, and batch jobs
      // are never rejected or degraded (AdmissionPolicy::kAcceptAll). The
      // budget resolves with the same shared-vs-section precedence the
      // solvers apply (support/deadline.hpp), so a job budgeted only
      // through its pipeline section still sorts by that budget.
      (void)scheduler.submit(
          [&run_one, i](double wait) { run_one(i, wait); },
          SolveScheduler::TaskOptions{
              effective_budget(jobs[i].options.time_budget_seconds,
                               jobs[i].options.pipeline.time_budget_seconds),
              // Train the keyed cost model even though batch runs never
              // reject (kAcceptAll): a service sharing patterns with
              // batch-calibrated tests sees the same keys.
              admission_cost_key(jobs[i].solver,
                                 jobs[i].instance.empty()
                                     ? 0
                                     : jobs[i].instance.num_bidders())});
    }
    scheduler.drain();
  }
  return result;
}

std::vector<BatchJob> cross_jobs(std::span<const LabelledInstance> instances,
                                 std::span<const std::string> solvers,
                                 const SolveOptions& options) {
  std::vector<BatchJob> jobs;
  jobs.reserve(instances.size() * solvers.size());
  for (const LabelledInstance& instance : instances) {
    for (const std::string& solver : solvers) {
      jobs.push_back(
          BatchJob{solver, instance.instance, instance.label, options});
    }
  }
  return jobs;
}

}  // namespace ssa
