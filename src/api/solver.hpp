#pragma once
/// \file solver.hpp
/// The unified solving surface: every algorithm in the library -- the
/// LP+rounding pipeline, exact branch and bound, the greedy and local-ratio
/// baselines, the truthful mechanism, and the Section-6 asymmetric-channel
/// family -- is exposed as an ssa::Solver with one entry point,
///     solve(instance, options) -> SolveReport,
/// where `instance` is an AnyInstance view over either a symmetric
/// AuctionInstance or an AsymmetricInstance. Benches, examples and
/// downstream operators compare algorithms through one interface instead of
/// per-family entry points. Solvers are obtained by name from the
/// SolverRegistry (registry.hpp) and can be executed in bulk with
/// solve_batch (batch.hpp). A solver handed an instance outside its domain
/// (wrong instance type, k out of range, weighted graph, ...) reports the
/// reason in SolveReport::error -- solve() never lets a domain mismatch
/// escape as an exception.

#include <cstdint>
#include <optional>
#include <string>

#include "api/admission.hpp"
#include "api/any_instance.hpp"
#include "core/auction_lp.hpp"
#include "core/exact.hpp"
#include "core/instance.hpp"
#include "core/pipeline.hpp"
#include "mechanism/mechanism.hpp"
#include "obs/span.hpp"

namespace ssa {

/// Options for a single solve. The shared fields apply to every solver; the
/// per-solver sections configure the algorithm behind the adapter. The
/// shared \p seed subsumes the section-level seed fields (PipelineOptions::
/// seed, MechanismOptions::sample_seed, DecompositionOptions::seed): adapters
/// overwrite them with \p seed so one knob reproduces any run.
/// Runtime-only warm-start side channel a caller (the AuctionService
/// worker, the E14/E15 benches) threads through SolveOptions::warm_context.
/// Never serialized and never part of any cache key: a warm-started solve
/// is payload-identical to the cold solve of the same instance
/// (lp/simplex.hpp explains why), so the hint cannot change what a cached
/// report would say. `hint` is consumed when SolveOptions::warm_start
/// allows it: "lp-rounding"'s explicit LP installs its basis and
/// "asymmetric-colgen" seeds its master with its columns. `exported`
/// receives what this run leaves for the next structurally identical
/// instance; it stays empty when there is nothing to bank.
struct WarmStartContext {
  const WarmState* hint = nullptr;  ///< in: banked state to replay, or null
  WarmState exported;               ///< out: this run's warm state
};

struct SolveOptions {
  // -- shared ---------------------------------------------------------------
  std::uint64_t seed = 1;  ///< single source of randomness for the run
  /// Soft wall-time target in seconds (0 = unlimited). Enforced
  /// cooperatively by the budget-aware solvers -- "exact" and
  /// "asymmetric-exact" scale their node budget from it and poll a
  /// deadline between search nodes; "lp-rounding" and
  /// "asymmetric-lp-rounding" poll it between simplex pivots and between
  /// rounding repetitions. A run the budget truncated sets
  /// SolveReport::timed_out and still returns a feasible (possibly
  /// partial or empty) allocation. The remaining solvers ignore it: the
  /// greedy/local-ratio baselines finish in milliseconds anyway, and
  /// "mechanism" does not yet thread a deadline through its VCG +
  /// decomposition stages.
  double time_budget_seconds = 0.0;
  /// Allow warm-starting the LP from a cached basis when the caller supplies
  /// one through \p warm_context. Off forces a cold solve even with a hint
  /// present. Serialized (a client may pin cold solves for benchmarking);
  /// NOT part of the service cache key -- the payload is warm/cold-invariant
  /// by construction, so both settings map to the same cached report.
  bool warm_start = true;
  /// Runtime-only warm-state side channel (see WarmStartContext). Null for
  /// plain solves; the wire codec never carries it and the service result
  /// cache never keys on it. "lp-rounding"'s explicit LP path and
  /// "asymmetric-colgen" use it; every other solver leaves it untouched.
  WarmStartContext* warm_context = nullptr;
  /// Runtime-only trace coordinates of the submitting hop (obs/span.hpp):
  /// {trace id, parent span id} the service's per-request spans link
  /// under. Same discipline as warm_context -- never serialized by the
  /// SolveOptions codec (the wire carries it in the frame ENVELOPE
  /// instead), never part of any cache key, and results never depend on
  /// it. {0, 0} = untraced; the service then mints a fresh trace.
  obs::SpanContext span_context = {};

  // -- per-solver sections --------------------------------------------------
  PipelineOptions pipeline = {};    ///< "lp-rounding", "asymmetric-lp-rounding"
  ExactOptions exact = {};          ///< "exact", "asymmetric-exact"
  MechanismOptions mechanism = {};  ///< "mechanism"
};

/// Result of a single solve: a common diagnostics block every solver fills,
/// plus optional solver-specific payloads.
struct SolveReport {
  // -- common diagnostics ---------------------------------------------------
  std::string solver;  ///< registry name of the solver that produced this
  std::string params;  ///< one-line parameter summary of the run
  Allocation allocation;
  double welfare = 0.0;
  bool feasible = false;
  /// Proven absolute lower bound on the welfare this solver guarantees for
  /// this instance (0 when the solver is heuristic / has no absolute bound).
  double guarantee = 0.0;
  /// Proven worst-case approximation factor alpha: welfare >= OPT / alpha
  /// (1 = exact, 0 = heuristic with no proven factor). For randomized
  /// solvers the factor holds in expectation. The asymmetric LP-rounding
  /// solver reports the Section 6 sampling scale 2 k rho here (see
  /// api/solvers.cpp for how it relates to the expectation bound).
  double factor = 0.0;
  /// LP optimum b* (an upper bound on OPT) when the solver computed it.
  std::optional<double> lp_upper_bound;
  bool exact = false;  ///< welfare proven equal to OPT
  /// SolveOptions::time_budget_seconds fired: the result was truncated
  /// (fewer rounding repetitions, an unfinished LP or B&B search) but is
  /// still feasible. Never set by an unlimited budget.
  bool timed_out = false;
  double wall_time_seconds = 0.0;
  /// The LP behind this report re-optimized from a caller-provided basis
  /// hint instead of pivoting from scratch. A run diagnostic like
  /// wall_time_seconds: serialized for observability, but ignored by
  /// wire::reports_payload_equal -- warm and cold runs of one instance
  /// produce the same payload by construction.
  bool warm_started = false;
  /// Simplex pivots the solve spent across its LP(s): the pipeline LP for
  /// "lp-rounding" / "asymmetric-lp-rounding", the n+1 VCG LPs plus the
  /// decomposition LP for "mechanism", 0 for the LP-free solvers. Like
  /// warm_started, a timing-class diagnostic excluded from payload equality.
  std::int64_t pivots = 0;
  /// Master solves a column-generation solve performed ("lp-rounding"'s
  /// colgen path, "asymmetric-colgen"): the first solve plus one re-solve
  /// per oracle call that returned columns (lp::BendersResult::rounds); 0
  /// for explicit/LP-free solvers.
  /// Like pivots, a run diagnostic excluded from payload equality: a
  /// pool-warm colgen run converges in fewer rounds than its cold twin
  /// while producing the identical payload.
  std::uint32_t oracle_rounds = 0;
  /// Columns the pricing oracle generated during this run (pool seeds
  /// excluded). Same diagnostics class as oracle_rounds.
  std::uint32_t columns_generated = 0;
  /// Empty on success. Filled (by solve() itself) when the instance is
  /// outside the solver's domain or the algorithm failed; solve_batch
  /// additionally stores job-level failures (unknown solver, empty
  /// instance) here instead of propagating the exception. Always in the
  /// normalized "<solver-key>: <reason>" format -- the service's fallback
  /// chains key off that prefix, so every layer (adapter domain checks,
  /// solve(), solve_batch) enforces it.
  std::string error;

  // -- provenance (filled by the execution layers) --------------------------
  /// Registry key the execution layer resolved for this run. Solver::solve
  /// sets it to the solver's own name; the AuctionService overwrites it
  /// with the key its selection policy chose -- after fallbacks, that is
  /// the solver which actually produced this report.
  std::string solver_selected;
  /// The report was answered from the service result cache: the payload --
  /// including wall_time_seconds, which keeps documenting what the result
  /// cost to compute originally -- is bitwise the originating run's; only
  /// this flag and queue_wait_seconds are fresh.
  bool cache_hit = false;
  /// Seconds the request waited in a scheduler queue before a worker
  /// picked it up (0 for direct Solver::solve calls and for cache hits).
  /// For coalesced followers (coalesced = true) this is the attach-to-
  /// completion latency instead -- the follower never entered a queue,
  /// and the leader's solve overlaps it, so do not add wall_time_seconds
  /// on top for coalesced reports.
  double queue_wait_seconds = 0.0;
  /// Verdict of the deadline-aware admission check (api/admission.hpp).
  /// kAccepted for direct Solver::solve calls, batch jobs, cache hits and
  /// every request whose deadline looked meetable at submission. kDegraded:
  /// the service clamped the solver's time budget to the wall time left
  /// before the deadline (degraded reports are never cached). kRejected:
  /// the request was never executed; error carries the reason.
  Admission admission = Admission::kAccepted;
  /// The request attached to an identical in-flight computation instead of
  /// running a solver itself: the payload is the leader's, bitwise (the
  /// leader's own report has coalesced = false and cache_hit = false).
  bool coalesced = false;

  // -- solver-specific payloads ---------------------------------------------
  std::optional<FractionalSolution> fractional;  ///< LP-based solvers
  std::optional<MechanismOutcome> mechanism;     ///< "mechanism"
};

/// Abstract solver over AnyInstance. Subclasses implement solve_impl (or,
/// far more commonly, derive from SymmetricSolver / AsymmetricSolver below
/// and implement the typed hook); the public solve() wraps it with
/// wall-clock timing, fills the welfare/feasibility block from the returned
/// allocation, and converts domain-check failures (std::exception escaping
/// solve_impl) into SolveReport::error so mixed-type batch runs degrade to
/// per-job errors instead of aborting.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name ("lp-rounding", "asymmetric-exact", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-line human description including the proven guarantee.
  [[nodiscard]] virtual std::string description() const = 0;

  /// Runs the algorithm on the calling thread; no solver starts threads of
  /// its own. Never throws for out-of-domain instances; the failure reason
  /// lands in SolveReport::error and the report carries an empty
  /// (feasible = false) allocation.
  [[nodiscard]] SolveReport solve(const AnyInstance& instance,
                                  const SolveOptions& options = {}) const;

 protected:
  /// Algorithm body. Must fill allocation and any payloads/bounds; solver
  /// name, welfare, feasibility and wall time are filled by solve(). May
  /// throw std::invalid_argument for out-of-domain instances -- solve()
  /// captures it as SolveReport::error.
  [[nodiscard]] virtual SolveReport solve_impl(
      const AnyInstance& instance, const SolveOptions& options) const = 0;
};

/// Adapter base for algorithms over the symmetric AuctionInstance: performs
/// the instance-type domain check (reported via SolveReport::error by
/// Solver::solve) and dispatches to the typed hook.
class SymmetricSolver : public Solver {
 protected:
  [[nodiscard]] SolveReport solve_impl(
      const AnyInstance& instance, const SolveOptions& options) const final;

  [[nodiscard]] virtual SolveReport solve_symmetric(
      const AuctionInstance& instance, const SolveOptions& options) const = 0;
};

namespace detail {
/// Enforces the normalized SolveReport::error format
/// "<solver-key>: <reason>": prepends the key unless \p reason already
/// carries it. Shared by Solver::solve, solve_batch and the service.
[[nodiscard]] std::string normalized_solver_error(const std::string& solver,
                                                  const std::string& reason);
}  // namespace detail

/// Adapter base for the Section-6 algorithms over AsymmetricInstance.
class AsymmetricSolver : public Solver {
 protected:
  [[nodiscard]] SolveReport solve_impl(
      const AnyInstance& instance, const SolveOptions& options) const final;

  [[nodiscard]] virtual SolveReport solve_asymmetric(
      const AsymmetricInstance& instance, const SolveOptions& options)
      const = 0;
};

}  // namespace ssa
