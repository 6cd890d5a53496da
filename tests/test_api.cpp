// Tests for the unified Solver API: registry round-trip over every
// registered solver (symmetric and asymmetric), solve_batch determinism
// across thread counts on mixed-type job lists and its worker count, error
// capture for out-of-domain jobs (including instance-type mismatches and
// the pinned "<solver-key>: <reason>" error format), cooperative time
// budgets, and equivalence of the registry adapters with the
// solve_pipeline / solve_mechanism engine entry points they wrap.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "api/api.hpp"
#include "gen/scenario.hpp"

namespace ssa {
namespace {

/// Whether a registry name belongs to the Section-6 asymmetric family.
bool is_asymmetric_solver(const std::string& name) {
  return name.rfind("asymmetric-", 0) == 0;
}

TEST(SolverRegistry, AllBuiltinAlgorithmsRegistered) {
  const std::vector<std::string> names = available_solvers();
  for (const char* expected :
       {"lp-rounding", "exact", "greedy-value", "greedy-density",
        "submodular-greedy", "local-ratio-k1", "local-ratio-per-channel",
        "mechanism", "asymmetric-lp-rounding", "asymmetric-exact",
        "asymmetric-greedy-value", "asymmetric-greedy-density"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "missing solver: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // registry() is the documented shorthand for the global registry.
  EXPECT_TRUE(registry().contains("asymmetric-lp-rounding"));
}

TEST(SolverRegistry, UnknownNameThrowsWithCatalog) {
  try {
    (void)make_solver("no-such-solver");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The error message lists the registered names.
    EXPECT_NE(std::string(e.what()).find("lp-rounding"), std::string::npos);
  }
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  SolverRegistry registry;
  registry.add("a", [] { return make_solver("exact"); });
  EXPECT_THROW(registry.add("a", [] { return make_solver("exact"); }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("", [] { return make_solver("exact"); }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("b", SolverFactory{}), std::invalid_argument);
}

TEST(SolverRegistry, EveryRegisteredSolverSolvesAnInstanceOfItsKind) {
  // k = 1 keeps every symmetric solver in domain (local-ratio-k1 requires
  // k == 1 and an unweighted graph; disk graphs are unweighted); the
  // asymmetric solvers get a small random per-channel-graph instance.
  const AuctionInstance symmetric =
      gen::make_disk_auction(10, 1, gen::ValuationMix::kMixed, 71);
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(10, 2, 0.3, gen::ValuationMix::kMixed, 72);
  for (const std::string& name : available_solvers()) {
    const auto solver = make_solver(name);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(solver->description().empty());
    const AnyInstance instance = is_asymmetric_solver(name)
                                     ? AnyInstance(asymmetric)
                                     : AnyInstance(symmetric);
    const SolveReport report = solver->solve(instance);
    EXPECT_EQ(report.solver, name);
    EXPECT_TRUE(report.error.empty()) << name << ": " << report.error;
    EXPECT_TRUE(report.feasible) << name;
    EXPECT_TRUE(instance.feasible(report.allocation)) << name;
    EXPECT_GE(report.welfare, 0.0) << name;
    EXPECT_DOUBLE_EQ(report.welfare, instance.welfare(report.allocation))
        << name;
    EXPECT_GE(report.wall_time_seconds, 0.0) << name;
  }
}

TEST(SolverApi, InstanceTypeMismatchIsReportedNotThrown) {
  const AuctionInstance symmetric =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 12);
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(8, 2, 0.3, gen::ValuationMix::kMixed, 13);

  const SolveReport wrong_sym =
      make_solver("asymmetric-lp-rounding")->solve(symmetric);
  EXPECT_FALSE(wrong_sym.error.empty());
  EXPECT_NE(wrong_sym.error.find("AsymmetricInstance"), std::string::npos);
  EXPECT_FALSE(wrong_sym.feasible);
  EXPECT_DOUBLE_EQ(wrong_sym.welfare, 0.0);
  // The report still carries an (empty) allocation sized to the instance.
  EXPECT_EQ(wrong_sym.allocation.bundles.size(), symmetric.num_bidders());

  const SolveReport wrong_asym = make_solver("lp-rounding")->solve(asymmetric);
  EXPECT_FALSE(wrong_asym.error.empty());
  EXPECT_NE(wrong_asym.error.find("symmetric"), std::string::npos);
  EXPECT_FALSE(wrong_asym.feasible);
}

TEST(SolverApi, DomainMismatchErrorFormatIsPinned) {
  // The normalized "<solver-key>: <reason>" format is load-bearing: the
  // service selection policy's fallback logic keys off the prefix, so the
  // symmetric and asymmetric domain-mismatch strings are pinned verbatim.
  const AuctionInstance symmetric =
      gen::make_disk_auction(6, 2, gen::ValuationMix::kMixed, 21);
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(6, 2, 0.3, gen::ValuationMix::kMixed, 22);

  EXPECT_EQ(
      make_solver("asymmetric-lp-rounding")->solve(symmetric).error,
      "asymmetric-lp-rounding: expected an AsymmetricInstance, got symmetric "
      "instance");
  EXPECT_EQ(make_solver("lp-rounding")->solve(asymmetric).error,
            "lp-rounding: expected a symmetric AuctionInstance, got "
            "asymmetric instance");

  // Every error any solver reports carries its own "<solver-key>: " prefix
  // -- including non-mismatch domain errors and batch-level failures.
  const SolveReport weighted = make_solver("local-ratio-k1")->solve(symmetric);
  ASSERT_FALSE(weighted.error.empty());  // k = 2 is out of domain for k1
  EXPECT_EQ(weighted.error.rfind("local-ratio-k1: ", 0), 0u) << weighted.error;

  const std::vector<BatchJob> jobs = {{"no-such-solver", symmetric, "x", {}}};
  const BatchResult batch = solve_batch(jobs);
  ASSERT_FALSE(batch.reports[0].error.empty());
  EXPECT_EQ(batch.reports[0].error.rfind("no-such-solver: ", 0), 0u)
      << batch.reports[0].error;
}

TEST(SolverApi, DiagnosticsBlockIsPopulated) {
  const AuctionInstance instance =
      gen::make_disk_auction(12, 2, gen::ValuationMix::kMixed, 5);

  const SolveReport lp = make_solver("lp-rounding")->solve(instance);
  ASSERT_TRUE(lp.lp_upper_bound.has_value());
  ASSERT_TRUE(lp.fractional.has_value());
  EXPECT_GT(lp.guarantee, 0.0);
  EXPECT_GT(lp.factor, 1.0);
  // The diagnostics are internally consistent: guarantee = b*/factor.
  EXPECT_NEAR(lp.guarantee, *lp.lp_upper_bound / lp.factor, 1e-9);
  EXPECT_LE(lp.welfare, *lp.lp_upper_bound + 1e-6);
  EXPECT_GE(lp.welfare, lp.guarantee * 0.9);
  EXPECT_FALSE(lp.exact);

  const SolveReport exact = make_solver("exact")->solve(instance);
  EXPECT_TRUE(exact.exact);
  EXPECT_DOUBLE_EQ(exact.factor, 1.0);
  EXPECT_DOUBLE_EQ(exact.guarantee, exact.welfare);
  // OPT lies between the rounded welfare and the LP upper bound.
  EXPECT_GE(exact.welfare, lp.welfare - 1e-9);
  EXPECT_LE(exact.welfare, *lp.lp_upper_bound + 1e-6);

  const SolveReport mech = make_solver("mechanism")->solve(instance);
  ASSERT_TRUE(mech.mechanism.has_value());
  ASSERT_TRUE(mech.lp_upper_bound.has_value());
  EXPECT_GT(mech.factor, 1.0);
  EXPECT_NEAR(mech.guarantee, *mech.lp_upper_bound / mech.factor, 1e-9);
  EXPECT_EQ(mech.mechanism->payments.size(), instance.num_bidders());
}

TEST(SolverApi, SharedSeedSubsumesSectionSeeds) {
  const AuctionInstance instance =
      gen::make_disk_auction(14, 2, gen::ValuationMix::kMixed, 9);
  SolveOptions a;
  a.seed = 123;
  SolveOptions b;
  b.seed = 123;
  b.pipeline.seed = 999;  // ignored: the shared seed wins
  const SolveReport ra = make_solver("lp-rounding")->solve(instance, a);
  const SolveReport rb = make_solver("lp-rounding")->solve(instance, b);
  EXPECT_EQ(ra.allocation.bundles, rb.allocation.bundles);
  EXPECT_DOUBLE_EQ(ra.welfare, rb.welfare);
}

TEST(EngineEquivalence, SolvePipelineMatchesLpRoundingSolver) {
  // The registry adapter is a faithful wrapper over the solve_pipeline
  // engine: same allocation, welfare, guarantee and LP bound.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const AuctionInstance instance =
        gen::make_disk_auction(16, 2, gen::ValuationMix::kMixed, 300 + seed);
    PipelineOptions engine;
    engine.rounding_repetitions = 24;
    engine.seed = seed;
    const PipelineResult engine_result = solve_pipeline(instance, engine);

    SolveOptions options;
    options.seed = seed;
    options.pipeline.rounding_repetitions = 24;
    const SolveReport report =
        make_solver("lp-rounding")->solve(instance, options);

    EXPECT_EQ(engine_result.allocation.bundles, report.allocation.bundles);
    EXPECT_DOUBLE_EQ(engine_result.welfare, report.welfare);
    EXPECT_DOUBLE_EQ(engine_result.guarantee, report.guarantee);
    ASSERT_TRUE(report.lp_upper_bound.has_value());
    EXPECT_DOUBLE_EQ(engine_result.fractional.objective,
                     *report.lp_upper_bound);
  }
}

TEST(EngineEquivalence, SolveMechanismMatchesMechanismSolver) {
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 404);
  MechanismOptions engine;
  engine.sample_seed = 77;
  engine.decomposition.seed = 77;
  const MechanismOutcome engine_outcome = solve_mechanism(instance, engine);

  SolveOptions options;
  options.seed = 77;
  const SolveReport report = make_solver("mechanism")->solve(instance, options);
  ASSERT_TRUE(report.mechanism.has_value());
  EXPECT_EQ(engine_outcome.allocation.bundles, report.allocation.bundles);
  EXPECT_EQ(engine_outcome.payments, report.mechanism->payments);
  EXPECT_EQ(engine_outcome.expected_payments,
            report.mechanism->expected_payments);
}

TEST(SolveBatch, DeterministicAcrossThreadCounts) {
  const AuctionInstance disk =
      gen::make_disk_auction(12, 2, gen::ValuationMix::kMixed, 31);
  const AuctionInstance physical = gen::make_physical_auction(
      10, 2, PowerScheme::kLinear, gen::ValuationMix::kMixed, 32);

  const std::vector<LabelledInstance> instances = {{"disk", &disk},
                                                   {"physical", &physical}};
  const std::vector<std::string> solvers = {"lp-rounding", "exact",
                                            "greedy-value", "greedy-density"};
  SolveOptions options;
  options.seed = 2026;
  options.pipeline.rounding_repetitions = 16;
  const std::vector<BatchJob> jobs = cross_jobs(instances, solvers, options);

  const BatchResult serial = solve_batch(jobs, BatchOptions{.threads = 1});
  const BatchResult parallel = solve_batch(jobs, BatchOptions{.threads = 0});

  ASSERT_EQ(serial.reports.size(), jobs.size());
  ASSERT_EQ(parallel.reports.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial.labels[i], parallel.labels[i]);
    EXPECT_EQ(serial.reports[i].solver, parallel.reports[i].solver);
    EXPECT_EQ(serial.reports[i].allocation.bundles,
              parallel.reports[i].allocation.bundles)
        << serial.labels[i] << "/" << serial.reports[i].solver;
    EXPECT_DOUBLE_EQ(serial.reports[i].welfare, parallel.reports[i].welfare);
    EXPECT_DOUBLE_EQ(serial.reports[i].guarantee,
                     parallel.reports[i].guarantee);
  }
}

/// Test-only solver that allocates nothing and records the thread it ran
/// on. It holds each solve for a moment so that every worker of a batch
/// takes a job, and it stays in the registry for the later tests, which
/// it passes like any solver.
class ThreadProbeSolver final : public Solver {
 public:
  static constexpr const char* kName = "test-thread-probe";
  static inline std::mutex mutex;
  static inline std::set<std::thread::id> threads;

  [[nodiscard]] std::string name() const override { return kName; }
  [[nodiscard]] std::string description() const override {
    return "records the thread each solve runs on";
  }

 protected:
  [[nodiscard]] SolveReport solve_impl(const AnyInstance&,
                                       const SolveOptions&) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
    return {};
  }
};

TEST(SolveBatch, NegativeThreadCountUsesTheDefaultWorkerCount) {
  if (!registry().contains(ThreadProbeSolver::kName)) {
    registry().add(ThreadProbeSolver::kName,
                   [] { return std::make_unique<ThreadProbeSolver>(); });
  }
  const AuctionInstance instance =
      gen::make_disk_auction(6, 1, gen::ValuationMix::kMixed, 64);
  const std::vector<BatchJob> jobs(
      64, BatchJob{ThreadProbeSolver::kName, &instance, "probe", {}});
  ThreadProbeSolver::threads.clear();
  const BatchResult result = solve_batch(jobs, BatchOptions{.threads = -1});
  ASSERT_EQ(result.reports.size(), jobs.size());
  for (const SolveReport& report : result.reports) {
    EXPECT_TRUE(report.error.empty()) << report.error;
  }
  // A count <= 0 means the hardware concurrency, not one worker per job.
  EXPECT_GE(ThreadProbeSolver::threads.size(), 1u);
  EXPECT_LE(ThreadProbeSolver::threads.size(),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(SolveBatch, OutOfDomainJobReportsErrorInsteadOfThrowing) {
  const AuctionInstance instance =
      gen::make_disk_auction(10, 2, gen::ValuationMix::kMixed, 55);
  // local-ratio-k1 requires k == 1; k = 2 must surface as a captured error.
  const std::vector<BatchJob> jobs = {
      {"local-ratio-k1", &instance, "disk-k2", {}},
      {"greedy-value", &instance, "disk-k2", {}},
      {"unknown-solver", &instance, "disk-k2", {}},
  };
  const BatchResult result = solve_batch(jobs);
  ASSERT_EQ(result.reports.size(), 3u);
  EXPECT_FALSE(result.reports[0].error.empty());
  EXPECT_TRUE(result.reports[1].error.empty());
  EXPECT_FALSE(result.reports[2].error.empty());
  EXPECT_EQ(result.find("disk-k2", "local-ratio-k1"), nullptr);
  ASSERT_NE(result.find("disk-k2", "greedy-value"), nullptr);
  EXPECT_GT(result.find("disk-k2", "greedy-value")->welfare, 0.0);
  // The comparison table renders every row, including the failed ones.
  EXPECT_EQ(result.table().rows(), 3u);
}

TEST(SolveBatch, ComparisonTableHasOneRowPerJob) {
  const AuctionInstance symmetric =
      gen::make_disk_auction(8, 1, gen::ValuationMix::kMixed, 77);
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(8, 2, 0.3, gen::ValuationMix::kMixed, 78);
  // Pair every registered solver with an instance of its kind: the full
  // catalog runs without a single per-job error.
  std::vector<BatchJob> jobs;
  for (const std::string& name : available_solvers()) {
    if (is_asymmetric_solver(name)) {
      jobs.push_back({name, asymmetric, "tiny-asym", {}});
    } else {
      jobs.push_back({name, symmetric, "tiny", {}});
    }
  }
  const BatchResult result = solve_batch(jobs);
  EXPECT_EQ(result.table().rows(), jobs.size());
  for (const SolveReport& report : result.reports) {
    EXPECT_TRUE(report.error.empty())
        << report.solver << ": " << report.error;
  }
}

TEST(SolveBatch, MixedInstanceTypesDeterministicAcrossThreadCounts) {
  // The gen/scenario batch hooks: an owned mixed suite (two symmetric, two
  // asymmetric instances) crossed with solvers from both families. Jobs
  // pairing a solver with the wrong instance type stay in the list on
  // purpose -- they must degrade to per-row errors, identically at every
  // thread count.
  const std::vector<gen::NamedInstance> suite =
      gen::mixed_scenario_suite(10, 2, 5100);
  ASSERT_EQ(suite.size(), 4u);
  const std::vector<std::string> solvers = {
      "lp-rounding", "greedy-density", "asymmetric-lp-rounding",
      "asymmetric-greedy-density"};
  SolveOptions options;
  options.seed = 2027;
  options.pipeline.rounding_repetitions = 12;
  const std::vector<BatchJob> jobs =
      gen::scenario_jobs(suite, solvers, options);
  ASSERT_EQ(jobs.size(), suite.size() * solvers.size());

  const BatchResult serial = solve_batch(jobs, BatchOptions{.threads = 1});
  const BatchResult parallel = solve_batch(jobs, BatchOptions{.threads = 0});
  ASSERT_EQ(serial.reports.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial.labels[i], parallel.labels[i]);
    EXPECT_EQ(serial.reports[i].error, parallel.reports[i].error);
    EXPECT_EQ(serial.reports[i].allocation.bundles,
              parallel.reports[i].allocation.bundles)
        << serial.labels[i] << "/" << serial.reports[i].solver;
    EXPECT_DOUBLE_EQ(serial.reports[i].welfare, parallel.reports[i].welfare);
    // The comparison tables (what operators actually diff) match rendered.
    EXPECT_EQ(serial.table().rows(), parallel.table().rows());
  }

  // Each instance kind found its matching solvers; mismatches are errors.
  EXPECT_NE(serial.find("disk", "lp-rounding"), nullptr);
  EXPECT_NE(serial.find("asym-random", "asymmetric-lp-rounding"), nullptr);
  EXPECT_NE(serial.find("asym-hardness", "asymmetric-greedy-density"),
            nullptr);
  EXPECT_EQ(serial.find("disk", "asymmetric-lp-rounding"), nullptr);
  EXPECT_EQ(serial.find("asym-random", "lp-rounding"), nullptr);
}

TEST(SolveBatch, TinyTimeBudgetReturnsPromptlyWithTimedOut) {
  // Acceptance: a tiny budget on a large instance truncates cooperatively
  // -- the report comes back promptly, flagged, feasible, error-free.
  const AuctionInstance symmetric =
      gen::make_disk_auction(40, 6, gen::ValuationMix::kMixed, 91);
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(24, 3, 0.25, gen::ValuationMix::kMixed, 92);
  SolveOptions options;
  options.time_budget_seconds = 1e-7;
  options.pipeline.rounding_repetitions = 256;
  for (const auto& [solver, instance] :
       {std::pair<std::string, AnyInstance>{"lp-rounding", symmetric},
        {"exact", symmetric},
        {"asymmetric-lp-rounding", asymmetric},
        {"asymmetric-exact", asymmetric}}) {
    const SolveReport report = make_solver(solver)->solve(instance, options);
    EXPECT_TRUE(report.error.empty()) << solver << ": " << report.error;
    EXPECT_TRUE(report.timed_out) << solver;
    EXPECT_TRUE(report.feasible) << solver;
    EXPECT_FALSE(report.exact) << solver;
    EXPECT_LT(report.wall_time_seconds, 10.0) << solver;
  }

  // An unlimited budget never reports a timeout.
  const SolveReport unlimited = make_solver("lp-rounding")
                                    ->solve(symmetric, SolveOptions{});
  EXPECT_FALSE(unlimited.timed_out);
}

}  // namespace
}  // namespace ssa
