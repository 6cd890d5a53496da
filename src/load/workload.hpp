#pragma once
/// \file workload.hpp
/// A deterministic pool of generated scenarios: ScenarioPool turns pool
/// coordinates -- (scenario, variant) -- into owned gen::NamedInstance
/// objects that benches, tests, the service demo and perfbench submit.
///
/// The pool is a pure function of its TraceSpec (seed, pool_size, bidders,
/// channels): base scenario i cycles through five generator families
/// (disk, random-graph, clique, asym-random, asym-hardness) with a
/// per-index derived seed, so any process that holds the spec rebuilds
/// bitwise-identical instances and therefore identical request
/// fingerprints (tests/test_load.cpp pins the pools other suites use).
///
/// Churn variants (variant > 0) are near duplicates: the base scenario
/// with ONE bidder's valuation resampled from the generator's mixed
/// population, derived deterministically from (seed, scenario, variant).
/// They differ from the base instance by a single valuation -- exactly the
/// near-miss traffic that must MISS the fingerprint cache -- while
/// variant 0 repeats must HIT it.
///
/// Threading: construction and instance() are single-threaded; the
/// instances they return are immutable, so build every pair a run needs
/// first and share the references across threads afterwards.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gen/scenario.hpp"

namespace ssa::load {

/// The shape of a scenario pool. perfbench names this type, so renaming
/// it waits for a change to the benchmark.
struct TraceSpec {
  std::uint64_t seed = 1;
  std::uint32_t pool_size = 16;  ///< base scenarios (>= 1)
  std::uint32_t bidders = 12;    ///< bidders per generated instance (>= 2)
  std::uint32_t channels = 2;    ///< channels per generated instance (>= 1)
};

/// Owned, deterministic instance pool; see the file comment.
class ScenarioPool {
 public:
  /// Builds every base scenario eagerly (pool_size instances). Throws
  /// std::invalid_argument when pool_size is 0 or bidders is below 2; the
  /// instance constructors reject a channel count out of their range.
  explicit ScenarioPool(const TraceSpec& spec);

  /// Base scenarios (spec.pool_size).
  [[nodiscard]] std::size_t size() const noexcept { return base_.size(); }

  /// The owned instance at (scenario, variant), built and cached on first
  /// use. NOT thread-safe (it may mutate the variant cache); references
  /// stay valid for the pool's lifetime. Throws std::out_of_range for a
  /// scenario beyond the pool.
  [[nodiscard]] const gen::NamedInstance& instance(std::uint32_t scenario,
                                                   std::uint32_t variant = 0);

 private:
  [[nodiscard]] gen::NamedInstance make_base(std::uint32_t scenario) const;
  [[nodiscard]] gen::NamedInstance make_variant(std::uint32_t scenario,
                                                std::uint32_t variant) const;

  TraceSpec spec_;
  std::vector<gen::NamedInstance> base_;
  /// (scenario << 32 | variant) -> near-duplicate instance.
  std::unordered_map<std::uint64_t, gen::NamedInstance> variants_;
};

}  // namespace ssa::load
