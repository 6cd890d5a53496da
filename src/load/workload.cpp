#include "load/workload.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "support/random.hpp"

namespace ssa::load {
namespace {

/// Valuation scale of the generator families (gen/scenario.cpp uses 100
/// throughout), so a churned bidder draws from the same population.
constexpr int kMaxValue = 100;

/// Derived 64-bit seed for one (purpose, index) slot of the pool.
[[nodiscard]] std::uint64_t derived_seed(std::uint64_t seed,
                                         std::uint64_t purpose,
                                         std::uint64_t index) {
  return Rng(seed).split(purpose).split(index)();
}

[[nodiscard]] std::uint64_t variant_key(std::uint32_t scenario,
                                        std::uint32_t variant) {
  return (static_cast<std::uint64_t>(scenario) << 32) | variant;
}

}  // namespace

ScenarioPool::ScenarioPool(const TraceSpec& spec) : spec_(spec) {
  if (spec_.pool_size == 0) {
    throw std::invalid_argument("load: pool needs at least one scenario");
  }
  if (spec_.bidders < 2) {
    throw std::invalid_argument("load: pool needs at least two bidders");
  }
  base_.reserve(spec_.pool_size);
  for (std::uint32_t i = 0; i < spec_.pool_size; ++i) {
    base_.push_back(make_base(i));
  }
}

gen::NamedInstance ScenarioPool::make_base(std::uint32_t scenario) const {
  const std::size_t n = spec_.bidders;
  const int k = static_cast<int>(spec_.channels);
  const std::uint64_t seed = derived_seed(spec_.seed, 1, scenario);
  const auto named = [scenario](const char* family) {
    std::string label = family;
    label += '#';
    label += std::to_string(scenario);
    return label;
  };
  switch (scenario % 5) {
    case 0:
      return {named("disk"),
              gen::make_disk_auction(n, k, gen::ValuationMix::kMixed, seed)};
    case 1:
      return {named("random-graph"),
              gen::make_random_graph_auction(n, k, 0.25,
                                             gen::ValuationMix::kMixed, seed)};
    case 2:
      // The edge-LP integrality-gap clique (single channel by design).
      // The seed shuffles the elimination ordering, so pool scenarios are
      // fingerprint-distinct as generated -- repeats of DIFFERENT
      // scenarios never collide in the result caches.
      return {named("clique"), gen::make_clique_auction(n, seed)};
    case 3:
      return {named("asym-random"),
              gen::make_random_asymmetric(n, k, 0.25,
                                          gen::ValuationMix::kMixed, seed)};
    default:
      // Theorem 18 hardness construction: degree bound 2k keeps rho_j <= 2.
      return {named("asym-hardness"),
              gen::make_hardness_instance(n, 2 * k, k, seed)};
  }
}

gen::NamedInstance ScenarioPool::make_variant(std::uint32_t scenario,
                                              std::uint32_t variant) const {
  const gen::NamedInstance& base = base_.at(scenario);
  Rng rng(derived_seed(spec_.seed, 2, variant_key(scenario, variant)));
  const std::string label = base.label + "~v" + std::to_string(variant);
  return std::visit(
      [&](const auto& inst) -> gen::NamedInstance {
        const std::size_t bidder = rng.uniform_int(inst.num_bidders());
        auto valuation =
            gen::random_valuations(1, inst.num_channels(),
                                   gen::ValuationMix::kMixed, kMaxValue, rng)
                .front();
        return {label, inst.with_valuation(bidder, std::move(valuation))};
      },
      base.instance);
}

const gen::NamedInstance& ScenarioPool::instance(std::uint32_t scenario,
                                                 std::uint32_t variant) {
  if (variant == 0) return base_.at(scenario);
  const std::uint64_t key = variant_key(scenario, variant);
  auto it = variants_.find(key);
  if (it == variants_.end()) {
    it = variants_.emplace(key, make_variant(scenario, variant)).first;
  }
  return it->second;
}

}  // namespace ssa::load
