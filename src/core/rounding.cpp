#include "core/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/sampling_plan.hpp"

namespace ssa {

namespace {

/// Algorithm 1 conflict resolution: keep a vertex only when no kept
/// pi-earlier neighbor shares a channel.
void resolve_conflicts_unweighted(const AuctionInstance& instance,
                                  std::vector<Bundle>& bundles) {
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  for (int v : instance.order()) {  // ascending pi
    const std::size_t sv = static_cast<std::size_t>(v);
    if (bundles[sv] == kEmptyBundle) continue;
    for (int u : graph.neighbors(sv)) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (position[su] < position[sv] &&
          (bundles[su] & bundles[sv]) != kEmptyBundle) {
        bundles[sv] = kEmptyBundle;
        break;
      }
    }
  }
}

/// Algorithm 2 partial conflict resolution: drop a vertex when the incoming
/// symmetric weight from kept pi-earlier vertices sharing a channel reaches
/// 1/2 (Condition (5)).
void resolve_conflicts_partial(const AuctionInstance& instance,
                               std::vector<Bundle>& bundles) {
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  for (int v : instance.order()) {  // ascending pi
    const std::size_t sv = static_cast<std::size_t>(v);
    if (bundles[sv] == kEmptyBundle) continue;
    double incoming = 0.0;
    for (int u : graph.neighbors(sv)) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (position[su] < position[sv] &&
          (bundles[su] & bundles[sv]) != kEmptyBundle) {
        incoming += graph.coupling_weight(su, sv);
      }
    }
    if (incoming >= 0.5) bundles[sv] = kEmptyBundle;
  }
}

/// Algorithm 3 on the partly-feasible s.result (bidder values in
/// s.result_values): replaces it with the best of its feasible candidates
/// and returns that welfare. Uses s.bundles, s.spare and s.remaining.
double finalize_result(const AuctionInstance& instance,
                       detail::PassScratch& s) {
  const std::size_t n = instance.num_bidders();
  const auto& graph = instance.graph();
  std::vector<Bundle>& best = s.bundles;
  std::vector<Bundle>& candidate = s.spare;

  // Remaining pool V' (vertices not yet placed in any candidate).
  std::size_t remaining_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    s.remaining[v] = s.result[v] != kEmptyBundle;
    remaining_count += s.remaining[v] ? 1 : 0;
  }
  std::fill(best.begin(), best.end(), kEmptyBundle);
  double best_welfare = 0.0;

  const int iteration_cap =
      static_cast<int>(std::ceil(std::log2(std::max<std::size_t>(n, 2)))) + 4;
  for (int iteration = 0; iteration < iteration_cap && remaining_count > 0;
       ++iteration) {
    for (std::size_t v = 0; v < n; ++v) {
      candidate[v] = s.remaining[v] ? s.result[v] : kEmptyBundle;
    }
    const std::size_t before = remaining_count;
    // Descending-pi processing order.
    for (auto it = instance.order().rbegin(); it != instance.order().rend();
         ++it) {
      const std::size_t sv = static_cast<std::size_t>(*it);
      if (!s.remaining[sv] || candidate[sv] == kEmptyBundle) continue;
      double incoming = 0.0;
      for (int u : graph.neighbors(sv)) {
        const std::size_t su = static_cast<std::size_t>(u);
        if ((candidate[su] & candidate[sv]) != kEmptyBundle) {
          incoming += graph.coupling_weight(su, sv);
        }
      }
      if (incoming < 1.0) {
        s.remaining[sv] = 0;  // v is served by this candidate
        --remaining_count;
      } else {
        candidate[sv] = kEmptyBundle;  // retry in a later candidate
      }
    }
    if (remaining_count == before) break;  // not partly feasible; stop safely
    const double welfare = detail::welfare_of(candidate, s.result_values);
    if (welfare > best_welfare) {
      best_welfare = welfare;
      best.swap(candidate);
    }
  }
  s.result.swap(best);
  return best_welfare;
}

/// How far a symmetric pass goes.
enum class Stage { kAlgorithm1, kAlgorithm2, kAlgorithms2And3 };

Stage full_stage(const AuctionInstance& instance) {
  return instance.unweighted() ? Stage::kAlgorithm1 : Stage::kAlgorithms2And3;
}

/// The paper's scaling: 2 sqrt(k) rho for Algorithm 1, 4 sqrt(k) rho for
/// Algorithm 2.
double default_denominator(const AuctionInstance& instance, Stage stage) {
  return (stage == Stage::kAlgorithm1 ? 2.0 : 4.0) *
         std::sqrt(static_cast<double>(instance.num_channels())) *
         instance.rho();
}

/// One pass over the uniforms already in s (see detail::round_halves for
/// \p stride); leaves the allocation in s.result and returns its welfare.
double symmetric_pass(const AuctionInstance& instance,
                      const detail::SamplingPlan& plan, std::size_t stride,
                      Stage stage, detail::PassScratch& s) {
  const double welfare =
      detail::round_halves(plan, stride, s, [&](std::vector<Bundle>& b) {
        stage == Stage::kAlgorithm1 ? resolve_conflicts_unweighted(instance, b)
                                    : resolve_conflicts_partial(instance, b);
      });
  return stage == Stage::kAlgorithms2And3 ? finalize_result(instance, s)
                                          : welfare;
}

/// One pass of \p stage drawing from \p rng (the single-pass entry points).
Allocation round_single(const AuctionInstance& instance,
                        const FractionalSolution& fractional, Rng& rng,
                        Stage stage, double scale_denominator) {
  const detail::SamplingPlan plan = sampling_plan(
      instance, fractional,
      scale_denominator > 0.0 ? scale_denominator
                              : default_denominator(instance, stage));
  detail::PassScratch s(instance.num_bidders());
  detail::draw_uniforms(plan, rng, s);
  (void)symmetric_pass(instance, plan, instance.num_bidders(), stage, s);
  return Allocation{std::move(s.result)};
}

}  // namespace

Allocation round_unweighted(const AuctionInstance& instance,
                            const FractionalSolution& fractional, Rng& rng,
                            double scale_denominator) {
  if (!instance.unweighted()) {
    throw std::invalid_argument("round_unweighted: instance has edge weights");
  }
  return round_single(instance, fractional, rng, Stage::kAlgorithm1,
                      scale_denominator);
}

Allocation round_weighted_partial(const AuctionInstance& instance,
                                  const FractionalSolution& fractional,
                                  Rng& rng, double scale_denominator) {
  return round_single(instance, fractional, rng, Stage::kAlgorithm2,
                      scale_denominator);
}

bool is_partly_feasible(const AuctionInstance& instance,
                        const Allocation& allocation) {
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  for (std::size_t v = 0; v < allocation.size(); ++v) {
    if (allocation.bundles[v] == kEmptyBundle) continue;
    double incoming = 0.0;
    for (int u : graph.neighbors(v)) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (position[su] < position[v] &&
          (allocation.bundles[su] & allocation.bundles[v]) != kEmptyBundle) {
        incoming += graph.coupling_weight(su, v);
      }
    }
    if (incoming >= 0.5) return false;
  }
  return true;
}

Allocation finalize_partial(const AuctionInstance& instance,
                            const Allocation& partial) {
  detail::PassScratch s(instance.num_bidders());
  s.result = partial.bundles;
  for (std::size_t v = 0; v < s.result.size(); ++v) {
    if (s.result[v] == kEmptyBundle) continue;
    s.result_values[v] = instance.value(v, s.result[v]);
  }
  (void)finalize_result(instance, s);
  return Allocation{std::move(s.result)};
}

Allocation round_once(const AuctionInstance& instance,
                      const FractionalSolution& fractional, Rng& rng) {
  return round_single(instance, fractional, rng, full_stage(instance), 0.0);
}

detail::SamplingPlan sampling_plan(const AuctionInstance& instance,
                                   const FractionalSolution& fractional,
                                   double scale_denominator) {
  detail::SamplingPlan plan(
      fractional, instance.num_bidders(),
      scale_denominator > 0.0
          ? scale_denominator
          : default_denominator(instance, full_stage(instance)),
      instance.num_channels());
  for (std::size_t j = 0; j < plan.value.size(); ++j) {
    const auto v = static_cast<std::size_t>(plan.bidder[j]);
    plan.value[j] = instance.value(v, plan.bundle[j]);
  }
  return plan;
}

Allocation best_of_rounds(const AuctionInstance& instance,
                          const FractionalSolution& fractional,
                          int repetitions, std::uint64_t seed,
                          const Deadline& deadline, bool* timed_out) {
  return best_of_rounds(instance, sampling_plan(instance, fractional),
                        repetitions, seed, deadline, timed_out);
}

Allocation best_of_rounds(const AuctionInstance& instance,
                          const detail::SamplingPlan& plan, int repetitions,
                          std::uint64_t seed, const Deadline& deadline,
                          bool* timed_out) {
  Rng base(seed);
  const Stage stage = full_stage(instance);
  return detail::best_rounds(
      instance.num_bidders(), repetitions, deadline, timed_out,
      [&](std::int64_t r, detail::PassScratch& s) {
        Rng rng = base.split(static_cast<std::uint64_t>(r));
        detail::draw_uniforms(plan, rng, s);
        return symmetric_pass(instance, plan, instance.num_bidders(), stage,
                              s);
      });
}

double default_alpha(const AuctionInstance& instance) {
  const double sqrt_k =
      std::sqrt(static_cast<double>(instance.num_channels()));
  if (instance.unweighted()) return 8.0 * sqrt_k * instance.rho();
  const double log_n = std::ceil(
      std::log2(std::max<std::size_t>(instance.num_bidders(), 2)));
  return 16.0 * sqrt_k * instance.rho() * log_n;
}

Allocation derandomized_round(const AuctionInstance& instance,
                              const FractionalSolution& fractional,
                              const PairwiseFamily& family) {
  const detail::SamplingPlan plan = sampling_plan(instance, fractional);
  const Stage stage = full_stage(instance);
  return detail::best_rounds(
      instance.num_bidders(),
      static_cast<std::int64_t>(family.seed_count()), Deadline{}, nullptr,
      [&](std::int64_t seed, detail::PassScratch& s) {
        for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
          s.uniforms[v] = family.value(static_cast<std::uint64_t>(seed), v);
        }
        return symmetric_pass(instance, plan, 0, stage, s);  // one draw
      });
}

}  // namespace ssa
