#include "graph/inductive_independence.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/independent_set.hpp"

namespace ssa {

std::vector<VertexRho> rho_per_vertex(const ConflictGraph& graph,
                                      const Ordering& order,
                                      long long node_budget_per_vertex) {
  const std::size_t n = graph.size();
  if (order.size() != n) {
    throw std::invalid_argument("rho_per_vertex: ordering size mismatch");
  }
  const std::vector<int> position = ordering_positions(order);
  std::vector<VertexRho> result(n);
  std::vector<int> candidates;
  std::vector<double> gains;
  for (std::size_t v = 0; v < n; ++v) {
    // Backward neighborhood of v and the gains wbar(u, v).
    candidates.clear();
    gains.clear();
    for (int u : graph.neighbors(v)) {
      if (position[u] < position[v]) {
        candidates.push_back(u);
        gains.push_back(graph.coupling_weight(static_cast<std::size_t>(u), v));
      }
    }
    const IndependenceOptimum opt = max_gain_independent_subset(
        graph, candidates, gains, node_budget_per_vertex);
    result[v] = VertexRho{opt.value, opt.exact};
  }
  return result;
}

VertexRho rho_of_ordering(const ConflictGraph& graph, const Ordering& order,
                          long long node_budget_per_vertex) {
  VertexRho best;
  for (const VertexRho& vertex_rho :
       rho_per_vertex(graph, order, node_budget_per_vertex)) {
    best.value = std::max(best.value, vertex_rho.value);
    best.exact = best.exact && vertex_rho.exact;
  }
  return best;
}

namespace {

/// Exhaustive search over orderings with prefix pruning. The rho value of a
/// prefix only grows as more vertices are appended, so a prefix whose rho
/// already reaches the incumbent can be cut.
class ExactRhoSearch {
 public:
  explicit ExactRhoSearch(const ConflictGraph& graph) : graph_(graph) {}

  ExactRho run() {
    const std::size_t n = graph_.size();
    if (n > 10) {
      throw std::invalid_argument(
          "exact_inductive_independence: graph too large (max 10 vertices)");
    }
    best_value_ = std::numeric_limits<double>::infinity();
    std::vector<int> prefix;
    std::vector<bool> used(n, false);
    recurse(prefix, used, 0.0);
    return ExactRho{best_value_ == std::numeric_limits<double>::infinity()
                        ? 0.0
                        : best_value_,
                    best_order_};
  }

 private:
  void recurse(std::vector<int>& prefix, std::vector<bool>& used,
               double prefix_rho) {
    const std::size_t n = graph_.size();
    if (prefix.size() == n) {
      if (prefix_rho < best_value_) {
        best_value_ = prefix_rho;
        best_order_ = prefix;
      }
      return;
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (used[v]) continue;
      // rho contribution of v when appended now: backward nbhd = prefix.
      std::vector<int> candidates;
      std::vector<double> gains;
      for (int u : prefix) {
        if (graph_.has_conflict(static_cast<std::size_t>(u), v)) {
          candidates.push_back(u);
          gains.push_back(graph_.coupling_weight(static_cast<std::size_t>(u), v));
        }
      }
      const double contribution =
          max_gain_independent_subset(graph_, candidates, gains).value;
      const double next_rho = std::max(prefix_rho, contribution);
      if (next_rho >= best_value_) continue;  // prune
      used[v] = true;
      prefix.push_back(static_cast<int>(v));
      recurse(prefix, used, next_rho);
      prefix.pop_back();
      used[v] = false;
    }
  }

  const ConflictGraph& graph_;
  double best_value_ = 0.0;
  Ordering best_order_;
};

}  // namespace

ExactRho exact_inductive_independence(const ConflictGraph& graph) {
  return ExactRhoSearch(graph).run();
}

Ordering smallest_last_ordering(const ConflictGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<double> remaining_degree(n, 0.0);
  std::vector<bool> removed(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    for (int u : graph.neighbors(v)) {
      remaining_degree[v] += graph.coupling_weight(static_cast<std::size_t>(u), v);
    }
  }
  Ordering order(n);
  for (std::size_t slot = n; slot-- > 0;) {
    // Remove the vertex with the smallest remaining weighted degree.
    std::size_t pick = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < n; ++v) {
      if (!removed[v] && remaining_degree[v] < best) {
        best = remaining_degree[v];
        pick = v;
      }
    }
    removed[pick] = true;
    order[slot] = static_cast<int>(pick);
    for (int u : graph.neighbors(pick)) {
      if (!removed[u]) {
        remaining_degree[u] -=
            graph.coupling_weight(pick, static_cast<std::size_t>(u));
      }
    }
  }
  return order;
}

}  // namespace ssa
