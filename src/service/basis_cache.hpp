#pragma once
/// \file basis_cache.hpp
/// The per-shard warm store: an LRU of WarmState entries
/// (core/auction_lp.hpp) keyed by the STRUCTURAL fingerprint of an
/// instance (support/fingerprint.hpp) -- valuations excluded. Values enter
/// LPs (1)/(4) and the Section 2.2 demand-oracle master only through the
/// objective, so one instance's optimal basis is a primal-feasible (often
/// still optimal) start for every value-perturbed variant, and one colgen
/// run's columns are a valid restricted master for each of them. The
/// AuctionService worker banks each clean solve's warm state here (a basis
/// for "lp-rounding", a basis plus columns for "asymmetric-colgen") and
/// hands it back through SolveOptions::warm_context on the next
/// structurally identical request. One entry budget bounds both kinds.
///
/// The store holds hints, not answers: a stale / mismatched / singular
/// entry costs one failed install or filtered seeds and a cold solve, never
/// a wrong result (lp/simplex.hpp owns the fallback, and the oracle loop
/// re-proves optimality whatever seeded the master). That is why entries
/// can be evicted or dropped freely -- and why they are deliberately NOT
/// part of the ResultCache snapshot: after restore_snapshot the warm stores
/// start cold and simply refill (see service/result_cache.hpp).
///
/// Not thread-safe; the owning shard serializes access under its own lock.

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>

#include "core/auction_lp.hpp"

namespace ssa::service {

/// One banked warm state (basis, dimensions, colgen columns).
using BasisCacheEntry = WarmState;

/// Entry-count-bounded LRU map fingerprint-hex -> BasisCacheEntry.
class BasisCache {
 public:
  /// \p max_entries = 0 disables the cache (lookups miss, inserts drop).
  explicit BasisCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// Returns the entry for \p key and marks it most recently used, or
  /// nullptr on a miss. The pointer is invalidated by the next insert().
  [[nodiscard]] const BasisCacheEntry* lookup(const std::string& key);

  /// Inserts or replaces the entry for \p key as most recently used,
  /// evicting the least recently used entry when full.
  void insert(const std::string& key, BasisCacheEntry entry);

  [[nodiscard]] std::size_t entries() const noexcept { return map_.size(); }
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

 private:
  struct Node {
    std::string key;
    BasisCacheEntry entry;
  };

  std::size_t max_entries_;
  std::list<Node> order_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Node>::iterator> map_;
};

}  // namespace ssa::service
