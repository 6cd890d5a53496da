#pragma once
/// \file fingerprint.hpp
/// Canonical 128-bit fingerprints of auction instances, used as result-cache
/// keys by the auction service (service/auction_service.hpp): two
/// submissions of structurally identical instances -- same graphs, ordering,
/// rho, channel count and bundle values -- produce the same fingerprint, so
/// the second one is answered from the cache.
///
/// Valuations are type-erased (an abstract Valuation exposes only
/// value(bundle)), so they are fingerprinted through their value tables: for
/// k <= kExhaustiveChannels every bundle value enters the hash (the
/// fingerprint is then injective over value tables up to hash collisions);
/// for larger k the hash covers every singleton, the full bundle, and a
/// fixed pseudo-random sample of kSampledBundles bundles per bidder --
/// distinct valuations that agree on all sampled bundles collide by design.
/// Collisions of the underlying 128-bit mix are possible in principle and
/// harmless in practice: a cache hit replays a report for a fingerprint
/// match, exactly like any content-addressed cache.
///
/// STABILITY: fingerprints are persisted -- they are the keys of the
/// result-cache snapshot files (service/result_cache.hpp), so the hashing
/// scheme is load-bearing across process restarts, not just within one
/// run. An in-process service's snapshot holds content keys built from
/// fingerprint(); a wire backend's holds wire keys, FingerprintHasher
/// digests of the submit payload bytes (AuctionService::wire_key). Any
/// change to the mixing constants, the field order, the sampling scheme,
/// the byte mixing or which key a transport uses MUST bump
/// ResultCache::kSnapshotVersion so old snapshots are discarded as a cold
/// start instead of silently never hitting. tests/test_fingerprint.cpp
/// pins golden fingerprint values and the byte digest to make accidental
/// drift fail loudly.

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "api/any_instance.hpp"
#include "core/asymmetric.hpp"
#include "core/instance.hpp"

namespace ssa {

/// 128-bit content hash; value-comparable and usable as a hash-map key.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] friend bool operator==(const Fingerprint&,
                                       const Fingerprint&) = default;
  [[nodiscard]] friend auto operator<=>(const Fingerprint&,
                                        const Fingerprint&) = default;

  /// 32 hex digits (diagnostics, demo output).
  [[nodiscard]] std::string hex() const;
};

/// Incremental mixer behind the instance fingerprints. Exposed so callers
/// (the service composes cache keys from instance + request fields) can
/// extend a fingerprint with their own data.
class FingerprintHasher {
 public:
  /// Any integral (bool, int, Bundle, std::size_t, ...) mixes as its
  /// 64-bit value.
  template <typename T>
    requires std::is_integral_v<T>
  void mix(T value) noexcept {
    mix_word(static_cast<std::uint64_t>(value));
  }
  /// Mixes the bit pattern; -0.0 is normalized to 0.0 so numerically equal
  /// instances fingerprint equally.
  void mix(double value) noexcept;
  void mix(std::string_view text) noexcept;

  [[nodiscard]] Fingerprint digest() const noexcept;

 private:
  void mix_word(std::uint64_t value) noexcept;

  std::uint64_t a_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t b_ = 0xd1b54a32d192ed03ull;
};

/// Largest channel count whose 2^k - 1 bundle values are hashed
/// exhaustively per bidder (covers every explicit-LP instance; explicit
/// solvers cap at kExplicitChannelLimit = 12 and the column-generation
/// path's lifted demand oracle at kEnumerationChannelLimit = 20).
inline constexpr int kExhaustiveChannels = 16;
/// Pseudo-random bundles sampled per bidder beyond kExhaustiveChannels.
inline constexpr int kSampledBundles = 512;

[[nodiscard]] Fingerprint fingerprint(const AuctionInstance& instance);
[[nodiscard]] Fingerprint fingerprint(const AsymmetricInstance& instance);
/// Dispatches on the held type; the empty view gets a fixed sentinel
/// fingerprint distinct from every real instance's.
[[nodiscard]] Fingerprint fingerprint(const AnyInstance& instance);

/// Structural fingerprint: hashes everything the full fingerprint hashes
/// EXCEPT the valuation VALUES -- bidder count, channel count, rho, the
/// ordering, the conflict graph(s), and (for either family with
/// k <= kExhaustiveChannels) the per-bidder zero/nonzero bundle SUPPORT
/// pattern. Two instances that differ only in positive bundle values (the
/// churn-variant traffic of load/workload.hpp rescales, it does not move
/// zeros) share a structural fingerprint, and such instances share the
/// same LP constraint matrix: the explicit LP emits one column per
/// positive-value bundle, and values then enter only through the
/// objective. That is what makes this the key of the service's warm store
/// (service/basis_cache.hpp): an optimal basis of one variant is an
/// installable warm start for every other, and banked (bidder, bundle)
/// columns seed the asymmetric-colgen restricted master across variants
/// for the same reason. Same STABILITY rules as
/// fingerprint(); structural fingerprints are not persisted today (bases
/// start cold after a snapshot restore) but the golden pins in
/// tests/test_fingerprint.cpp hold the scheme still.
[[nodiscard]] Fingerprint structural_fingerprint(const AuctionInstance& instance);
[[nodiscard]] Fingerprint structural_fingerprint(const AsymmetricInstance& instance);
[[nodiscard]] Fingerprint structural_fingerprint(const AnyInstance& instance);

}  // namespace ssa

template <>
struct std::hash<ssa::Fingerprint> {
  [[nodiscard]] std::size_t operator()(
      const ssa::Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ull));
  }
};
