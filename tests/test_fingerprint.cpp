// Tests for the canonical instance fingerprints (support/fingerprint.hpp):
// equal content hashes equal, any structural perturbation (graph edge,
// edge weight, valuation, channel count, ordering, instance family)
// changes the fingerprint, and the AnyInstance dispatch covers the empty
// view with its own sentinel.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gen/scenario.hpp"
#include "support/fingerprint.hpp"

namespace ssa {
namespace {

AuctionInstance tiny_instance(double extra_weight = 0.0,
                              double second_value = 3.0, int k = 2) {
  ConflictGraph graph(3);
  graph.add_edge(0, 1);
  if (extra_weight > 0.0) graph.set_weight(1, 2, extra_weight);
  std::vector<ValuationPtr> valuations;
  valuations.push_back(std::make_shared<AdditiveValuation>(
      std::vector<double>(static_cast<std::size_t>(k), 4.0)));
  valuations.push_back(std::make_shared<AdditiveValuation>(
      std::vector<double>(static_cast<std::size_t>(k), second_value)));
  valuations.push_back(std::make_shared<UnitDemandValuation>(
      std::vector<double>(static_cast<std::size_t>(k), 2.0)));
  return AuctionInstance(std::move(graph), identity_ordering(3), k,
                         std::move(valuations));
}

TEST(Fingerprint, EqualContentHashesEqual) {
  // Two independently built but structurally identical instances.
  const Fingerprint a = fingerprint(tiny_instance());
  const Fingerprint b = fingerprint(tiny_instance());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);

  // Generator reproducibility carries over to fingerprints.
  const AuctionInstance g1 =
      gen::make_disk_auction(15, 2, gen::ValuationMix::kMixed, 99);
  const AuctionInstance g2 =
      gen::make_disk_auction(15, 2, gen::ValuationMix::kMixed, 99);
  EXPECT_EQ(fingerprint(g1), fingerprint(g2));
}

TEST(Fingerprint, StructuralPerturbationsChangeTheHash) {
  const Fingerprint base = fingerprint(tiny_instance());
  // A new weighted edge, a different edge weight, a different valuation
  // and a different channel count must all be distinguishable.
  EXPECT_NE(base, fingerprint(tiny_instance(0.5)));
  EXPECT_NE(fingerprint(tiny_instance(0.5)), fingerprint(tiny_instance(0.7)));
  EXPECT_NE(base, fingerprint(tiny_instance(0.0, 3.5)));
  EXPECT_NE(base, fingerprint(tiny_instance(0.0, 3.0, 3)));

  const AuctionInstance g1 =
      gen::make_disk_auction(15, 2, gen::ValuationMix::kMixed, 99);
  const AuctionInstance g2 =
      gen::make_disk_auction(15, 2, gen::ValuationMix::kMixed, 100);
  EXPECT_NE(fingerprint(g1), fingerprint(g2));
}

TEST(Fingerprint, OrderingEntersTheHash) {
  ConflictGraph graph(3);
  graph.add_edge(0, 1);
  std::vector<ValuationPtr> valuations;
  for (int v = 0; v < 3; ++v) {
    valuations.push_back(std::make_shared<AdditiveValuation>(
        std::vector<double>{4.0, 2.0}));
  }
  auto graph2 = graph;
  auto valuations2 = valuations;
  const AuctionInstance identity(std::move(graph), identity_ordering(3), 2,
                                 std::move(valuations));
  const AuctionInstance reversed(std::move(graph2), Ordering{2, 1, 0}, 2,
                                 std::move(valuations2));
  EXPECT_NE(fingerprint(identity), fingerprint(reversed));
}

TEST(Fingerprint, FamiliesAndEmptyViewAreDistinct) {
  // A symmetric and an asymmetric instance over the same bidder count must
  // not collide through the shared AnyInstance entry point.
  const AuctionInstance symmetric =
      gen::make_disk_auction(10, 2, gen::ValuationMix::kMixed, 7);
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(10, 2, 0.3, gen::ValuationMix::kMixed, 7);
  const Fingerprint sym_fp = fingerprint(AnyInstance(symmetric));
  const Fingerprint asym_fp = fingerprint(AnyInstance(asymmetric));
  EXPECT_NE(sym_fp, asym_fp);
  EXPECT_EQ(sym_fp, fingerprint(symmetric));
  EXPECT_EQ(asym_fp, fingerprint(asymmetric));

  const Fingerprint empty_fp = fingerprint(AnyInstance());
  EXPECT_NE(empty_fp, sym_fp);
  EXPECT_NE(empty_fp, asym_fp);
  EXPECT_EQ(empty_fp, fingerprint(AnyInstance()));
}

TEST(Fingerprint, AsymmetricPerChannelGraphsAreCovered) {
  const AsymmetricInstance a =
      gen::make_random_asymmetric(12, 3, 0.25, gen::ValuationMix::kMixed, 40);
  const AsymmetricInstance b =
      gen::make_random_asymmetric(12, 3, 0.25, gen::ValuationMix::kMixed, 40);
  const AsymmetricInstance c =
      gen::make_random_asymmetric(12, 3, 0.25, gen::ValuationMix::kMixed, 41);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(StructuralFingerprint, InvariantUnderValueRescaling) {
  // The basis-cache key (service/basis_cache.hpp): rescaling positive
  // bundle values keeps the LP constraint matrix, so the structural
  // fingerprint must not move -- while the full fingerprint must.
  const AuctionInstance base = tiny_instance();
  const AuctionInstance rescaled = tiny_instance(0.0, 4.5);
  EXPECT_EQ(structural_fingerprint(base), structural_fingerprint(rescaled));
  EXPECT_NE(fingerprint(base), fingerprint(rescaled));
  EXPECT_NE(structural_fingerprint(base), fingerprint(base));
}

TEST(StructuralFingerprint, SupportChangesTheKey) {
  // Zeroing a previously positive bundle removes that column from the
  // explicit LP, so the constraint matrices differ and the structural
  // fingerprints must separate (a stale basis would fail to install).
  const AuctionInstance base = tiny_instance();
  std::vector<double> values(num_bundles(base.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(base.num_channels()); ++t) {
    values[t] = base.value(1, t);
  }
  values[1] = 0.0;  // kill one singleton column of bidder 1
  const AuctionInstance support_changed = base.with_valuation(
      1, std::make_shared<ExplicitValuation>(base.num_channels(),
                                             std::move(values)));
  EXPECT_NE(structural_fingerprint(base),
            structural_fingerprint(support_changed));
}

TEST(StructuralFingerprint, AsymmetricSupportPatternIsCovered) {
  // The warm-store key (service/basis_cache.hpp): rescaling
  // positive bundle values of an asymmetric instance keeps the
  // restricted-master constraint matrix, so the structural fingerprint
  // must not move -- while zeroing a bundle (a support change) removes a
  // candidate column and must separate the keys.
  const AsymmetricInstance base =
      gen::make_random_asymmetric(10, 2, 0.3, gen::ValuationMix::kMixed, 55);

  std::vector<double> rescaled_values(num_bundles(base.num_channels()), 0.0);
  std::vector<double> support_values(num_bundles(base.num_channels()), 0.0);
  Bundle killed = kEmptyBundle;
  for (Bundle t = 1; t < num_bundles(base.num_channels()); ++t) {
    const double old = base.value(1, t);
    if (old > 0.0) {
      rescaled_values[t] = old * 1.75;
      if (killed == kEmptyBundle) killed = t;  // first positive bundle
      else support_values[t] = old;
    }
  }
  ASSERT_NE(killed, kEmptyBundle);

  const AsymmetricInstance rescaled = base.with_valuation(
      1, std::make_shared<ExplicitValuation>(base.num_channels(),
                                             std::move(rescaled_values)));
  EXPECT_EQ(structural_fingerprint(base), structural_fingerprint(rescaled));
  EXPECT_NE(fingerprint(base), fingerprint(rescaled));

  const AsymmetricInstance support_changed = base.with_valuation(
      1, std::make_shared<ExplicitValuation>(base.num_channels(),
                                             std::move(support_values)));
  EXPECT_NE(structural_fingerprint(base),
            structural_fingerprint(support_changed));
}

TEST(StructuralFingerprint, GraphOrderingAndRhoEnterTheKey) {
  const Fingerprint base = structural_fingerprint(tiny_instance());
  EXPECT_NE(base, structural_fingerprint(tiny_instance(0.5)));
  EXPECT_NE(base, structural_fingerprint(tiny_instance(0.0, 3.0, 3)));

  ConflictGraph graph(3);
  graph.add_edge(0, 1);
  std::vector<ValuationPtr> valuations;
  for (int v = 0; v < 3; ++v) {
    valuations.push_back(std::make_shared<AdditiveValuation>(
        std::vector<double>{4.0, 2.0}));
  }
  auto graph2 = graph;
  auto valuations2 = valuations;
  auto graph3 = graph;
  auto valuations3 = valuations;
  const AuctionInstance rho2(std::move(graph), identity_ordering(3), 2,
                             std::move(valuations), 2.0);
  const AuctionInstance rho3(std::move(graph2), identity_ordering(3), 2,
                             std::move(valuations2), 3.0);
  const AuctionInstance reversed(std::move(graph3), Ordering{2, 1, 0}, 2,
                                 std::move(valuations3), 2.0);
  EXPECT_NE(structural_fingerprint(rho2), structural_fingerprint(rho3));
  EXPECT_NE(structural_fingerprint(rho2), structural_fingerprint(reversed));
}

TEST(StructuralFingerprint, FamiliesStaySeparated) {
  const AuctionInstance symmetric =
      gen::make_disk_auction(10, 2, gen::ValuationMix::kMixed, 7);
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(10, 2, 0.3, gen::ValuationMix::kMixed, 7);
  EXPECT_NE(structural_fingerprint(AnyInstance(symmetric)),
            structural_fingerprint(AnyInstance(asymmetric)));
  EXPECT_EQ(structural_fingerprint(AnyInstance(symmetric)),
            structural_fingerprint(symmetric));
  EXPECT_NE(structural_fingerprint(AnyInstance()),
            structural_fingerprint(symmetric));
}

TEST(Fingerprint, GoldenValuesPinTheOnDiskKeyFormat) {
  // Fingerprints are the keys of the persisted result-cache snapshots
  // (service/result_cache.hpp), so the hashing scheme must not drift
  // silently between builds: a drift would turn every restored snapshot
  // into a permanent cache miss. These exact values were produced by the
  // scheme shipped with snapshot version 1; if a deliberate scheme change
  // breaks this test, bump ResultCache::kSnapshotVersion and re-pin.
  EXPECT_EQ(fingerprint(tiny_instance()).hex(),
            "526e5319d800497b64abcc2a42c8e469");
  EXPECT_EQ(fingerprint(AnyInstance()).hex(),
            "08ebe3ad81e0d286b5a170f7fa4fb61b");
  // The structural scheme (basis-cache keys) is pinned separately; it is
  // in-memory only today, but pinning keeps any drift deliberate.
  EXPECT_EQ(structural_fingerprint(tiny_instance()).hex(),
            "86dd5c3d5ee1d30c9b51929dd2293e18");
  // The asymmetric structural scheme (column-pool keys) gained the
  // support-pattern words with the decomposition solver; pinned since.
  EXPECT_EQ(structural_fingerprint(gen::make_random_asymmetric(
                                       6, 2, 0.3, gen::ValuationMix::kMixed, 21))
                .hex(),
            "6d993fcde08d4244333211bc9462080e");

  FingerprintHasher hasher;
  hasher.mix(std::uint64_t{42});
  hasher.mix(1.5);
  hasher.mix(std::string_view("spectrum"));
  EXPECT_EQ(hasher.digest().hex(), "6899486d0b84e466edca37da00dd05de");
}

/// Byte-at-a-time reference of FingerprintHasher::mix(std::string_view):
/// the size as one word, then every 8 bytes as one big-endian word, then
/// the 1-7 bytes left over as one short big-endian word (no padding).
Fingerprint reference_byte_digest(std::string_view bytes) {
  FingerprintHasher hasher;
  hasher.mix(std::uint64_t{bytes.size()});
  for (std::size_t at = 0; at < bytes.size(); at += 8) {
    std::uint64_t word = 0;
    for (std::size_t i = at; i < bytes.size() && i < at + 8; ++i) {
      word = (word << 8) | static_cast<unsigned char>(bytes[i]);
    }
    hasher.mix(word);
  }
  return hasher.digest();
}

TEST(Fingerprint, ByteDigestMatchesAByteAtATimeReference) {
  // The door routes a submit by the digest of its payload bytes and the
  // backend keys its result cache by it (service/auction_service.hpp), so
  // the byte mixing is persisted in wire backends' snapshots. Bytes of
  // every value, high bit included, over every short-word length and one
  // payload-sized string.
  std::string bytes(14 * 1024, '\0');
  std::uint64_t state = 0x5eed;
  for (char& byte : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<char>(state >> 56);
  }
  for (std::size_t length = 0; length <= 17; ++length) {
    const std::string_view prefix(bytes.data(), length);
    FingerprintHasher hasher;
    hasher.mix(prefix);
    EXPECT_EQ(hasher.digest(), reference_byte_digest(prefix))
        << "length " << length;
  }
  FingerprintHasher hasher;
  hasher.mix(std::string_view(bytes));
  EXPECT_EQ(hasher.digest(), reference_byte_digest(bytes));
}

TEST(Fingerprint, HasherExtensionsAreOrderSensitive) {
  // The service composes cache keys by extending instance fingerprints;
  // the mixer must separate permuted and split inputs.
  FingerprintHasher ab;
  ab.mix(std::uint64_t{1});
  ab.mix(std::uint64_t{2});
  FingerprintHasher ba;
  ba.mix(std::uint64_t{2});
  ba.mix(std::uint64_t{1});
  EXPECT_NE(ab.digest(), ba.digest());

  FingerprintHasher joined;
  joined.mix(std::string_view("ab"));
  FingerprintHasher split;
  split.mix(std::string_view("a"));
  split.mix(std::string_view("b"));
  EXPECT_NE(joined.digest(), split.digest());

  FingerprintHasher zero;
  zero.mix(0.0);
  FingerprintHasher negative_zero;
  negative_zero.mix(-0.0);
  EXPECT_EQ(zero.digest(), negative_zero.digest());
}

}  // namespace
}  // namespace ssa
