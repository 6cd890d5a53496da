#pragma once
/// \file result_cache.hpp
/// Per-shard LRU result cache of the AuctionService, keyed by the request
/// key: the canonical content fingerprint of an in-process submit
/// (instance content + solver request + options, see
/// support/fingerprint.hpp) or the wire key of a wire submit (the digest
/// of its payload bytes, AuctionService::wire_key). So a wire backend's
/// snapshot holds wire keys and an in-process service's snapshot holds
/// content keys; each is hit only by its own transport. Each shard owns
/// one ResultCache guarded by the
/// shard's own mutex, so cache traffic never takes a service-global lock.
/// Eviction is by byte budget: every stored SolveReport is costed with
/// estimated_report_bytes and least-recently-used entries are dropped until
/// the shard is back under budget.
///
/// Snapshot format (write_snapshot/read_snapshot): a versioned binary dump
/// of every cached (fingerprint, report) pair so a service restart resumes
/// with its prior hit rate. Layout: an 8-byte magic, a u32
/// kSnapshotVersion, a u64 entry count, then the entries least-recently
/// used first (replaying the file in order through insert() reproduces the
/// recency order). The per-report byte layout is the shared codec of
/// wire/codec.hpp -- the same bytes the network wire protocol ships -- so
/// the two formats cannot drift apart; this file owns only the snapshot
/// envelope. Readers treat ANY anomaly (wrong magic, other version,
/// truncation, implausible sizes) as "no snapshot" and return nullopt, so
/// a corrupt file costs a cold start, never a crash. Bump kSnapshotVersion
/// whenever the serialized SolveReport layout or either key scheme
/// changes (tests/test_fingerprint.cpp pins golden fingerprint values and
/// tests/test_wire.cpp pins golden report bytes, so silent drift of either
/// fails loudly).
///
/// The snapshot carries RESULTS only. Warm states (the per-shard warm
/// store, service/basis_cache.hpp) are deliberately excluded: an entry is
/// a runtime hint tied to this build's simplex internals, worthless if
/// wrong and cheap to regenerate, so after a restore the warm stores
/// start cold and the first solve of each structure re-banks one
/// (tests/test_service.cpp pins that contract).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "support/fingerprint.hpp"

namespace ssa::service {

/// Approximate heap footprint of a stored report (allocation, strings, LP
/// columns, mechanism payload). Used for the cache byte budget; exact
/// accounting is not required, consistent accounting is.
[[nodiscard]] std::size_t estimated_report_bytes(const SolveReport& report);

/// Single-shard LRU cache. NOT thread-safe: the owning shard serializes
/// access (one mutex per shard, by design -- see the file comment).
class ResultCache {
 public:
  /// Schema version of the snapshot files; see the file comment for when
  /// to bump it. History: 2 added SolveReport::warm_started/pivots to the
  /// shared report codec; 3 added SolveReport::oracle_rounds/
  /// columns_generated; 4 keyed wire submits by their payload bytes, so a
  /// wire backend's version-3 snapshot (content keys) could never hit.
  static constexpr std::uint32_t kSnapshotVersion = 4;

  /// \p byte_budget 0 disables caching entirely (every lookup misses).
  explicit ResultCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

  /// Returns the cached report for \p key and marks it most recently used.
  [[nodiscard]] std::optional<SolveReport> lookup(const Fingerprint& key);

  /// Inserts (or refreshes) \p report under \p key, then evicts LRU entries
  /// until the byte budget holds. A report larger than the whole budget is
  /// not cached.
  void insert(const Fingerprint& key, SolveReport report);

  /// Visits every entry least-recently used first (snapshot order).
  template <typename Fn>
  void for_each_lru_first(Fn&& fn) const {
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      fn(it->key, it->report);
    }
  }

  [[nodiscard]] std::size_t entries() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t byte_budget() const noexcept {
    return byte_budget_;
  }

 private:
  struct Entry {
    Fingerprint key;
    SolveReport report;
    std::size_t bytes = 0;
  };

  void evict_to_budget();

  std::size_t byte_budget_;
  std::size_t bytes_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Fingerprint, std::list<Entry>::iterator> index_;
};

/// One (key, report) pair of a snapshot.
struct SnapshotEntry {
  Fingerprint key;
  SolveReport report;
};

/// Copies every entry of \p cache, least-recently used first (snapshot
/// order: replaying through insert() reproduces the recency), onto
/// \p entries. Callers snapshot under their own locks, then serialize the
/// copies with write_snapshot after releasing them -- the disk write must
/// never run inside a shard lock.
void append_snapshot_entries(const ResultCache& cache,
                             std::vector<SnapshotEntry>& entries);

/// Writes \p entries as one snapshot stream (see the format notes in the
/// file comment).
void write_snapshot(std::ostream& out,
                    const std::vector<SnapshotEntry>& entries);

/// Parses a snapshot stream. Returns nullopt -- never throws, never
/// returns a partial prefix -- on wrong magic, version mismatch,
/// truncation or any other corruption: the caller cold-starts.
[[nodiscard]] std::optional<std::vector<SnapshotEntry>> read_snapshot(
    std::istream& in);

}  // namespace ssa::service
