#pragma once
/// \file auction_service.hpp
/// The long-lived auction-serving layer over the solver registry: the
/// repeated, online allocation workload of secondary spectrum markets
/// (every auction round is one request) served by a sharded worker pool on
/// top of the same deadline-aware SolveScheduler core that drives
/// solve_batch.
///
///     AuctionService service;                       // 4 shards by default
///     RequestId id = service.submit(instance);      // auto solver selection
///     SolveReport report = service.get(id);         // blocking claim
///
/// Per request the service:
///  1. copies the instance into the request (submit takes the usual
///     non-owning AnyInstance view but the service outlives its callers'
///     stack frames, so requests own their data);
///  2. keys the request and routes it to the shard the key selects --
///     equal keys always meet the same shard and therefore the same
///     cache. An in-process submit is keyed by its content fingerprint
///     (canonical instance hash + solver request + the result-relevant
///     SolveOptions fields, support/fingerprint.hpp). A wire submit is
///     keyed by its payload bytes (wire_key): byte-equal payloads decode
///     to equal requests, so that key needs no decode. Equal content in
///     different bytes (another valuation class with the same values, a
///     legacy peer's options) then misses and re-solves to the same
///     payload -- a lost hit, never a wrong answer. The two key families
///     never meet: an entry made by one transport is found only by it;
///  3. answers from the shard's LRU result cache on a key hit
///     (SolveReport::cache_hit = true, allocation bitwise-equal to the
///     originating run), attaches to an identical request already queued or
///     running (coalescing, below), or enqueues it on the shard's worker
///     pool under the deadline/admission rules (below);
///  4. resolves the solver through the installed SelectionPolicy: an
///     explicit registry key, or "auto" with a per-policy fallback chain
///     that advances when a solver rejects the instance or times out
///     (SolveReport::solver_selected records the winner).
///
/// Deadlines and admission. A request's SolveOptions::time_budget_seconds
/// doubles as its effective deadline: submit time + budget. The shard queue
/// runs earliest-deadline-first (submission order tie-break; requests
/// without a budget run FIFO after every deadlined request), and the
/// scheduler's admission check projects the wait ahead of a new request
/// (queue depth x measured task cost); a request whose deadline is already
/// unmeetable is, per ServiceOptions::admission, either degraded -- it
/// still runs, but with its solver time budget clamped to the wall time
/// left before the deadline, so it truncates (and falls back down its
/// chain) instead of blowing the deadline further -- or rejected: never
/// executed, completed immediately with SolveReport::admission ==
/// Admission::kRejected and the reason in error. Degraded and rejected
/// requests are never cached (their payload depends on queue timing, not
/// content). ServiceOptions{QueuePolicy::kFifo, AdmissionPolicy::kAcceptAll}
/// reproduces the PR-3 behavior exactly.
///
/// Coalescing. Duplicate submissions of one key (step 2: content or wire,
/// so only duplicates through one transport meet) while the original is
/// still queued or in flight attach to it instead of recomputing: one
/// solver run (the leader's) completes every attached request with a
/// bitwise-identical payload. Only the provenance differs: the leader has
/// coalesced = false, followers have coalesced = true with
/// queue_wait_seconds holding their attach-to-completion latency (they
/// never enter a queue, and the leader's solve overlaps it -- see the
/// field doc in solver.hpp); cache_hit is false for all of them (the
/// cache never held the entry). Followers are always admitted --
/// attaching costs no worker time.
///
/// Warm starting. Each shard also keeps one small LRU warm store keyed by
/// the STRUCTURAL fingerprint of the instance (graph, ordering, rho --
/// valuations excluded, support/fingerprint.hpp; service/basis_cache.hpp).
/// A value-perturbed resubmission of a known structure hands its LP the
/// previous optimal basis as a starting point instead of pivoting from
/// scratch (SolveReport::warm_started, ServiceStats::warm_starts), and an
/// "asymmetric-colgen" churn variant's restricted master starts from the
/// donor's columns and terminal basis instead of regrowing them oracle
/// round by oracle round (ServiceStats::colgen_warm). Requests with
/// SolveOptions::warm_start = false skip the lookup but still bank. Purely
/// latency optimizations: the LP layer guarantees a warm-started solve
/// produces the same payload as a cold one (lp/simplex.hpp,
/// asymmetric_colgen.hpp), and any stale or incompatible hint falls back
/// to a cold solve.
///
/// Persistence. With ServiceOptions::snapshot_path set, the constructor
/// restores the result caches from that file (a missing, truncated,
/// corrupt or version-mismatched snapshot is a clean cold start) and
/// shutdown() writes the merged caches back. Snapshot entries are
/// re-routed by the current shard count on restore, so layouts may change
/// between runs. See result_cache.hpp for the on-disk format and its
/// compatibility policy.
///
/// Results are deterministic for a fixed request stream regardless of the
/// shard count and worker counts as long as no request is degraded:
/// sharding, caching and coalescing change placement and latency, never
/// the report payload (a cached report differs from a fresh one only in
/// the provenance/timing fields; a degraded run depends on queue timing by
/// design, which is why it is never cached).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/admission.hpp"
#include "api/any_instance.hpp"
#include "api/solver.hpp"
#include "obs/registry.hpp"
#include "service/selection_policy.hpp"
#include "support/fingerprint.hpp"

namespace ssa::service {

/// Ticket for a submitted request; claimed exactly once with get/try_get.
using RequestId = std::uint64_t;

struct ServiceOptions {
  /// Independent shards (worker pool + result cache + lock each); clamped
  /// to [1, 256]. More shards = more cache/queue independence, not
  /// different results.
  int shards = 4;
  /// Worker threads per shard (>= 1). Each request's solve runs on the
  /// worker that takes it, exactly like solve_batch workers: parallelism
  /// is request-level only.
  int threads_per_shard = 1;
  /// LRU byte budget per shard; 0 disables result caching.
  std::size_t cache_bytes_per_shard = std::size_t{8} << 20;
  /// LRU entry budget of the per-shard warm store (service/basis_cache.hpp):
  /// optimal bases -- plus generated columns for "asymmetric-colgen" --
  /// banked by STRUCTURAL fingerprint (valuations excluded) and replayed as
  /// warm-start hints for structurally identical requests. One budget
  /// bounds both kinds of entry; 0 disables warm starting. Purely a speed
  /// knob: a warm-started solve is payload-identical to the cold solve, so
  /// this never changes results -- and entries are not persisted with the
  /// result-cache snapshot (they start cold after a restore and refill
  /// from traffic).
  std::size_t basis_cache_entries_per_shard = 64;
  /// Solver selection policy; null installs DefaultSelectionPolicy.
  SelectionPolicyPtr policy = nullptr;
  /// Shard queue order (see the file comment); kFifo is the baseline.
  QueuePolicy queue = QueuePolicy::kDeadline;
  /// Handling of requests whose deadline is unmeetable at submission.
  AdmissionPolicy admission = AdmissionPolicy::kDegrade;
  /// Result-cache persistence: restore from this file at construction,
  /// write it back on shutdown(). Empty disables persistence.
  std::string snapshot_path;
  /// Observability/test hook, called on a worker thread right before a
  /// request actually executes its solver chain -- never for cache hits,
  /// coalesced followers or rejected requests, so it counts real solves.
  /// It receives the request key: the content fingerprint of an
  /// in-process submit, the wire key (wire_key) of a wire submit.
  /// Must be thread-safe; a slow hook stalls that worker (tests use this
  /// deliberately to hold a leader in flight).
  std::function<void(const Fingerprint&)> on_solve;
  /// Span/latency sampling period: every Nth submission records its span
  /// tree (service/queue, service/solve, ...) into the registry ring and
  /// its queue-wait/solve-wall latencies into the registry histograms.
  /// 1 = every request (the default), 0 = spans and latency histograms off
  /// entirely -- the metrics-disabled baseline of the E11 overhead bench.
  /// The COUNTERS are unaffected: they back stats() and always run (they
  /// are the same atomics the service always maintained). Purely
  /// observability: never changes any report payload.
  std::uint32_t span_sample_every = 1;
  /// Capacity of the registry's span ring (bounded; oldest overwritten).
  std::size_t span_capacity = obs::kDefaultSpanCapacity;
};

/// Monotonic service counters (stats()); approximate under concurrency.
/// A snapshot restore (ServiceOptions::snapshot_path) zeroes the traffic
/// counters (submitted/completed/cache_hits/coalesced): restored warmth
/// is visible as snapshot_restored + cache_entries, while hit rates are
/// always computed over THIS process life's traffic, never inherited.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< includes cache hits and rejections
  std::uint64_t cache_hits = 0;
  std::uint64_t fallbacks = 0;   ///< requests not served by their chain head
  std::uint64_t coalesced = 0;   ///< followers attached to an in-flight run
  std::uint64_t admission_degraded = 0;
  std::uint64_t admission_rejected = 0;
  /// Completed requests whose solver run was truncated by its time budget
  /// (SolveReport::timed_out; coalesced followers of a timed-out leader
  /// count too -- they received the truncated payload). stats() reports
  /// it on every transport.
  std::uint64_t timed_out = 0;
  /// Solver runs that warm-started their LP from a banked basis
  /// (SolveReport::warm_started; leaders only -- cache hits and coalesced
  /// followers never run a solver, so they never count).
  std::uint64_t warm_starts = 0;
  /// Column-generation solver runs that seeded their restricted master
  /// from banked columns (SolveReport::warm_started with
  /// oracle_rounds > 0; a subset of warm_starts' discipline, counted
  /// separately so pool reuse is observable next to basis reuse).
  std::uint64_t colgen_warm = 0;
  /// Cache entries restored from the snapshot at construction. Note the
  /// snapshot carries result-cache entries only: warm stores always start
  /// cold after a restore (warm_starts builds back up from traffic).
  std::uint64_t snapshot_restored = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
};

/// Sharded, cached, long-lived solving service. Thread-safe: submit/get
/// freely from any thread. Destruction performs a clean shutdown (finishes
/// everything in flight and queued, then joins).
class AuctionService {
 public:
  explicit AuctionService(ServiceOptions options = {});
  ~AuctionService();

  AuctionService(const AuctionService&) = delete;
  AuctionService& operator=(const AuctionService&) = delete;

  /// Enqueues one request. \p solver is a registry key or kAutoSolver; the
  /// instance is copied, so the caller's object may die immediately after.
  /// Throws std::runtime_error once shutdown() began and
  /// std::invalid_argument for an empty instance view.
  RequestId submit(const AnyInstance& instance,
                   const std::string& solver = kAutoSolver,
                   const SolveOptions& options = {});

  /// submit under a caller-computed \p key, with the same admission,
  /// coalescing, deadline and error contract. The key must determine the
  /// report: equal keys share one cache entry and coalesce. The wire
  /// server submits a decoded cache miss under its wire_key.
  RequestId submit(const Fingerprint& key, const AnyInstance& instance,
                   const std::string& solver, const SolveOptions& options);

  /// The key of a wire submit: the digest of a fixed tag, the policy name
  /// and the submit payload bytes (wire::encode_submit). The tag keeps it
  /// independent of the door's route, the digest of the bare payload, so
  /// the requests one backend receives still spread over all its shards.
  /// The policy name keeps a snapshot restored under another policy from
  /// serving wire hits, as it does for content keys.
  [[nodiscard]] Fingerprint wire_key(std::string_view payload) const noexcept;

  /// Cache-only submit: when \p key is cached and the service still
  /// accepts submits, completes a new request from the cache -- a hit like
  /// submit's, counters and sampled span included -- and returns its id.
  /// Otherwise returns nullopt and changes nothing. It never decodes,
  /// queues or waits for anything but the shard lock, so a wire server's
  /// loop thread tries it for every submit. \p context is the caller's
  /// span context.
  [[nodiscard]] std::optional<RequestId> submit_cached(
      const Fingerprint& key, const obs::SpanContext& context);

  /// Blocks until \p id completes and claims its report (each id can be
  /// claimed once; a second claim throws std::invalid_argument).
  [[nodiscard]] SolveReport get(RequestId id);

  /// Non-blocking poll: claims and returns the report when done, nullopt
  /// while still queued/running. Unknown or already-claimed ids throw.
  [[nodiscard]] std::optional<SolveReport> try_get(RequestId id);

  /// Async completion hook: invokes \p callback exactly once when \p id
  /// leaves the pending state -- immediately (inline, before returning)
  /// when the id is already completed, claimed or unknown, otherwise on
  /// the worker thread that completes it. The callback claims via
  /// try_get/get itself (an unknown/claimed id then throws there, which
  /// is how the error surfaces). Multiple watchers per id are allowed;
  /// each fires once. This is what lets a wire server answer a BLOCKING
  /// get without parking a thread per waiting client
  /// (net/service_server.cpp). The callback runs under no service lock
  /// but must not block: it stalls a solve worker otherwise.
  void watch(RequestId id, std::function<void()> callback);

  /// Blocks until every submitted request has completed (the service stays
  /// open for new submissions).
  void drain();

  /// Stops accepting submissions, completes everything queued or in
  /// flight, joins the workers, and -- when ServiceOptions::snapshot_path
  /// is set -- writes the cache snapshot. Completed reports stay claimable
  /// through get/try_get. Idempotent.
  void shutdown();

  /// Writes the merged result-cache snapshot to \p path (mid-run
  /// checkpoint; shutdown() does this automatically when
  /// ServiceOptions::snapshot_path is set). Returns false when the file
  /// cannot be written.
  bool save_snapshot(const std::string& path) const;

  [[nodiscard]] int shards() const noexcept;

  /// The PR-3 counter block, now a VIEW over the metrics registry: every
  /// field reads the matching "service.*" counter, so the wire stats
  /// codec and its semantics are unchanged while the counters themselves
  /// live in the registry next to everything else (one source of truth).
  [[nodiscard]] ServiceStats stats() const;

  /// This service's metrics registry ("service.*" counters, the
  /// scheduler's gauge/verdicts, latency histograms, the span ring).
  /// Per-instance rather than process-global so in-process multi-backend
  /// topologies (tests, benches) see the same per-backend snapshots a
  /// multi-process deployment would.
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }

  /// Point-in-time telemetry export: the registry snapshot with the
  /// point-in-time cache gauges ("service.cache_entries"/"..._bytes",
  /// "service.basis_entries": warm-store entries of both kinds) refreshed
  /// first.
  /// The payload of the kGetTelemetry wire frame.
  [[nodiscard]] obs::TelemetrySnapshot telemetry() const;

 private:
  struct Shard;
  struct Request;
  struct SpanSample;

  [[nodiscard]] Shard& shard_of(RequestId id) const;
  [[nodiscard]] SpanSample sample_span(std::uint64_t sequence,
                                       const obs::SpanContext& context) const;
  /// Completes \p id with the cached \p report; requires shard.mutex held.
  void complete_from_cache(Shard& shard, RequestId id, SolveReport report,
                           const SpanSample& span);
  [[nodiscard]] SolveReport execute(const Request& request,
                                    const SolveOptions& options);
  void restore_snapshot();

  ServiceOptions options_;
  SelectionPolicyPtr policy_;
  /// wire_key's hasher after the tag and the policy name.
  FingerprintHasher wire_seed_;
  /// Declared before the shards: shard schedulers hold instrument handles
  /// into it, and before the counter references below.
  mutable obs::Registry registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_sequence_{1};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> snapshot_written_{false};
  // Stats counters as registry instruments (striped atomics; exact).
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& cache_hits_;
  obs::Counter& fallbacks_;
  obs::Counter& coalesced_;
  obs::Counter& admission_degraded_;
  obs::Counter& admission_rejected_;
  obs::Counter& timed_out_;
  obs::Counter& warm_starts_;
  obs::Counter& colgen_warm_;
  obs::Counter& snapshot_restored_;
  // Warm-hint observability beyond ServiceStats: how often the per-shard
  // warm store served a hint (a basis-only entry counts as a basis hit, an
  // entry with colgen columns as a pool hit), and how many solver chains
  // ran at all.
  obs::Counter& basis_hits_;
  obs::Counter& pool_hits_;
  obs::Counter& solves_;
  // Sampled latency distributions (span_sample_every gates recording).
  obs::Histogram& queue_wait_hist_;
  obs::Histogram& solve_hist_;
};

}  // namespace ssa::service
