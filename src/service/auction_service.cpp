#include "service/auction_service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <variant>

#include "api/registry.hpp"
#include "api/scheduler.hpp"
#include "service/basis_cache.hpp"
#include "service/result_cache.hpp"
#include "support/deadline.hpp"

namespace ssa::service {

namespace {

/// Low bits of a RequestId address the shard; the rest is a sequence
/// number, so ids stay unique service-wide while get() can route to the
/// owning shard without a global table.
constexpr int kShardBits = 8;
constexpr int kMaxShards = 1 << kShardBits;

/// Folds the result-relevant SolveOptions fields into the cache key.
/// time_budget_seconds is included: although timed-out reports are never
/// cached, the budget also scales the exact solvers' node budgets, which
/// changes reports that finish in time.
void mix_options(FingerprintHasher& hasher, const SolveOptions& options) {
  hasher.mix(options.seed);
  hasher.mix(options.time_budget_seconds);
  hasher.mix(options.pipeline.rounding_repetitions);
  hasher.mix(static_cast<std::uint64_t>(options.pipeline.derandomize));
  hasher.mix(static_cast<std::uint64_t>(
      options.pipeline.force_column_generation));
  hasher.mix(options.pipeline.explicit_limit);
  hasher.mix(options.pipeline.time_budget_seconds);
  hasher.mix(options.exact.node_budget);
  hasher.mix(options.exact.max_channels);
  hasher.mix(static_cast<std::uint64_t>(options.mechanism.use_colgen));
  hasher.mix(options.mechanism.explicit_limit);
  hasher.mix(options.mechanism.decomposition.alpha);
  hasher.mix(options.mechanism.decomposition.rounding_repetitions);
  hasher.mix(options.mechanism.decomposition.max_rounds);
  hasher.mix(static_cast<std::uint64_t>(
      options.mechanism.decomposition.use_exact_pricing));
  // Section seeds are subsumed by the shared seed in every adapter, so
  // they do not enter the key.
}

/// The shard that owns \p key: equal keys always meet one shard.
std::size_t shard_index(const Fingerprint& key, std::size_t shards) {
  return static_cast<std::size_t>(key.hi % static_cast<std::uint64_t>(shards));
}

}  // namespace

/// Span sampling (ServiceOptions::span_sample_every): when `traced`, the
/// request records its span tree and latencies. `inbound` is the caller's
/// span context -- the service mints a fresh trace when the caller sent
/// none -- and `start_unix` the submit wall-clock time (span timestamps
/// are wall clock; durations stay steady-clock measured).
struct AuctionService::SpanSample {
  bool traced = false;
  obs::SpanContext inbound;
  double start_unix = 0.0;
};

/// One queued/completed request. Owns a copy of the instance: the service
/// outlives the caller's stack frame, so views would dangle.
struct AuctionService::Request {
  std::variant<std::monostate, AuctionInstance, AsymmetricInstance> instance;
  std::string solver;
  SolveOptions options;
  Fingerprint key;
  /// Warm-store key: the STRUCTURAL fingerprint hex (valuations excluded),
  /// so value-perturbed variants of one structure share a slot. Unlike
  /// `key`, never used for result lookup -- only for warm-start hints.
  std::string structural_key;
  /// Effective deadline (submit time + time budget; time_point::max() when
  /// unlimited). Degraded runs clamp their solver budget against it.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Admission verdict, written under the shard lock before the worker
  /// task can observe the request.
  Admission admission = Admission::kAccepted;
  SpanSample span;

  [[nodiscard]] AnyInstance view() const {
    if (const auto* sym = std::get_if<AuctionInstance>(&instance)) {
      return AnyInstance(*sym);
    }
    if (const auto* asym = std::get_if<AsymmetricInstance>(&instance)) {
      return AnyInstance(*asym);
    }
    return AnyInstance();
  }
};

/// Shard: worker pool + result cache + completion and in-flight tables,
/// with one lock. Each request belongs to exactly one shard (chosen by its
/// fingerprint), so shards never contend with each other.
struct AuctionService::Shard {
  Shard(const SchedulerOptions& scheduler_options, std::size_t cache_bytes,
        std::size_t warm_entries)
      : cache(cache_bytes), bases(warm_entries), scheduler(scheduler_options) {}

  /// A request attached to an in-flight leader; completed from the
  /// leader's report with coalesced = true and its own queue wait.
  struct Follower {
    RequestId id = 0;
    std::chrono::steady_clock::time_point attached;
  };

  std::mutex mutex;
  std::condition_variable completed_cv;
  ResultCache cache;
  /// The warm store: bases and colgen columns keyed by structural
  /// fingerprint; guarded by `mutex` like the result cache. Never
  /// snapshotted: restore_snapshot leaves it empty by design (an entry is
  /// a hint, warmth refills from traffic).
  BasisCache bases;
  /// Pending requests (owned until their worker finishes) and completed
  /// reports awaiting their get()/try_get() claim.
  std::unordered_map<RequestId, std::shared_ptr<Request>> pending;
  std::unordered_map<RequestId, SolveReport> completed;
  /// Async completion watchers (watch()), fired outside the lock by the
  /// worker that moves the id from pending to completed.
  std::unordered_map<RequestId, std::vector<std::function<void()>>> watchers;
  /// In-flight table: a key is present from the leader's enqueue until its
  /// completion; duplicate submissions in that window attach here instead
  /// of enqueueing a second computation.
  std::unordered_map<Fingerprint, std::vector<Follower>> inflight;

  /// Moves \p id's watchers into \p fired (invoked by the caller after
  /// unlocking). Requires mutex held.
  void take_watchers(RequestId id,
                     std::vector<std::function<void()>>& fired) {
    const auto it = watchers.find(id);
    if (it == watchers.end()) return;
    for (std::function<void()>& watcher : it->second) {
      fired.push_back(std::move(watcher));
    }
    watchers.erase(it);
  }
  /// Declared last: the scheduler's destructor joins its workers before
  /// the maps above are torn down.
  SolveScheduler scheduler;
};

AuctionService::AuctionService(ServiceOptions options)
    : options_(std::move(options)),
      policy_(options_.policy ? options_.policy
                              : std::make_shared<DefaultSelectionPolicy>()),
      // span_sample_every = 0 means "no spans, ever": size the ring to
      // zero so even untraced code paths cannot record by accident.
      registry_(obs::RegistryOptions{
          options_.span_sample_every == 0 ? 0 : options_.span_capacity}),
      submitted_(registry_.counter("service.submitted")),
      completed_(registry_.counter("service.completed")),
      cache_hits_(registry_.counter("service.cache_hits")),
      fallbacks_(registry_.counter("service.fallbacks")),
      coalesced_(registry_.counter("service.coalesced")),
      admission_degraded_(registry_.counter("service.admission_degraded")),
      admission_rejected_(registry_.counter("service.admission_rejected")),
      timed_out_(registry_.counter("service.timed_out")),
      warm_starts_(registry_.counter("service.warm_starts")),
      colgen_warm_(registry_.counter("service.colgen_warm")),
      snapshot_restored_(registry_.counter("service.snapshot_restored")),
      basis_hits_(registry_.counter("service.basis_hits")),
      pool_hits_(registry_.counter("service.pool_hits")),
      solves_(registry_.counter("service.solves")),
      queue_wait_hist_(registry_.histogram("service.queue_wait_seconds")),
      solve_hist_(registry_.histogram("service.solve_seconds")) {
  const int shard_count = std::clamp(options_.shards, 1, kMaxShards);
  SchedulerOptions scheduler_options;
  scheduler_options.threads = std::max(1, options_.threads_per_shard);
  scheduler_options.queue = options_.queue;
  scheduler_options.admission = options_.admission;
  // One registry across every shard scheduler: the queue-depth gauge reads
  // total backlog, the verdict counters total admission decisions.
  scheduler_options.metrics = &registry_;
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        scheduler_options, options_.cache_bytes_per_shard,
        options_.basis_cache_entries_per_shard));
  }
  wire_seed_.mix(std::string_view("wire-submit"));
  wire_seed_.mix(std::string_view(policy_->name()));
  if (!options_.snapshot_path.empty()) restore_snapshot();
}

AuctionService::~AuctionService() { shutdown(); }

int AuctionService::shards() const noexcept {
  return static_cast<int>(shards_.size());
}

AuctionService::Shard& AuctionService::shard_of(RequestId id) const {
  // The low kShardBits of every id are its shard index (see submit).
  const std::size_t index =
      static_cast<std::size_t>(id) & (static_cast<std::size_t>(kMaxShards) - 1);
  if (index >= shards_.size()) {
    throw std::invalid_argument("AuctionService: malformed request id");
  }
  return *shards_[index];
}

void AuctionService::restore_snapshot() {
  // Restores RESULT caches only. The per-shard warm stores deliberately
  // start cold: their entries are runtime hints tied to this build's
  // simplex internals, and the first solve of each structure simply
  // re-banks one (test_service pins this contract).
  try {
    std::ifstream in(options_.snapshot_path, std::ios::binary);
    if (!in) return;  // no snapshot yet: cold start
    const std::optional<std::vector<SnapshotEntry>> entries =
        read_snapshot(in);
    if (!entries) return;  // corrupt/mismatched snapshot: cold start
    for (const SnapshotEntry& entry : *entries) {
      // Re-route by the CURRENT shard count -- the snapshot may come from
      // a different layout; what must match submit's routing is the
      // modulus.
      Shard& shard = *shards_[shard_index(entry.key, shards_.size())];
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.cache.insert(entry.key, entry.report);
    }
    // Report what the caches actually retained, not what the file held:
    // a restart with smaller byte budgets evicts during the loop above,
    // and stats must not claim warmth the cache does not have. (The
    // caches are empty before restore, so the post-restore entry count is
    // exactly the retained set.)
    std::uint64_t retained = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      retained += shard->cache.entries();
    }
    snapshot_restored_.store(retained);
    // Restored warmth must not inherit measured traffic: the hit/miss
    // counters restart at zero so the post-restore hit rate is computed
    // from a clean baseline (snapshot_restored alone says what carried
    // over). Explicit rather than implied by construction order, so a
    // future restore-at-runtime path keeps the invariant.
    cache_hits_.store(0);
    submitted_.store(0);
    completed_.store(0);
    coalesced_.store(0);
  } catch (...) {
    // The snapshot is a warm-start optimization; whatever went wrong
    // (allocation failure on hostile lengths, filesystem trouble), the
    // contract is "cold start, never a crash".
  }
}

bool AuctionService::save_snapshot(const std::string& path) const {
  // Copy the entries one shard at a time, then serialize and write with
  // no lock held at all: cache entries are immutable content keyed by
  // fingerprint, so cross-shard atomicity buys nothing and a mid-run
  // checkpoint only ever stalls one shard for the duration of its copy,
  // never the whole request path (and never for the disk I/O).
  std::vector<SnapshotEntry> entries;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    append_snapshot_entries(shard->cache, entries);
  }
  // Write-then-rename so a kill mid-write leaves the previous good
  // snapshot intact: losing the latest delta costs some warmth, losing
  // the whole file would cost all of it.
  const std::string staging = path + ".tmp";
  {
    std::ofstream out(staging, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write_snapshot(out, entries);
    out.flush();
    if (!out.good()) return false;
  }
  if (std::rename(staging.c_str(), path.c_str()) != 0) {
    std::remove(staging.c_str());
    return false;
  }
  return true;
}

RequestId AuctionService::submit(const AnyInstance& instance,
                                 const std::string& solver,
                                 const SolveOptions& options) {
  // Canonical request fingerprint: instance content + policy + request key
  // + result-relevant options. Routing by the key keeps equal requests on
  // one shard, which is what makes the per-shard caches and the in-flight
  // coalescing table effective without any cross-shard coordination.
  FingerprintHasher hasher;
  const Fingerprint instance_fp = fingerprint(instance);
  hasher.mix(instance_fp.hi);
  hasher.mix(instance_fp.lo);
  hasher.mix(std::string_view(policy_->name()));
  hasher.mix(std::string_view(solver));
  mix_options(hasher, options);
  return submit(hasher.digest(), instance, solver, options);
}

Fingerprint AuctionService::wire_key(std::string_view payload) const noexcept {
  FingerprintHasher hasher = wire_seed_;
  hasher.mix(payload);
  return hasher.digest();
}

AuctionService::SpanSample AuctionService::sample_span(
    std::uint64_t sequence, const obs::SpanContext& context) const {
  // The sampled request carries the caller's span context (TcpClient/
  // FrontDoor stamp the wire envelope; LocalClient passes it through
  // SolveOptions) or mints a fresh trace when untraced.
  SpanSample span;
  if (options_.span_sample_every != 0 &&
      sequence % options_.span_sample_every == 0) {
    span.traced = true;
    span.inbound = context.traced() ? context
                                    : obs::SpanContext{obs::next_trace_id(), 0};
    span.start_unix = obs::unix_now_seconds();
  }
  return span;
}

void AuctionService::complete_from_cache(Shard& shard, RequestId id,
                                         SolveReport report,
                                         const SpanSample& span) {
  // Served from cache: bitwise the originating run's payload; only the
  // provenance/timing fields are fresh. wall_time_seconds stays the
  // originating run's (it documents what the result cost to compute).
  report.cache_hit = true;
  report.queue_wait_seconds = 0.0;
  shard.completed.emplace(id, std::move(report));
  submitted_.add();
  cache_hits_.add();
  completed_.add();
  if (span.traced) {
    registry_.spans().record(obs::SpanRecord{
        span.inbound.trace_id, obs::next_span_id(),
        span.inbound.parent_span_id, "service/cache_hit", "",
        span.start_unix, 0.0});
  }
  shard.completed_cv.notify_all();
}

std::optional<RequestId> AuctionService::submit_cached(
    const Fingerprint& key, const obs::SpanContext& context) {
  if (!accepting_.load()) return std::nullopt;
  const std::size_t index = shard_index(key, shards_.size());
  Shard& shard = *shards_[index];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  std::optional<SolveReport> cached = shard.cache.lookup(key);
  if (!cached) return std::nullopt;
  // A sequence is drawn only for a hit: a miss the caller then submits in
  // full draws exactly one, like any other request.
  const std::uint64_t sequence = next_sequence_.fetch_add(1);
  const RequestId id = (sequence << kShardBits) | index;
  complete_from_cache(shard, id, std::move(*cached),
                      sample_span(sequence, context));
  return id;
}

RequestId AuctionService::submit(const Fingerprint& key,
                                 const AnyInstance& instance,
                                 const std::string& solver,
                                 const SolveOptions& options) {
  if (!accepting_.load()) {
    throw std::runtime_error("AuctionService::submit: service shut down");
  }
  if (instance.empty()) {
    throw std::invalid_argument("AuctionService::submit: empty instance view");
  }

  auto request = std::make_shared<Request>();
  if (instance.is_symmetric()) {
    request->instance = instance.symmetric();
  } else {
    request->instance = instance.asymmetric();
  }
  request->solver = solver;
  request->options = options;
  request->key = key;
  // Basis-cache key: structure only, so the thousands of value-perturbed
  // variants of one auction round map to a single warm-start slot.
  request->structural_key = structural_fingerprint(request->view()).hex();

  const std::size_t index = shard_index(key, shards_.size());
  Shard& shard = *shards_[index];
  const std::uint64_t sequence = next_sequence_.fetch_add(1);
  const RequestId id = (sequence << kShardBits) | index;
  // submitted_ ticks in every terminal branch below rather than here: the
  // registry Counter is monotonic (no fetch_sub), so the lost-race-with-
  // shutdown path must simply never have counted instead of rolling back.
  request->span = sample_span(sequence, options.span_context);

  const auto now = std::chrono::steady_clock::now();
  // The deadline resolves with the same shared-vs-section precedence the
  // solvers apply (support/deadline.hpp), so a request budgeted only
  // through its pipeline section still sorts and admits by that budget --
  // exactly like solve_batch.
  const double budget_seconds = effective_budget(
      options.time_budget_seconds, options.pipeline.time_budget_seconds);
  request->deadline = deadline_at(now, budget_seconds);

  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto cached = shard.cache.lookup(request->key)) {
    complete_from_cache(shard, id, std::move(*cached), request->span);
    return id;
  }
  if (const auto inflight = shard.inflight.find(request->key);
      inflight != shard.inflight.end()) {
    // Coalesce: an identical computation is already queued or running.
    // Attach and let the leader's completion fan its report out; no second
    // solver run, no admission check (attaching costs no worker time).
    shard.pending.emplace(id, request);
    inflight->second.push_back(Shard::Follower{id, now});
    submitted_.add();
    coalesced_.add();
    if (request->span.traced) {
      registry_.spans().record(obs::SpanRecord{
          request->span.inbound.trace_id, obs::next_span_id(),
          request->span.inbound.parent_span_id, "service/coalesce", "",
          request->span.start_unix, 0.0});
    }
    return id;
  }

  // This request is the leader for its key: register it, then enqueue.
  // Everything below happens under the shard lock, so a worker cannot
  // observe the request before its admission verdict is recorded, and
  // duplicate submissions cannot slip between the table insert and the
  // scheduler handoff.
  shard.pending.emplace(id, request);
  shard.inflight.emplace(request->key, std::vector<Shard::Follower>{});
  Admission admission = Admission::kRejected;
  try {
    admission = shard.scheduler.submit(
        [this, &shard, id, request](double queue_wait) {
          Admission verdict;
          {
            const std::lock_guard<std::mutex> admission_lock(shard.mutex);
            verdict = request->admission;
          }
          SolveOptions effective = request->options;
          if (verdict == Admission::kDegraded) {
            // The deadline was unmeetable at admission: clamp the solver
            // budget to whatever wall time is left, so the run truncates
            // (and falls back down its chain) instead of blowing the
            // deadline further. A deadline already in the past leaves a
            // near-zero budget: the solver gives up immediately and the
            // chain's never-timing-out tail serves.
            const double remaining =
                std::chrono::duration<double>(
                    request->deadline - std::chrono::steady_clock::now())
                    .count();
            effective.time_budget_seconds = std::max(1e-9, remaining);
          }
          // Warm start: replay the banked warm state of this structure, if
          // any, unless the request opted out. The entry is copied out
          // under the shard lock so the hint stays stable while the solver
          // runs (the next insert may evict the store's copy); a stale or
          // incompatible hint costs a cold solve, never a wrong result.
          WarmStartContext warm;
          WarmState banked;
          if (request->options.warm_start) {
            const std::lock_guard<std::mutex> store_lock(shard.mutex);
            if (const WarmState* entry =
                    shard.bases.lookup(request->structural_key)) {
              banked = *entry;
              warm.hint = &banked;
            }
          }
          // Hint-serve counters tick on lookup success, not on install
          // success (warm_starts covers the latter): the gap between the
          // two is the stale-hint rate.
          if (warm.hint != nullptr) {
            (banked.columns.empty() ? basis_hits_ : pool_hits_).add();
          }
          effective.warm_context = &warm;
          solves_.add();
          if (options_.on_solve) {
            try {
              options_.on_solve(request->key);
            } catch (...) {
              // A throwing hook must not take the request down with it.
            }
          }
          // Every request MUST complete, whatever throws on the way (a
          // user-installed policy, allocation failure, ...): get(id) waits
          // on the pending -> completed transition, so an escaping
          // exception here would strand the caller forever.
          SolveReport report;
          try {
            report = execute(*request, effective);
          } catch (const std::exception& e) {
            report = SolveReport{};
            report.error =
                detail::normalized_solver_error("auction-service", e.what());
          } catch (...) {
            report = SolveReport{};
            report.error = "auction-service: unknown failure while executing";
          }
          report.queue_wait_seconds = queue_wait;
          report.cache_hit = false;
          report.coalesced = false;
          report.admission = verdict;
          const bool run_timed_out = report.timed_out;
          const bool run_warm_started = report.warm_started;
          // A warm-started run with pricing rounds is a colgen solve that
          // seeded from a banked pool; explicit-path basis reuse never has
          // oracle rounds, so the two reuse kinds stay distinguishable
          // without another report field.
          const bool run_colgen_warm =
              report.warm_started && report.oracle_rounds > 0;
          // Span material, captured before the report is moved into the
          // completed table.
          const double run_wall = report.wall_time_seconds;
          std::string solve_note;
          if (request->span.traced) {
            solve_note = "solver=" + report.solver_selected;
            solve_note += " pivots=" + std::to_string(report.pivots);
            if (report.oracle_rounds > 0) {
              solve_note +=
                  " oracle_rounds=" + std::to_string(report.oracle_rounds);
            }
            if (run_warm_started) solve_note += " warm";
            if (run_colgen_warm) solve_note += " colgen_warm";
            if (run_timed_out) solve_note += " timed_out";
            if (verdict == Admission::kDegraded) solve_note += " degraded";
            if (!report.error.empty()) solve_note += " error";
          }
          std::size_t follower_count = 0;
          std::vector<std::function<void()>> fired;
          {
            const std::lock_guard<std::mutex> completion_lock(shard.mutex);
            // Cache only clean, complete, undegraded runs: errors would pin
            // failures, and timed-out or budget-clamped reports depend on
            // wall-clock luck, not content. A cache failure must not lose
            // the report, so it cannot abort completion.
            if (report.error.empty() && !report.timed_out &&
                verdict == Admission::kAccepted) {
              try {
                shard.cache.insert(request->key, report);
              } catch (...) {
                // Uncached is merely slower; the report still completes.
              }
              // Bank the warm state under the same "clean run" gate: a
              // truncated or failed LP has no basis or columns worth
              // replaying.
              if (!warm.exported.empty()) {
                shard.bases.insert(request->structural_key,
                                   std::move(warm.exported));
              }
            }
            // Fan the report out to every coalesced follower: bitwise the
            // leader's payload, fresh coalesced/queue-wait provenance.
            auto inflight_node = shard.inflight.extract(request->key);
            if (!inflight_node.empty()) {
              const auto completed_at = std::chrono::steady_clock::now();
              for (const Shard::Follower& follower : inflight_node.mapped()) {
                SolveReport fanned = report;
                fanned.coalesced = true;
                fanned.queue_wait_seconds =
                    std::chrono::duration<double>(completed_at -
                                                  follower.attached)
                        .count();
                shard.pending.erase(follower.id);
                shard.completed.emplace(follower.id, std::move(fanned));
                shard.take_watchers(follower.id, fired);
                ++follower_count;
              }
            }
            shard.pending.erase(id);
            shard.completed.emplace(id, std::move(report));
            shard.take_watchers(id, fired);
          }
          completed_.add(1 + follower_count);
          // Followers received the same truncated payload, so they count.
          if (run_timed_out) timed_out_.add(1 + follower_count);
          // Warm starts count solver RUNS, so the leader counts once and
          // its followers never do.
          if (run_warm_started) warm_starts_.add();
          if (run_colgen_warm) colgen_warm_.add();
          if (request->span.traced) {
            // Two causally-linked spans per sampled solve: the queue wait
            // parented to the caller's span, the solver run parented to
            // the queue span. Followers are represented by their count in
            // the solve note only -- they never ran a solver.
            const std::uint64_t queue_span_id = obs::next_span_id();
            registry_.spans().record(obs::SpanRecord{
                request->span.inbound.trace_id, queue_span_id,
                request->span.inbound.parent_span_id, "service/queue",
                follower_count > 0
                    ? "followers=" + std::to_string(follower_count)
                    : "",
                request->span.start_unix, queue_wait});
            registry_.spans().record(obs::SpanRecord{
                request->span.inbound.trace_id, obs::next_span_id(),
                queue_span_id, "service/solve", solve_note,
                request->span.start_unix + queue_wait, run_wall});
            queue_wait_hist_.record(queue_wait);
            solve_hist_.record(run_wall);
          }
          shard.completed_cv.notify_all();
          // Outside every lock: a watcher may call straight back into
          // try_get (it usually does).
          for (const std::function<void()>& watcher : fired) watcher();
        },
        // The cost key separates the admission EMA by requested solver and
        // instance-size bucket (api/admission.hpp): a stream of cheap
        // greedy requests no longer prices a B&B request's admission.
        SolveScheduler::TaskOptions{
            budget_seconds,
            admission_cost_key(request->solver, instance.num_bidders())});
  } catch (...) {
    // Lost the race against shutdown(): the scheduler stopped accepting
    // after our accepting_ check. Roll the registration back so the
    // request is not stranded in pending (and stats stay consistent --
    // submitted_ has deliberately not ticked yet), then surface the
    // shutdown to the caller.
    shard.pending.erase(id);
    shard.inflight.erase(request->key);
    throw;
  }
  submitted_.add();

  if (admission == Admission::kRejected) {
    // The scheduler never took the task (AdmissionPolicy::kReject and an
    // unmeetable deadline): complete the request right here as rejected.
    shard.pending.erase(id);
    shard.inflight.erase(request->key);
    SolveReport report;
    report.admission = Admission::kRejected;
    report.error = detail::normalized_solver_error(
        "auction-service",
        "admission rejected: time budget of " +
            std::to_string(budget_seconds) +
            "s is unmeetable at the current queue depth");
    shard.completed.emplace(id, std::move(report));
    admission_rejected_.add();
    completed_.add();
    if (request->span.traced) {
      registry_.spans().record(obs::SpanRecord{
          request->span.inbound.trace_id, obs::next_span_id(),
          request->span.inbound.parent_span_id, "service/reject", "",
          request->span.start_unix, 0.0});
    }
    shard.completed_cv.notify_all();
    return id;
  }
  request->admission = admission;
  if (admission == Admission::kDegraded) admission_degraded_.add();
  return id;
}

SolveReport AuctionService::execute(const Request& request,
                                    const SolveOptions& options) {
  const AnyInstance view = request.view();
  const std::vector<std::string> chain =
      policy_->chain(request.solver, view, options);

  // The fallbacks counter means "request not served by its chain head":
  // it ticks exactly when the returned report's producer differs from
  // chain[0] -- an explicit single-solver chain that errors is the head
  // serving the request, not a fallback.
  const auto finish = [&](SolveReport report) {
    if (!chain.empty() && report.solver_selected != chain.front()) {
      fallbacks_.add();
    }
    return report;
  };

  SolveReport first_failure;
  bool have_failure = false;
  SolveReport best_timeout;
  bool have_timeout = false;

  for (const std::string& key : chain) {
    SolveReport report;
    try {
      report = make_solver(key)->solve(view, options);
    } catch (const std::exception& e) {
      // Unknown registry key (bad explicit request or policy bug).
      report.solver = key;
      report.error = detail::normalized_solver_error(key, e.what());
    }
    report.solver_selected = key;
    if (report.error.empty() && !report.timed_out) {
      return finish(std::move(report));
    }
    if (report.error.empty() && report.timed_out) {
      // Truncated but feasible: worth keeping if nothing finishes cleanly.
      if (!have_timeout || report.welfare > best_timeout.welfare) {
        best_timeout = std::move(report);
        have_timeout = true;
      }
    } else if (!have_failure) {
      first_failure = std::move(report);
      have_failure = true;
    }
  }
  // Nothing in the chain finished cleanly: prefer a feasible truncated
  // result over an error; otherwise surface the primary failure.
  if (have_timeout) return finish(std::move(best_timeout));
  if (have_failure) return finish(std::move(first_failure));
  SolveReport report;  // empty chain (policy bug): report it as such
  report.error = "auction-service: selection policy '" + policy_->name() +
                 "' produced an empty chain";
  return report;
}

SolveReport AuctionService::get(RequestId id) {
  Shard& shard = shard_of(id);
  std::unique_lock<std::mutex> lock(shard.mutex);
  shard.completed_cv.wait(lock, [&] {
    return shard.completed.contains(id) || !shard.pending.contains(id);
  });
  const auto it = shard.completed.find(id);
  if (it == shard.completed.end()) {
    throw std::invalid_argument(
        "AuctionService::get: unknown or already-claimed request id");
  }
  SolveReport report = std::move(it->second);
  shard.completed.erase(it);
  return report;
}

std::optional<SolveReport> AuctionService::try_get(RequestId id) {
  Shard& shard = shard_of(id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.completed.find(id);
  if (it != shard.completed.end()) {
    SolveReport report = std::move(it->second);
    shard.completed.erase(it);
    return report;
  }
  if (shard.pending.contains(id)) return std::nullopt;
  throw std::invalid_argument(
      "AuctionService::try_get: unknown or already-claimed request id");
}

void AuctionService::watch(RequestId id, std::function<void()> callback) {
  const std::size_t index =
      static_cast<std::size_t>(id) & (static_cast<std::size_t>(kMaxShards) - 1);
  if (index < shards_.size()) {
    Shard& shard = *shards_[index];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.pending.contains(id) && !shard.completed.contains(id)) {
      shard.watchers[id].push_back(std::move(callback));
      return;
    }
  }
  // Already completed, claimed, or an id this service never issued: the
  // id is resolved as far as waiting goes -- fire inline and let the
  // callback's own claim surface whichever case it is.
  callback();
}

void AuctionService::drain() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->scheduler.drain();
  }
}

void AuctionService::shutdown() {
  accepting_.store(false);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->scheduler.shutdown();  // finishes queued + in-flight, then joins
  }
  if (!options_.snapshot_path.empty() && !snapshot_written_.exchange(true)) {
    (void)save_snapshot(options_.snapshot_path);
  }
}

ServiceStats AuctionService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.value();
  stats.completed = completed_.value();
  stats.cache_hits = cache_hits_.value();
  stats.fallbacks = fallbacks_.value();
  stats.coalesced = coalesced_.value();
  stats.admission_degraded = admission_degraded_.value();
  stats.admission_rejected = admission_rejected_.value();
  stats.timed_out = timed_out_.value();
  stats.warm_starts = warm_starts_.value();
  stats.colgen_warm = colgen_warm_.value();
  stats.snapshot_restored = snapshot_restored_.value();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.cache_entries += shard->cache.entries();
    stats.cache_bytes += shard->cache.bytes();
  }
  return stats;
}

obs::TelemetrySnapshot AuctionService::telemetry() const {
  // Refresh the point-in-time cache gauges, then export. Gauges are set
  // here rather than maintained inline because entry/byte levels already
  // live in the caches themselves -- exporting is the only reader.
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bases = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    entries += shard->cache.entries();
    bytes += shard->cache.bytes();
    bases += shard->bases.entries();
  }
  registry_.gauge("service.cache_entries")
      .set(static_cast<std::int64_t>(entries));
  registry_.gauge("service.cache_bytes").set(static_cast<std::int64_t>(bytes));
  registry_.gauge("service.basis_entries")
      .set(static_cast<std::int64_t>(bases));
  return registry_.snapshot();
}

}  // namespace ssa::service
