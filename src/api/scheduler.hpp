#pragma once
/// \file scheduler.hpp
/// The deadline-aware scheduling core shared by solve_batch (api/batch.cpp)
/// and the long-lived AuctionService (service/auction_service.hpp): a
/// priority queue ordered by effective deadline (submit time + time budget,
/// submission order as the tie-break; tasks without a budget sort last among
/// themselves in FIFO order) drained by a fixed pool of worker threads, plus
/// an admission check that flags tasks whose deadline is already unmeetable
/// when they are submitted. It is the library's only source of parallelism:
/// each task's solve runs on the worker that dequeued it, so the one-shot
/// batch driver and the service shard pools run the exact same code, and
/// both can report how long a task waited in the queue
/// (SolveReport::queue_wait_seconds).
///
/// Admission estimates the completion time of a new task as
///     (tasks scheduled before it / workers) * global cost EMA
///         + the task's own keyed cost EMA
/// and compares the projection against the task's deadline. Costs are
/// keyed: tasks carry a cost key (TaskOptions::cost_key, canonically the
/// "(solver, size bucket)" of admission_cost_key) and the new task's own
/// cost prefers its key's history, falling back to the global average
/// for unseen keys (AdmissionCostModel, api/admission.hpp) -- a
/// cheap-solver stream can no longer collapse the estimate under an
/// expensive solver's requests or vice versa. The queue ahead drains at
/// the global average (it is a mix of keys). The estimate stays
/// deliberately rough; it exists to keep obviously dead requests out of
/// the queue under load, not to promise SLOs. Until the first task
/// completes, every estimate is zero and everything is admitted.
///
/// Tasks receive their measured queue wait in seconds. Tasks must not
/// throw; a throwing task is caught and dropped (workers stay alive), which
/// is acceptable because every caller in this library already converts
/// solver failures into SolveReport::error before the task returns.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "api/admission.hpp"
#include "obs/registry.hpp"

namespace ssa {

/// Configuration of a SolveScheduler beyond the worker count.
struct SchedulerOptions {
  /// Worker threads (0 = hardware concurrency, clamped to at least 1).
  int threads = 0;
  /// Queue order; kDeadline is the default, kFifo the measurable baseline.
  QueuePolicy queue = QueuePolicy::kDeadline;
  /// Handling of tasks whose deadline is unmeetable at submission.
  AdmissionPolicy admission = AdmissionPolicy::kAcceptAll;
  /// Observability sink (obs/registry.hpp): when set, the scheduler keeps
  /// the "scheduler.queue_depth" gauge (tasks enqueued, not yet started;
  /// shared across every scheduler wired to one registry, so the service's
  /// gauge reads as total backlog across shards) and the
  /// "scheduler.admitted"/"scheduler.degraded"/"scheduler.rejected"
  /// verdict counters. Null = uninstrumented (the pre-obs behavior; zero
  /// added work per task). The registry must outlive the scheduler.
  obs::Registry* metrics = nullptr;
};

/// Fixed-size worker pool over a deadline-ordered queue. Thread-safe;
/// submission from any thread. Destruction finishes all queued work, then
/// joins.
class SolveScheduler {
 public:
  /// Runs with \p threads workers and the default deadline ordering.
  /// Workers start immediately and sleep until work arrives.
  explicit SolveScheduler(int threads = 0)
      : SolveScheduler(SchedulerOptions{threads, QueuePolicy::kDeadline,
                                        AdmissionPolicy::kAcceptAll}) {}

  explicit SolveScheduler(const SchedulerOptions& options);

  /// Equivalent to shutdown(): every already-queued task still runs.
  ~SolveScheduler();

  SolveScheduler(const SolveScheduler&) = delete;
  SolveScheduler& operator=(const SolveScheduler&) = delete;

  using Task = std::function<void(double queue_wait_seconds)>;

  /// Per-task scheduling parameters.
  struct TaskOptions {
    /// Wall-time budget in seconds; the task's effective deadline is its
    /// submission time plus this budget. <= 0 (or >= the
    /// kUnlimitedBudgetSeconds clamp, see support/deadline.hpp) means no
    /// deadline: the task is always admitted and sorts after every
    /// deadlined task.
    double deadline_seconds = 0.0;
    /// Cost-model key (admission_cost_key); its EMA learns this task's
    /// measured duration and prices future admissions of the same key.
    /// Empty trains and consults only the global fallback EMA.
    std::string cost_key;
  };

  /// Enqueues a task (no deadline, always Admission::kAccepted); throws
  /// std::runtime_error after shutdown() began.
  void submit(Task task);

  /// Enqueues a task under the admission policy. Returns the verdict:
  /// kAccepted or kDegraded mean the task was enqueued and will run;
  /// kRejected (policy AdmissionPolicy::kReject only) means the task was
  /// NOT enqueued and will never run -- the caller owns completing it.
  /// Throws std::runtime_error after shutdown() began.
  Admission submit(Task task, const TaskOptions& options);

  /// Blocks until the queue is empty and no worker is mid-task. New work
  /// may be submitted afterwards (the pool stays alive).
  void drain();

  /// Stops accepting new tasks, finishes everything already queued or
  /// in flight, and joins the workers. Idempotent.
  void shutdown();

  [[nodiscard]] int threads() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Tasks queued but not yet started (diagnostics only; racy by nature).
  [[nodiscard]] std::size_t pending() const;

  /// Global exponential moving average of completed task durations in
  /// seconds (0 until the first completion) -- the admission fallback for
  /// unseen cost keys. Exposed for diagnostics and tests.
  [[nodiscard]] double estimated_task_seconds() const;

  /// Cost estimate for \p cost_key: its own EMA when tasks of that key
  /// have completed, the global average otherwise (the exact value the
  /// admission check would use for a task submitted with this key now).
  [[nodiscard]] double estimated_task_seconds(const std::string& cost_key) const;

 private:
  struct QueuedTask {
    Task task;
    std::chrono::steady_clock::time_point enqueued;
    /// Effective deadline; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    /// Submission order: the FIFO tie-break within equal deadlines.
    std::uint64_t sequence = 0;
    /// Cost-model key the measured duration trains (TaskOptions::cost_key).
    std::string cost_key;
    /// Degraded tasks run with caller-shrunk work, so their duration says
    /// nothing about the true task cost: keep them out of the EMA, or
    /// sustained overload would collapse the estimate and disarm the very
    /// admission check that degraded them.
    bool count_in_cost_ema = true;
  };

  /// True when \p a should run after \p b (std heap comparator: the heap
  /// top is the task that runs next).
  [[nodiscard]] bool runs_after(const QueuedTask& a, const QueuedTask& b) const;

  /// The one heap comparator (push and pop must always agree).
  [[nodiscard]] auto heap_comparator() const {
    return [this](const QueuedTask& a, const QueuedTask& b) {
      return runs_after(a, b);
    };
  }

  /// Admission estimate for a task with \p deadline and \p cost_key
  /// submitted now; must be called with mutex_ held.
  [[nodiscard]] bool deadline_unmeetable_locked(
      std::chrono::steady_clock::time_point now,
      std::chrono::steady_clock::time_point deadline,
      const std::string& cost_key) const;

  void push_locked(QueuedTask task);
  void worker_loop();

  const QueuePolicy queue_policy_;
  const AdmissionPolicy admission_policy_;

  // Instrument handles, resolved once at construction (null when the
  // scheduler runs uninstrumented). The queue-depth gauge tracks
  // enqueue -> dequeue, so it reads live backlog, not in-flight work.
  obs::Gauge* queue_depth_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* degraded_ = nullptr;
  obs::Counter* rejected_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;  // workers wait here
  std::condition_variable all_idle_;    // drain()/shutdown() wait here
  std::vector<QueuedTask> queue_;       // heap under runs_after
  std::vector<std::thread> workers_;
  std::uint64_t next_sequence_ = 0;
  AdmissionCostModel cost_model_;  // completed-task cost estimates
  std::size_t running_ = 0;        // tasks currently executing
  bool accepting_ = true;          // submit() allowed
  bool terminate_ = false;         // workers exit once the queue is empty
};

}  // namespace ssa
