// Tests for the deadline-aware SolveScheduler (api/scheduler.hpp): the
// queue runs earliest-effective-deadline first with submission order as
// the tie-break (and as the whole order under QueuePolicy::kFifo), and the
// admission check degrades or rejects tasks whose deadline is unmeetable
// given the queue depth and the measured task cost.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "api/scheduler.hpp"

namespace ssa {
namespace {

using TaskOptions = SolveScheduler::TaskOptions;

/// Holds the single worker inside a task until release() so tests can
/// stage a queue deterministically behind it.
class WorkerGate {
 public:
  /// Submits the gate task; returns once the worker is inside it.
  void block_worker(SolveScheduler& scheduler) {
    auto entered = std::make_shared<std::promise<void>>();
    std::future<void> entered_future = entered->get_future();
    scheduler.submit([this, entered](double) {
      entered->set_value();
      released_.get_future().wait();
    });
    entered_future.wait();
  }

  void release() { released_.set_value(); }

 private:
  std::promise<void> released_;
};

TEST(SolveScheduler, DeadlineOrderWithFifoTieBreak) {
  SolveScheduler scheduler(1);
  WorkerGate gate;
  gate.block_worker(scheduler);

  // Stage behind the gate: two unlimited tasks, then deadlines 5s, 1s, 5s.
  // Expected run order: the 1s deadline, then the 5s pair in submission
  // order, then the unlimited pair in submission order.
  std::mutex mutex;
  std::vector<int> order;
  const auto tracer = [&](int label) {
    return [&, label](double) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(label);
    };
  };
  scheduler.submit(tracer(10));  // unlimited
  scheduler.submit(tracer(11));  // unlimited
  EXPECT_EQ(scheduler.submit(tracer(20), TaskOptions{5.0, {}}),
            Admission::kAccepted);
  EXPECT_EQ(scheduler.submit(tracer(30), TaskOptions{1.0, {}}),
            Admission::kAccepted);
  EXPECT_EQ(scheduler.submit(tracer(21), TaskOptions{5.0, {}}),
            Admission::kAccepted);
  gate.release();
  scheduler.drain();

  EXPECT_EQ(order, (std::vector<int>{30, 20, 21, 10, 11}));
}

TEST(SolveScheduler, FifoPolicyIgnoresDeadlines) {
  SchedulerOptions options;
  options.threads = 1;
  options.queue = QueuePolicy::kFifo;
  SolveScheduler scheduler(options);
  WorkerGate gate;
  gate.block_worker(scheduler);

  std::mutex mutex;
  std::vector<int> order;
  const auto tracer = [&](int label) {
    return [&, label](double) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(label);
    };
  };
  scheduler.submit(tracer(0));
  (void)scheduler.submit(tracer(1), TaskOptions{1e-3, {}});  // tight, still last
  gate.release();
  scheduler.drain();

  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

/// Primes the scheduler's cost EMA with one measurably slow task.
void prime_cost_estimate(SolveScheduler& scheduler) {
  scheduler.submit([](double) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  scheduler.drain();
  ASSERT_GE(scheduler.estimated_task_seconds(), 0.015);
}

TEST(SolveScheduler, RejectPolicyDropsUnmeetableDeadlines) {
  SchedulerOptions options;
  options.threads = 1;
  options.admission = AdmissionPolicy::kReject;
  SolveScheduler scheduler(options);
  prime_cost_estimate(scheduler);

  WorkerGate gate;
  gate.block_worker(scheduler);
  for (int i = 0; i < 4; ++i) scheduler.submit([](double) {});

  // Queue depth 4 x ~20ms EMA against a 1ms budget: hopeless. The task
  // must never run under kReject.
  bool ran = false;
  EXPECT_EQ(scheduler.submit([&ran](double) { ran = true; },
                             TaskOptions{1e-3, {}}),
            Admission::kRejected);
  // An unlimited task is always admitted, whatever the queue looks like.
  EXPECT_EQ(scheduler.submit([](double) {}, TaskOptions{0.0, {}}),
            Admission::kAccepted);
  // A roomy budget clears the projection and is admitted too.
  EXPECT_EQ(scheduler.submit([](double) {}, TaskOptions{60.0, {}}),
            Admission::kAccepted);

  gate.release();
  scheduler.drain();
  EXPECT_FALSE(ran);
}

TEST(SolveScheduler, DegradePolicyStillRunsTheTask) {
  SchedulerOptions options;
  options.threads = 1;
  options.admission = AdmissionPolicy::kDegrade;
  SolveScheduler scheduler(options);
  prime_cost_estimate(scheduler);

  WorkerGate gate;
  gate.block_worker(scheduler);
  for (int i = 0; i < 4; ++i) scheduler.submit([](double) {});

  bool ran = false;
  EXPECT_EQ(scheduler.submit([&ran](double) { ran = true; },
                             TaskOptions{1e-3, {}}),
            Admission::kDegraded);
  gate.release();
  scheduler.drain();
  EXPECT_TRUE(ran);  // degraded = admitted; shrinking the work is the
                     // caller's job (the service clamps the solver budget)
}

TEST(SolveScheduler, AcceptAllNeverRejects) {
  SolveScheduler scheduler(1);  // default policy: kAcceptAll
  prime_cost_estimate(scheduler);
  WorkerGate gate;
  gate.block_worker(scheduler);
  for (int i = 0; i < 4; ++i) scheduler.submit([](double) {});
  EXPECT_EQ(scheduler.submit([](double) {}, TaskOptions{1e-3, {}}),
            Admission::kAccepted);
  gate.release();
  scheduler.drain();
}

TEST(AdmissionCostModel, KeyedEmasFallBackToGlobal) {
  AdmissionCostModel model;
  EXPECT_EQ(model.estimate("exact/n8..15"), 0.0);  // no signal at all
  model.observe("greedy/n8..15", 0.001);
  // Unseen key: the global fallback (trained by every observation).
  EXPECT_NEAR(model.estimate("exact/n8..15"), 0.001, 1e-9);
  model.observe("exact/n8..15", 1.0);
  // Seen key: its own EMA, not the cheap-solver-diluted global.
  EXPECT_NEAR(model.estimate("exact/n8..15"), 1.0, 1e-9);
  EXPECT_NEAR(model.estimate("greedy/n8..15"), 0.001, 1e-9);
  EXPECT_LT(model.global_estimate(), 1.0);
  EXPECT_GT(model.global_estimate(), 0.001);
}

TEST(AdmissionCostModel, CostKeyBucketsBySolverAndSize) {
  EXPECT_EQ(admission_cost_key("exact", 12), "exact/n8..15");
  EXPECT_EQ(admission_cost_key("exact", 8), "exact/n8..15");
  EXPECT_EQ(admission_cost_key("exact", 16), "exact/n16..31");
  EXPECT_EQ(admission_cost_key("auto", 1), "auto/n1..1");
  EXPECT_EQ(admission_cost_key("greedy-value", 0), "greedy-value/n0..0");
  // Different solver or different size regime = different EMA.
  EXPECT_NE(admission_cost_key("exact", 12), admission_cost_key("auto", 12));
  EXPECT_NE(admission_cost_key("exact", 12), admission_cost_key("exact", 40));
}

TEST(SolveScheduler, CheapSolverTrafficDoesNotInflateExpensiveKeysEstimate) {
  // The ROADMAP-named gap pinned: a stream of cheap (greedy-like) tasks
  // used to drag the single global EMA down, so a B&B-priced request was
  // admitted against a millisecond estimate -- and a B&B burst inflated
  // the estimate under cheap requests. With keyed EMAs, each key prices
  // its own admissions.
  SolveScheduler scheduler(1);
  const std::string cheap = admission_cost_key("greedy-value", 12);
  const std::string expensive = admission_cost_key("exact", 12);

  // One expensive completion, then a burst of cheap ones.
  scheduler.submit(
      [](double) { std::this_thread::sleep_for(std::chrono::milliseconds(50)); },
      TaskOptions{0.0, expensive});
  scheduler.drain();
  const double expensive_before = scheduler.estimated_task_seconds(expensive);
  ASSERT_GE(expensive_before, 0.040);
  for (int i = 0; i < 20; ++i) {
    scheduler.submit([](double) {}, TaskOptions{0.0, cheap});
  }
  scheduler.drain();

  // The cheap burst collapsed the global average but left the B&B key's
  // estimate intact -- that is exactly the inflation/deflation bug.
  EXPECT_LT(scheduler.estimated_task_seconds(), 0.010);
  EXPECT_LT(scheduler.estimated_task_seconds(cheap), 0.010);
  EXPECT_GE(scheduler.estimated_task_seconds(expensive), 0.040);
  EXPECT_EQ(scheduler.estimated_task_seconds(expensive), expensive_before);
}

TEST(SolveScheduler, AdmissionUsesTheSubmittedKeysEstimate) {
  // One worker blocked, one 50ms "exact" completion on record, and a
  // fast-lane "greedy" key trained at ~0ms. Under a 20ms budget the
  // greedy task must be admitted (its own key's estimate plus the queue
  // drain clears the projection) while an exact task is rejected (its
  // key prices it out), with the SAME queue state -- the global-EMA
  // model could not tell the two apart.
  SchedulerOptions options;
  options.threads = 1;
  options.admission = AdmissionPolicy::kReject;
  SolveScheduler scheduler(options);
  const std::string cheap = admission_cost_key("greedy-value", 12);
  const std::string expensive = admission_cost_key("exact", 12);
  scheduler.submit(
      [](double) { std::this_thread::sleep_for(std::chrono::milliseconds(50)); },
      TaskOptions{0.0, expensive});
  for (int i = 0; i < 8; ++i) {
    scheduler.submit([](double) {}, TaskOptions{0.0, cheap});
  }
  scheduler.drain();

  WorkerGate gate;
  gate.block_worker(scheduler);
  EXPECT_EQ(scheduler.submit([](double) {}, TaskOptions{20e-3, cheap}),
            Admission::kAccepted);
  EXPECT_EQ(scheduler.submit([](double) {}, TaskOptions{20e-3, expensive}),
            Admission::kRejected);
  gate.release();
  scheduler.drain();
}

TEST(SolveScheduler, QueueWaitIsMeasuredAndSubmitAfterShutdownThrows) {
  SolveScheduler scheduler(1);
  WorkerGate gate;
  gate.block_worker(scheduler);
  std::promise<double> wait;
  std::future<double> wait_future = wait.get_future();
  scheduler.submit([&wait](double queue_wait) { wait.set_value(queue_wait); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.release();
  EXPECT_GE(wait_future.get(), 0.008);

  scheduler.shutdown();
  EXPECT_THROW(scheduler.submit([](double) {}), std::runtime_error);
}

}  // namespace
}  // namespace ssa
