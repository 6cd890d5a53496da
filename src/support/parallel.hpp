#pragma once
/// \file parallel.hpp
/// Every solve runs on its caller's thread; parallelism is request-level
/// only (SolveScheduler under solve_batch and the AuctionService shards).

namespace ssa {

/// Does nothing: no solve starts threads. It stays only because the
/// benchmark's sources (perfbench/src/harness.cpp and perfbench/src/
/// workloads.cpp) still name it, and they change only with the benchmark.
/// Delete it once they no longer do.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int /*threads*/) {}
  ThreadCountScope(const ThreadCountScope&) = delete;
  ThreadCountScope& operator=(const ThreadCountScope&) = delete;
};

}  // namespace ssa
