#pragma once
/// \file parallel.hpp
/// Thin OpenMP shim. Hot loops in the library (Monte-Carlo rounding
/// repetitions, derandomization seed sweeps, pairwise weight matrices) use
/// parallel_for; when OpenMP is unavailable the loop runs serially with the
/// identical iteration-to-result mapping, so results never depend on the
/// thread count.

#include <cstddef>

#if defined(SSA_HAVE_OPENMP)
#include <omp.h>
#endif

namespace ssa {

/// Number of worker threads the runtime would use.
[[nodiscard]] inline int parallel_threads() noexcept {
#if defined(SSA_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// RAII scope bounding the OpenMP worker count: threads > 0 caps the pool
/// for the scope's lifetime, anything else leaves it untouched. Results of
/// parallel_for never depend on the count (fixed iteration-to-result
/// mapping); this only changes resource usage. No-op without OpenMP.
class ThreadCountScope {
 public:
  explicit ThreadCountScope([[maybe_unused]] int threads) {
#if defined(SSA_HAVE_OPENMP)
    if (threads > 0) {
      saved_ = omp_get_max_threads();
      omp_set_num_threads(threads);
    }
#endif
  }
  ~ThreadCountScope() {
#if defined(SSA_HAVE_OPENMP)
    if (saved_ > 0) omp_set_num_threads(saved_);
#endif
  }
  ThreadCountScope(const ThreadCountScope&) = delete;
  ThreadCountScope& operator=(const ThreadCountScope&) = delete;

 private:
  int saved_ = 0;
};

/// Runs body(i, slot) for i in [0, n). The body must be safe to run
/// concurrently for distinct i (no shared mutable state without
/// synchronization), except that no two bodies run at once under one slot
/// in [0, slots): per-worker scratch can live in a slots-sized vector.
template <typename Body>
void parallel_for_slots(std::ptrdiff_t n, int slots, const Body& body) {
#if defined(SSA_HAVE_OPENMP)
#pragma omp parallel num_threads(slots)
  {
    const int slot = omp_get_thread_num();
#pragma omp for schedule(dynamic, 1)
    for (std::ptrdiff_t i = 0; i < n; ++i) body(i, slot);
  }
#else
  (void)slots;
  for (std::ptrdiff_t i = 0; i < n; ++i) body(i, 0);
#endif
}

/// Runs body(i) for i in [0, n) on the whole pool.
template <typename Body>
void parallel_for(std::ptrdiff_t n, const Body& body) {
  parallel_for_slots(n, parallel_threads(),
                     [&](std::ptrdiff_t i, int) { body(i); });
}

}  // namespace ssa
