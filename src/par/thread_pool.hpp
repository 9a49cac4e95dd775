// Fixed-size thread pool under par::SweepRunner (the one parallel layer;
// see DESIGN.md §6).
//
// run_workers() invokes a callable once on every worker, the calling
// thread acting as worker 0; SweepRunner builds its dynamically scheduled
// cell loop on top of it. The pool is reusable (workers park on a
// condition variable between jobs), propagates the first exception by
// worker index (deterministic), and degrades gracefully under nesting: a
// job started from inside a pool job runs inline on the calling thread as
// worker 0, so a sweep launched from a sweep cell stays correct (just
// serial).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace dasm::par {

/// std::thread::hardware_concurrency(), clamped to at least 1.
int hardware_threads();

class ThreadPool {
 public:
  /// Spawns `threads - 1` worker threads; the caller thread acts as
  /// worker 0 in every job. `threads` must be >= 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return thread_count_; }

  /// True while this thread is executing a pool job (used to run nested
  /// parallelism inline instead of deadlocking on a busy pool).
  static bool inside_job();

  /// Invokes f(worker) once on every worker (including the caller as
  /// worker 0). The building block for dynamically scheduled sweeps,
  /// where each worker pulls cell indices from a shared atomic ticket.
  /// Blocks until every worker returns; rethrows the first exception in
  /// worker-index order. Nested inside a pool job, or on a one-thread
  /// pool, it runs f(0) inline.
  template <typename F>
  void run_workers(F&& f) {
    if (thread_count_ == 1 || inside_job()) {
      const ScopedJob scope;
      f(0);
      return;
    }
    run_job_erased(&invoke<std::decay_t<F>>, &f);
  }

 private:
  // Sets the inside-job flag for the caller's own share of a job,
  // restoring it on scope exit so nested pools and back-to-back jobs
  // observe consistent state.
  struct ScopedJob {
    ScopedJob();
    ~ScopedJob();
    bool saved_inside;
  };

  template <typename F>
  static void invoke(void* ctx, int worker) {
    (*static_cast<F*>(ctx))(worker);
  }

  // Broadcasts (fn, ctx) to every worker and runs worker 0's share on the
  // calling thread. Type-erased through a function pointer so a job never
  // touches the allocator.
  void run_job_erased(void (*fn)(void*, int), void* ctx);
  void worker_main(int index);

  int thread_count_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  void (*job_fn_)(void*, int) = nullptr;
  void* job_ctx_ = nullptr;
  std::int64_t job_serial_ = 0;
  int pending_ = 0;
  bool job_active_ = false;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace dasm::par
