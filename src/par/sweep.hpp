// Inter-instance parallelism, the one parallel layer (DESIGN.md §6): a
// bench grid of independent (instance, seed, params) cells — or a service
// batch of distinct requests — executed across a fixed set of threads.
// Each protocol run inside a cell is serial; cells share nothing they
// write.
//
// Cells can have wildly different costs (n ranges over an order of
// magnitude within one table), so indices are handed out dynamically from
// an atomic ticket — but the *results* stay deterministic: slot i of the
// returned vector only ever holds f(i), and callers aggregate in index
// order (Summary streams, NetStats::operator+= merges), so the output is
// identical at every thread count. Running with threads == 1 executes the
// cells inline in index order — byte-for-byte the serial bench.
//
// The runner starts its `threads - 1` workers once, in the constructor,
// and parks them on one mutex and two condition variables between maps;
// the calling thread takes a share of every map as worker 0. A map
// started from inside a cell runs inline on that cell's thread, and the
// first exception a map's threads throw is rethrown in worker order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace dasm::par {

/// std::thread::hardware_concurrency(), clamped to at least 1.
int hardware_threads();

class SweepRunner {
 public:
  /// `threads` <= 0 selects hardware concurrency; 1 runs cells inline.
  explicit SweepRunner(int threads = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int threads() const { return threads_; }

  /// Evaluates f(i) for every cell index i in [0, cells) and returns the
  /// results in index order. R must be default-constructible; cells run
  /// with whatever parallelism the runner was built with. A cell returns
  /// everything it measures through its slot: it must not write a shared
  /// Network, obs::Recorder or obs::MetricsRegistry. A map nested inside
  /// a cell (of this runner or any other) runs inline.
  template <typename R, typename F>
  std::vector<R> map(std::int64_t cells, F&& f) {
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> packs results into shared words, which "
                  "concurrent cell writes race on; use int");
    DASM_CHECK(cells >= 0);
    std::vector<R> out(static_cast<std::size_t>(cells));
    if (workers_.empty() || cells <= 1 || inside_cell()) {
      for (std::int64_t i = 0; i < cells; ++i) {
        out[static_cast<std::size_t>(i)] = f(i);
      }
      return out;
    }
    std::atomic<std::int64_t> next{0};
    auto take_cells = [&] {
      for (;;) {
        const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells) return;
        out[static_cast<std::size_t>(i)] = f(i);
      }
    };
    run_on_every_thread(&invoke<decltype(take_cells)>, &take_cells);
    return out;
  }

 private:
  template <typename F>
  static void invoke(void* ctx) {
    (*static_cast<F*>(ctx))();
  }

  // True on a worker, and on the caller during its share of a map.
  static bool inside_cell();
  // Runs fn(ctx) on every worker and on the calling thread, waits for all
  // of them, and rethrows the first exception in worker order. Type-erased
  // through a function pointer so a map never touches the allocator.
  void run_on_every_thread(void (*fn)(void*), void* ctx);
  void worker_main(std::size_t index);

  int threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  void (*job_fn_)(void*) = nullptr;
  void* job_ctx_ = nullptr;
  std::int64_t job_serial_ = 0;
  int pending_ = 0;
  bool busy_ = false;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // by worker; 0 is the caller
  std::vector<std::thread> workers_;
};

}  // namespace dasm::par
