// Inter-instance parallelism, the one parallel layer (DESIGN.md §6): a
// bench grid of independent (instance, seed, params) cells — or a service
// batch of distinct requests — executed across a fixed thread pool. Each
// protocol run inside a cell is serial; cells share nothing they write.
//
// Cells can have wildly different costs (n ranges over an order of
// magnitude within one table), so indices are handed out dynamically from
// an atomic ticket — but the *results* stay deterministic: slot i of the
// returned vector only ever holds f(i), and callers aggregate in index
// order (Summary streams, NetStats::operator+= merges), so the output is
// identical at every thread count. Running with threads == 1 executes the
// cells inline in index order — byte-for-byte the serial bench.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "par/thread_pool.hpp"
#include "util/check.hpp"

namespace dasm::par {

class SweepRunner {
 public:
  /// `threads` <= 0 selects hardware concurrency; 1 runs cells inline.
  explicit SweepRunner(int threads = 0)
      : threads_(threads <= 0 ? hardware_threads() : threads) {
    if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  }

  int threads() const { return threads_; }

  /// Evaluates f(i) for every cell index i in [0, cells) and returns the
  /// results in index order. R must be default-constructible; cells run
  /// with whatever parallelism the runner was built with. A cell returns
  /// everything it measures through its slot: it must not write a shared
  /// Network, obs::Recorder or obs::MetricsRegistry (a sweep nested inside
  /// a cell runs inline; see ThreadPool::inside_job).
  template <typename R, typename F>
  std::vector<R> map(std::int64_t cells, F&& f) {
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> packs results into shared words, which "
                  "concurrent cell writes race on; use int");
    DASM_CHECK(cells >= 0);
    std::vector<R> out(static_cast<std::size_t>(cells));
    if (!pool_ || cells <= 1) {
      for (std::int64_t i = 0; i < cells; ++i) {
        out[static_cast<std::size_t>(i)] = f(i);
      }
      return out;
    }
    std::atomic<std::int64_t> next{0};
    pool_->run_workers([&](int) {
      for (;;) {
        const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells) break;
        out[static_cast<std::size_t>(i)] = f(i);
      }
    });
    return out;
  }

 private:
  int threads_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dasm::par
