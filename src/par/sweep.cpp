#include "par/sweep.hpp"

namespace dasm::par {

namespace {

thread_local bool t_inside_cell = false;

}  // namespace

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

bool SweepRunner::inside_cell() { return t_inside_cell; }

SweepRunner::SweepRunner(int threads)
    : threads_(threads <= 0 ? hardware_threads() : threads) {
  // Every worker exists from here on, never per map: `dasm serve` runs
  // its batches on this runner, and a thread started later would inherit
  // whatever CPU affinity the poll thread has by then (DESIGN.md §6).
  const auto n = static_cast<std::size_t>(threads_);
  errors_.resize(n);
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

SweepRunner::~SweepRunner() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void SweepRunner::worker_main(std::size_t index) {
  t_inside_cell = true;  // a worker only ever runs cells
  std::int64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    start_cv_.wait(lk, [&] { return stop_ || job_serial_ > seen; });
    if (stop_) return;
    seen = job_serial_;
    void (*fn)(void*) = job_fn_;
    void* ctx = job_ctx_;
    lk.unlock();
    try {
      fn(ctx);
    } catch (...) {
      errors_[index] = std::current_exception();
    }
    lk.lock();
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

void SweepRunner::run_on_every_thread(void (*fn)(void*), void* ctx) {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    DASM_CHECK_MSG(!busy_, "SweepRunner::map called from two threads at once");
    busy_ = true;
    job_fn_ = fn;
    job_ctx_ = ctx;
    pending_ = static_cast<int>(workers_.size());
    ++job_serial_;
  }
  start_cv_.notify_all();
  t_inside_cell = true;
  try {
    fn(ctx);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  t_inside_cell = false;
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  busy_ = false;
  for (std::exception_ptr& e : errors_) {
    if (!e) continue;
    const std::exception_ptr first = e;
    for (std::exception_ptr& x : errors_) x = nullptr;
    lk.unlock();
    std::rethrow_exception(first);
  }
}

}  // namespace dasm::par
