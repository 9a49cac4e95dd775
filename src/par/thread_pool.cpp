#include "par/thread_pool.hpp"

namespace dasm::par {

namespace {

thread_local bool t_inside_job = false;

}  // namespace

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

bool ThreadPool::inside_job() { return t_inside_job; }

ThreadPool::ScopedJob::ScopedJob() : saved_inside(t_inside_job) {
  t_inside_job = true;
}

ThreadPool::ScopedJob::~ScopedJob() { t_inside_job = saved_inside; }

ThreadPool::ThreadPool(int threads) : thread_count_(threads) {
  DASM_CHECK_MSG(threads >= 1, "ThreadPool needs at least one thread");
  errors_.resize(static_cast<std::size_t>(threads));
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_main(int index) {
  t_inside_job = true;  // workers only ever run code inside jobs
  std::int64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    start_cv_.wait(lk, [&] { return stop_ || job_serial_ > seen; });
    if (stop_) return;
    seen = job_serial_;
    void (*fn)(void*, int) = job_fn_;
    void* ctx = job_ctx_;
    lk.unlock();
    try {
      fn(ctx, index);
    } catch (...) {
      errors_[static_cast<std::size_t>(index)] = std::current_exception();
    }
    lk.lock();
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run_job_erased(void (*fn)(void*, int), void* ctx) {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    DASM_CHECK_MSG(!job_active_,
                   "ThreadPool::run_* is not reentrant on the same pool");
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_active_ = true;
    pending_ = thread_count_ - 1;
    ++job_serial_;
  }
  start_cv_.notify_all();
  {
    const ScopedJob scope;
    try {
      fn(ctx, 0);
    } catch (...) {
      errors_[0] = std::current_exception();
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  job_active_ = false;
  for (std::exception_ptr& e : errors_) {
    if (!e) continue;
    const std::exception_ptr first = e;
    for (std::exception_ptr& x : errors_) x = nullptr;
    lk.unlock();
    std::rethrow_exception(first);
  }
}

}  // namespace dasm::par
