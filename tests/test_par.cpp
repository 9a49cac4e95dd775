#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "par/sweep.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"

namespace dasm::par {
namespace {

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1); }

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), CheckError);
}

TEST(ThreadPool, RunWorkersRunsEveryWorkerOnceWithCallerAsWorkerZero) {
  for (const int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    const auto caller = std::this_thread::get_id();
    std::vector<int> calls(static_cast<std::size_t>(threads), 0);
    std::atomic<bool> worker_zero_is_caller{false};
    pool.run_workers([&](int worker) {
      ++calls[static_cast<std::size_t>(worker)];  // distinct slot per worker
      EXPECT_TRUE(ThreadPool::inside_job());
      if (worker == 0) {
        worker_zero_is_caller = std::this_thread::get_id() == caller;
      }
    });
    EXPECT_EQ(calls, std::vector<int>(static_cast<std::size_t>(threads), 1));
    EXPECT_TRUE(worker_zero_is_caller);
    EXPECT_FALSE(ThreadPool::inside_job());
  }
}

TEST(ThreadPool, PropagatesTheFirstExceptionInWorkerOrder) {
  ThreadPool pool(4);
  try {
    pool.run_workers([](int worker) {
      DASM_CHECK_MSG(worker == 0, "worker " << worker << " failed");
    });
    ADD_FAILURE() << "run_workers swallowed the workers' exceptions";
  } catch (const CheckError& e) {
    // Workers 1, 2 and 3 all throw; the lowest index wins, whichever
    // thread finished first.
    EXPECT_NE(std::string(e.what()).find("worker 1 failed"),
              std::string::npos)
        << e.what();
  }
  // The pool survives a failed job and runs the next one.
  std::atomic<int> sum{0};
  pool.run_workers([&](int worker) { sum += worker; });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(ThreadPool, NestedRunWorkersRunsInlineAsWorkerZero) {
  ThreadPool outer(3);
  ThreadPool inner(3);
  std::atomic<int> inner_calls{0};
  std::atomic<bool> inline_on_caller{true};
  outer.run_workers([&](int) {
    const auto outer_thread = std::this_thread::get_id();
    inner.run_workers([&](int worker) {
      if (worker != 0 || std::this_thread::get_id() != outer_thread) {
        inline_on_caller = false;
      }
      ++inner_calls;
    });
  });
  EXPECT_TRUE(inline_on_caller);  // nested jobs degrade to serial inline
  EXPECT_EQ(inner_calls.load(), 3);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::int64_t grand = 0;
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::int64_t> sum{0};
    pool.run_workers([&](int worker) { sum += worker + 1; });
    grand += sum.load();
  }
  EXPECT_EQ(grand, 50 * (1 + 2 + 3 + 4));
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  for (const int threads : {1, 2, 4, 9}) {
    SweepRunner sweep(threads);
    const auto out =
        sweep.map<std::int64_t>(257, [](std::int64_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::int64_t i = 0; i < 257; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
    }
  }
}

TEST(SweepRunner, HandlesMoreThreadsThanCells) {
  SweepRunner sweep(8);
  const auto out = sweep.map<int>(3, [](std::int64_t i) {
    return static_cast<int>(i) + 1;
  });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(sweep.map<int>(0, [](std::int64_t) { return 1; }).empty());
}

TEST(SweepRunner, DefaultsToHardwareConcurrency) {
  SweepRunner sweep(0);
  EXPECT_EQ(sweep.threads(), hardware_threads());
}

// Protocol runs inside concurrently executing sweep cells must each
// reproduce the standalone run exactly.
TEST(SweepRunner, EngineRunsInsideCellsMatchTheStandaloneRun) {
  const Instance inst = gen::complete_uniform(12, 21);
  core::AsmParams params;
  params.epsilon = 0.5;
  params.net_trace_events = 1 << 12;
  const auto ref = core::run_asm(inst, params);
  SweepRunner sweep(4);
  const auto same = sweep.map<int>(8, [&](std::int64_t) {
    const auto r = core::run_asm(inst, params);
    return r.matching == ref.matching && r.net == ref.net &&
                   r.net_trace == ref.net_trace
               ? 1
               : 0;
  });
  EXPECT_EQ(same, std::vector<int>(8, 1));
}

// A run is serial: the `threads` fields that remain on the run
// configurations accept only 1.
TEST(SerialRuns, ThreadsOtherThanOneIsACheckError) {
  const Instance inst = gen::complete_uniform(8, 3);
  const auto [g, is_left] = testing::random_bipartite(6, 6, 0.5, 4);
  for (const int threads : {0, 2}) {
    core::AsmParams asm_params;
    asm_params.threads = threads;
    EXPECT_THROW(core::run_asm(inst, asm_params), CheckError) << threads;

    core::RandAsmParams rand_params;
    rand_params.threads = threads;
    EXPECT_THROW(core::run_rand_asm(inst, rand_params), CheckError)
        << threads;

    mm::RunConfig config;
    config.backend = mm::Backend::kPointerGreedy;
    config.threads = threads;
    EXPECT_THROW(mm::run_maximal_matching(g, is_left, config), CheckError)
        << threads;
  }
}

}  // namespace
}  // namespace dasm::par
