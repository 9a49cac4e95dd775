#include "par/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"

namespace dasm::par {
namespace {

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1); }

TEST(SweepRunner, MapRunsEveryCellExactlyOnce) {
  for (const int threads : {1, 2, 4, 7}) {
    SweepRunner sweep(threads);
    const auto caller = std::this_thread::get_id();
    std::vector<int> calls(200, 0);
    std::atomic<int> on_caller{0};
    sweep.map<int>(200, [&](std::int64_t i) {
      ++calls[static_cast<std::size_t>(i)];  // distinct slot per cell
      if (std::this_thread::get_id() == caller) ++on_caller;
      return 0;
    });
    EXPECT_EQ(calls, std::vector<int>(200, 1)) << threads;
    if (threads == 1) {
      EXPECT_EQ(on_caller.load(), 200);
    }
  }
}

// Every cell waits until `threads` cells have started, so each thread
// of a 4-thread runner holds exactly one cell when they all throw.
TEST(SweepRunner, RethrowsTheFirstExceptionInWorkerOrder) {
  SweepRunner sweep(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  try {
    sweep.map<int>(4, [&](std::int64_t) -> int {
      ++started;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 4 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      DASM_CHECK_MSG(false, (std::this_thread::get_id() == caller
                                 ? "the caller failed"
                                 : "a worker failed"));
      return 0;
    });
    ADD_FAILURE() << "map swallowed the cells' exceptions";
  } catch (const CheckError& e) {
    // All four threads throw; worker 0, the caller, comes first whichever
    // thread finished first.
    EXPECT_NE(std::string(e.what()).find("the caller failed"),
              std::string::npos)
        << e.what();
  }
  // The runner survives a failed map and runs the next one.
  const auto out = sweep.map<int>(9, [](std::int64_t i) {
    return static_cast<int>(i);
  });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(SweepRunner, NestedMapRunsInlineOnTheCellsThread) {
  SweepRunner outer(3);
  SweepRunner inner(3);
  std::atomic<int> inner_calls{0};
  std::atomic<bool> inline_on_cell_thread{true};
  outer.map<int>(6, [&](std::int64_t) {
    const auto cell_thread = std::this_thread::get_id();
    for (SweepRunner* runner : {&inner, &outer}) {
      runner->map<int>(5, [&](std::int64_t) {
        if (std::this_thread::get_id() != cell_thread) {
          inline_on_cell_thread = false;
        }
        ++inner_calls;
        return 0;
      });
    }
    return 0;
  });
  EXPECT_TRUE(inline_on_cell_thread);  // nested maps degrade to serial
  EXPECT_EQ(inner_calls.load(), 6 * 2 * 5);
}

TEST(SweepRunner, RunsManyMapsBackToBack) {
  SweepRunner sweep(4);
  std::int64_t grand = 0;
  for (int job = 0; job < 50; ++job) {
    for (const std::int64_t v :
         sweep.map<std::int64_t>(16, [](std::int64_t i) { return i + 1; })) {
      grand += v;
    }
  }
  EXPECT_EQ(grand, 50 * (16 * 17 / 2));
}

// The threads of this process, as /proc lists them: two equal reads in a
// row, since a thread just joined can stay listed for a moment.
int task_count() {
  int last = -1;
  for (int tries = 0; tries < 100; ++tries) {
    int n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    if (n == last) break;
    last = n;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return last;
}

// `dasm serve` pins the threads that exist after setup; a worker started
// per map would miss that, so the constructor starts them all.
TEST(SweepRunner, StartsItsWorkersInTheConstructor) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  // A sanitizer runtime may start a helper thread with the first thread
  // the process creates; let that happen before counting.
  std::thread([] {}).join();
  const int before = task_count();
  SweepRunner sweep(3);
  EXPECT_EQ(task_count(), before + 2);
  sweep.map<int>(64, [](std::int64_t i) { return static_cast<int>(i); });
  EXPECT_EQ(task_count(), before + 2);
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
