// Observability subsystem (src/obs/): recorder semantics, the determinism
// contract (an exported trace is bit-identical run to run), round-sample
// accounting against NetStats, and the JSONL round-trip the dasm-trace
// tool depends on.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "obs/export.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

using obs::Counter;
using obs::Event;
using obs::MemorySink;
using obs::Phase;
using obs::RoundSample;

// ---- Recorder unit semantics -------------------------------------------

TEST(Recorder, NoSinkRecordsNothing) {
  obs::Recorder rec(nullptr);
  EXPECT_FALSE(rec.enabled());
  NetStats stats;
  rec.begin_span(Phase::kRun, 0, stats);
  rec.counter(Counter::kActiveMen, 0, 7);
  rec.end_span(Phase::kRun, 0, stats);
  rec.on_round(stats);
  rec.finish(stats);
  EXPECT_EQ(rec.events_committed(), 0);
}

TEST(Recorder, EventsCarryRoundAndCumulativeMessages) {
  MemorySink sink;
  obs::Recorder rec(&sink);
  NetStats stats;
  stats.executed_rounds = 3;
  stats.messages = 40;
  rec.begin_span(Phase::kInner, 5, stats);
  stats.executed_rounds = 7;
  stats.messages = 90;
  rec.counter(Counter::kMatchedPairs, stats.executed_rounds, 12);
  rec.end_span(Phase::kInner, 5, stats);
  rec.finish(stats);

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0],
            (Event{Event::Kind::kBegin, Phase::kInner, Counter{}, 3, 5, 40}));
  EXPECT_EQ(sink.events[1].kind, Event::Kind::kCounter);
  EXPECT_EQ(sink.events[1].counter, Counter::kMatchedPairs);
  EXPECT_EQ(sink.events[1].value, 12);
  EXPECT_EQ(sink.events[2],
            (Event{Event::Kind::kEnd, Phase::kInner, Counter{}, 7, 5, 90}));
}

TEST(Recorder, UnbalancedEndSpanFailsLoudly) {
  MemorySink sink;
  obs::Recorder rec(&sink);
  NetStats stats;
  EXPECT_THROW(rec.end_span(Phase::kRun, 0, stats), CheckError);
  rec.begin_span(Phase::kOuter, 1, stats);
  EXPECT_THROW(rec.end_span(Phase::kInner, 1, stats), CheckError);
  EXPECT_THROW(rec.end_span(Phase::kOuter, 2, stats), CheckError);
}

TEST(Recorder, FinishClosesOpenSpansInnermostFirst) {
  MemorySink sink;
  obs::Recorder rec(&sink);
  NetStats stats;
  rec.begin_span(Phase::kRun, 0, stats);
  rec.begin_span(Phase::kOuter, 2, stats);
  rec.begin_span(Phase::kInner, 9, stats);
  stats.executed_rounds = 11;
  rec.finish(stats);
  ASSERT_EQ(sink.events.size(), 6u);
  EXPECT_EQ(sink.events[3].phase, Phase::kInner);
  EXPECT_EQ(sink.events[4].phase, Phase::kOuter);
  EXPECT_EQ(sink.events[5].phase, Phase::kRun);
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(sink.events[static_cast<std::size_t>(i)].kind, Event::Kind::kEnd);
    EXPECT_EQ(sink.events[static_cast<std::size_t>(i)].round, 11);
  }
}

TEST(Recorder, RoundSamplesAreDeltas) {
  MemorySink sink;
  obs::Recorder rec(&sink);
  NetStats stats;
  stats.executed_rounds = 1;
  stats.messages = 10;
  stats.bits = 100;
  stats.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 10;
  rec.on_round(stats);
  stats.executed_rounds = 2;
  stats.messages = 14;
  stats.bits = 160;
  stats.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 12;
  stats.messages_by_type[static_cast<std::size_t>(MsgType::kAccept)] = 2;
  rec.on_round(stats);

  ASSERT_EQ(sink.rounds.size(), 2u);
  EXPECT_EQ(sink.rounds[0].round, 1);
  EXPECT_EQ(sink.rounds[0].messages, 10);
  EXPECT_EQ(sink.rounds[1].round, 2);
  EXPECT_EQ(sink.rounds[1].messages, 4);
  EXPECT_EQ(sink.rounds[1].bits, 60);
  EXPECT_EQ(sink.rounds[1]
                .messages_by_type[static_cast<std::size_t>(MsgType::kPropose)],
            2);
  EXPECT_EQ(sink.rounds[1]
                .messages_by_type[static_cast<std::size_t>(MsgType::kAccept)],
            2);
}

// ---- Engine integration: accounting ------------------------------------

TEST(ObsEngine, RoundSamplesReconcileWithNetStats) {
  const Instance inst = gen::complete_uniform(24, 7);
  MemorySink sink;
  core::AsmParams params;
  params.epsilon = 0.25;
  params.obs_sink = &sink;
  const auto r = core::run_asm(inst, params);

  ASSERT_EQ(sink.rounds.size(),
            static_cast<std::size_t>(r.net.executed_rounds));
  std::int64_t messages = 0;
  std::int64_t bits = 0;
  std::array<std::int64_t, 16> by_type{};
  std::int64_t prev_round = 0;
  for (const RoundSample& s : sink.rounds) {
    EXPECT_EQ(s.round, prev_round + 1);  // one sample per executed round
    prev_round = s.round;
    messages += s.messages;
    bits += s.bits;
    for (std::size_t i = 0; i < by_type.size(); ++i) {
      by_type[i] += s.messages_by_type[i];
    }
  }
  EXPECT_EQ(messages, r.net.messages);
  EXPECT_EQ(bits, r.net.bits);
  EXPECT_EQ(by_type, r.net.messages_by_type);
}

TEST(ObsEngine, SpansNestAndBalance) {
  const Instance inst = gen::complete_uniform(24, 3);
  MemorySink sink;
  core::AsmParams params;
  params.epsilon = 0.25;
  params.obs_sink = &sink;
  core::run_asm(inst, params);

  ASSERT_FALSE(sink.events.empty());
  std::vector<Event> stack;
  std::size_t run_spans = 0;
  for (const Event& e : sink.events) {
    if (e.kind == Event::Kind::kBegin) {
      stack.push_back(e);
      if (e.phase == Phase::kRun) ++run_spans;
    } else if (e.kind == Event::Kind::kEnd) {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back().phase, e.phase);
      EXPECT_EQ(stack.back().index, e.index);
      EXPECT_LE(stack.back().round, e.round);
      EXPECT_LE(stack.back().value, e.value);  // cumulative messages
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());  // every span closed
  EXPECT_EQ(run_spans, 1u);
}

TEST(ObsEngine, BlockingPairSamplesAreOptIn) {
  const Instance inst = gen::complete_uniform(16, 5);
  core::AsmParams params;
  params.epsilon = 0.25;

  MemorySink without;
  params.obs_sink = &without;
  core::run_asm(inst, params);
  for (const Event& e : without.events) {
    if (e.kind != Event::Kind::kCounter) continue;
    EXPECT_NE(e.counter, Counter::kBlockingPairs);
    EXPECT_NE(e.counter, Counter::kEpsBlockingPairs);
  }

  MemorySink with;
  params.obs_sink = &with;
  params.obs_blocking_pairs = true;
  core::run_asm(inst, params);
  bool saw_blocking = false;
  for (const Event& e : with.events) {
    saw_blocking = saw_blocking || (e.kind == Event::Kind::kCounter &&
                                    e.counter == Counter::kBlockingPairs);
  }
  EXPECT_TRUE(saw_blocking);
}

TEST(ObsEngine, MmRunnerCountsLiveNodesPerIteration) {
  const Graph g = testing::random_graph(64, 0.12, 11);
  MemorySink sink;
  mm::RunConfig config;
  config.backend = mm::Backend::kIsraeliItai;
  config.seed = 11;
  config.obs_sink = &sink;
  const auto r = mm::run_maximal_matching(g, {}, config);
  ASSERT_FALSE(r.live_after_iteration.empty());

  // One kMmLiveNodes counter per iteration, mirroring the decay series.
  std::vector<std::int64_t> live;
  for (const Event& e : sink.events) {
    if (e.kind == Event::Kind::kCounter &&
        e.counter == Counter::kMmLiveNodes) {
      live.push_back(e.value);
    }
  }
  EXPECT_EQ(live, r.live_after_iteration);
}

// ---- Determinism: a trace is bit-identical run to run ---------------------

std::string asm_trace_bytes(std::uint64_t seed) {
  const Instance inst = gen::complete_uniform(32, seed);
  MemorySink sink;
  core::AsmParams params;
  params.epsilon = 0.25;
  params.seed = seed;
  params.obs_sink = &sink;
  params.obs_blocking_pairs = true;
  core::run_asm(inst, params);
  return obs::to_jsonl(sink);
}

std::string rand_asm_trace_bytes(std::uint64_t seed) {
  const Instance inst = gen::complete_uniform(32, seed);
  MemorySink sink;
  core::RandAsmParams params;
  params.epsilon = 0.25;
  params.seed = seed;
  params.obs_sink = &sink;
  core::run_rand_asm(inst, params);
  return obs::to_jsonl(sink);
}

std::string mm_trace_bytes(std::uint64_t seed) {
  const Graph g = testing::random_graph(96, 0.08, seed);
  MemorySink sink;
  mm::RunConfig config;
  config.backend = mm::Backend::kIsraeliItai;
  config.seed = seed;
  config.obs_sink = &sink;
  mm::run_maximal_matching(g, {}, config);
  return obs::to_jsonl(sink);
}

TEST(ObsDeterminism, TracesRepeatBitForBit) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const std::string asm_trace = asm_trace_bytes(seed);
    EXPECT_GT(asm_trace.size(), 0u);
    EXPECT_EQ(asm_trace_bytes(seed), asm_trace) << "ASM seed=" << seed;
    const std::string rand_trace = rand_asm_trace_bytes(seed);
    EXPECT_GT(rand_trace.size(), 0u);
    EXPECT_EQ(rand_asm_trace_bytes(seed), rand_trace)
        << "RandASM seed=" << seed;
    const std::string mm_trace = mm_trace_bytes(seed);
    EXPECT_GT(mm_trace.size(), 0u);
    EXPECT_EQ(mm_trace_bytes(seed), mm_trace) << "MM seed=" << seed;
  }
}

// ---- Export round-trip and format sanity --------------------------------

TEST(ObsExport, JsonlRoundTripsExactly) {
  const Instance inst = gen::complete_uniform(24, 9);
  MemorySink sink;
  core::AsmParams params;
  params.epsilon = 0.25;
  params.obs_sink = &sink;
  params.obs_blocking_pairs = true;
  core::run_asm(inst, params);

  std::istringstream in(obs::to_jsonl(sink));
  MemorySink loaded;
  std::string error;
  ASSERT_TRUE(obs::load_jsonl(in, &loaded, &error)) << error;
  EXPECT_EQ(loaded.events, sink.events);
  EXPECT_EQ(loaded.rounds, sink.rounds);
}

TEST(ObsExport, LoadRejectsMalformedLines) {
  MemorySink out;
  std::string error;
  for (const char* bad : {
           "not json at all",
           "{\"t\":\"meta\",\"format\":\"other\",\"version\":1}",
           "{\"t\":\"b\",\"ph\":\"no-such-phase\",\"i\":0,\"r\":0,\"m\":0}",
           "{\"t\":\"c\",\"k\":\"no-such-counter\",\"r\":0,\"v\":0}",
           "{\"t\":\"b\",\"ph\":\"run\",\"i\":0}",  // missing fields
       }) {
    std::istringstream in(std::string(bad) + "\n");
    error.clear();
    EXPECT_FALSE(obs::load_jsonl(in, &out, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ObsExport, ChromeTraceLooksLikeTraceEventJson) {
  const Instance inst = gen::complete_uniform(16, 4);
  MemorySink sink;
  core::AsmParams params;
  params.epsilon = 0.25;
  params.obs_sink = &sink;
  core::run_asm(inst, params);

  std::ostringstream out;
  obs::write_chrome_trace(out, sink);
  const std::string json = out.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter series
  // Determinism extends to the Chrome form: same run, same bytes.
  std::ostringstream again;
  obs::write_chrome_trace(again, sink);
  EXPECT_EQ(again.str(), json);
}

}  // namespace
}  // namespace dasm
