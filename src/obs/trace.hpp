// Structured observability for the protocol engines (ISSUE 4 tentpole).
//
// The paper's guarantees are phase-structured — ASM's outer
// degree-threshold loop × inner QuantileMatch loop × ProposalRound ×
// embedded maximal-matching sub-protocol (§3.2–§3.4) — but the terminal
// AsmResult/NetStats aggregate cannot show *which* phase consumed the
// rounds or messages. This subsystem records the execution as it unfolds:
//
//   - phase-scoped spans (Phase) carrying the network round and cumulative
//     message count at their begin/end, so any phase's round/message cost
//     is a subtraction;
//   - typed counter samples (Counter) — active men, matched size,
//     blocking-pair counts, MM live nodes — emitted at phase boundaries;
//   - per-round RoundSamples (message/bit deltas by MsgType, fed from
//     NetStats via the Network's end_round hook).
//
// Determinism contract (DESIGN.md §7): a run is serial, so events reach
// the sink in emission order and an exported trace is bit-identical run
// to run. "Time" in a trace is therefore the network round counter, never
// a wall clock.
//
// Cost contract: with no sink attached every recording call is a null
// check; compiling with DASM_OBS_DISABLED replaces the Recorder with
// empty inline stubs so the hooks vanish entirely. Measured on bench_a6:
// the instrumented engine is within noise of the pre-obs binary
// (EXPERIMENTS.md §A6).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "util/check.hpp"

namespace dasm::obs {

/// Span taxonomy, mirroring the nesting of Algorithms 1–3 (DESIGN.md §7):
/// kRun ⊃ kOuter ⊃ kInner ⊃ kProposalRound ⊃ kMmPhase ⊃ kMmIteration.
/// The standalone mm::Runner emits kRun ⊃ kMmIteration. The matching
/// service (src/svc/, DESIGN.md §9) emits kSvcBatch ⊃ kSvcRequest, where
/// "round" is the batch ordinal rather than a network round.
enum class Phase : std::uint8_t {
  kRun,            ///< one whole protocol execution
  kOuter,          ///< Algorithm 3 outer degree-threshold iteration
  kInner,          ///< one QuantileMatch call (inner iteration)
  kProposalRound,  ///< Algorithm 1 call (one quantile step)
  kMmPhase,        ///< Step-3 maximal-matching subcall
  kMmIteration,    ///< one iteration of the embedded MM protocol
  kSvcBatch,       ///< one MatchService batch commit
  kSvcRequest,     ///< one service request, committed in arrival order
};
inline constexpr int kPhaseCount = 8;
const char* to_string(Phase phase);

/// Typed scalar samples. The ASM engine emits the first six at every
/// inner-iteration boundary (blocking-pair counts only when
/// AsmParams::obs_blocking_pairs is set); the MM runner emits
/// kMmLiveNodes after every protocol iteration.
enum class Counter : std::uint8_t {
  kActiveMen,           ///< men with |Q| >= 2^i this outer iteration
  kBadActiveMen,        ///< active men unmatched with Q != {}
  kMatchedPairs,        ///< current matching size
  kMenWithLiveTargets,  ///< unmatched men with nonempty active set A
  kBlockingPairs,       ///< classic blocking pairs of the current matching
  kEpsBlockingPairs,    ///< (2/k)-blocking pairs (Definition 2)
  kMmLiveNodes,         ///< non-quiescent nodes of the MM protocol
  // MatchService counters (src/svc/), sampled cumulatively at every batch
  // boundary.
  kSvcCacheHits,    ///< requests served from the ResultCache
  kSvcCacheMisses,  ///< requests that executed a protocol run
  kSvcShed,         ///< requests rejected by admission control
};
inline constexpr int kCounterCount = 10;
const char* to_string(Counter counter);

/// One recorded event. Spans carry the cumulative network message count
/// in `value` so per-span traffic is end.value - begin.value; counters
/// carry the sampled value.
struct Event {
  enum class Kind : std::uint8_t { kBegin, kEnd, kCounter };

  Kind kind = Kind::kCounter;
  Phase phase = Phase::kRun;        ///< valid for kBegin / kEnd
  Counter counter = Counter::kActiveMen;  ///< valid for kCounter
  std::int64_t round = 0;  ///< NetStats::executed_rounds at emission
  std::int64_t index = 0;  ///< phase ordinal (outer i, inner j, …); 0 for counters
  std::int64_t value = 0;  ///< spans: cumulative messages; counters: sample

  friend bool operator==(const Event&, const Event&) = default;
};

/// Per-executed-round traffic deltas, sampled from NetStats at every
/// end_round() — the O(1)-per-round series behind dasm-trace's
/// convergence tables.
struct RoundSample {
  std::int64_t round = 0;     ///< 1-based executed round id
  std::int64_t messages = 0;  ///< messages offered (sent) this round
  std::int64_t bits = 0;      ///< bits offered this round
  std::array<std::int64_t, 16> messages_by_type{};  ///< delta per MsgType
  // Fault-layer deltas (NetStats; DESIGN.md §8) — all 0 on a fault-free
  // network, where delivered == messages implicitly.
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t retransmitted = 0;
  std::int64_t filtered = 0;

  friend bool operator==(const RoundSample&, const RoundSample&) = default;
};

/// Consumer of recorded events. Only the thread driving the run's round
/// loop calls it.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& event) = 0;
  virtual void on_round_sample(const RoundSample& sample) = 0;
};

/// Runtime null sink: accepts the full event stream and discards it.
/// Attach it to keep the recording plumbing live (e.g. for overhead
/// measurements) without retaining anything.
class NullSink final : public TraceSink {
 public:
  void on_event(const Event&) override {}
  void on_round_sample(const RoundSample&) override {}
};

/// In-memory sink: retains everything, in emission order. The exporters
/// (obs/export.hpp) and the determinism tests consume this.
class MemorySink final : public TraceSink {
 public:
  void on_event(const Event& event) override { events.push_back(event); }
  void on_round_sample(const RoundSample& sample) override {
    rounds.push_back(sample);
  }
  void clear() {
    events.clear();
    rounds.clear();
  }

  std::vector<Event> events;
  std::vector<RoundSample> rounds;
};

#ifdef DASM_OBS_DISABLED

/// Compile-out variant: every method is an empty inline stub, so engine
/// instrumentation sites cost nothing and the Network round hook is never
/// installed (enabled() is constexpr false).
class Recorder {
 public:
  explicit Recorder(TraceSink* = nullptr) {}
  static constexpr bool enabled() { return false; }
  void begin_span(Phase, std::int64_t, const NetStats&) {}
  void end_span(Phase, std::int64_t, const NetStats&) {}
  void counter(Counter, std::int64_t, std::int64_t) {}
  void on_round(const NetStats&) {}
  void finish(const NetStats&) {}
  static constexpr std::int64_t events_committed() { return 0; }
};

#else

/// The recording front end the engines drive. Every event goes straight to
/// the sink; on_round() — invoked from the Network's end_round hook —
/// appends the round's NetStats delta as a RoundSample. finish() closes
/// any spans left open by an early exit (round-budget stop, quiescence
/// trim).
///
/// With a null sink every call is a branch on `sink_ == nullptr`.
class Recorder {
 public:
  explicit Recorder(TraceSink* sink = nullptr) : sink_(sink) {}

  bool enabled() const { return sink_ != nullptr; }

  void begin_span(Phase phase, std::int64_t index, const NetStats& stats) {
    if (!sink_) return;
    emit(Event{Event::Kind::kBegin, phase, Counter{}, stats.executed_rounds,
                index, stats.messages});
    open_.push_back({phase, index});
  }

  void end_span(Phase phase, std::int64_t index, const NetStats& stats) {
    if (!sink_) return;
    DASM_CHECK_MSG(!open_.empty(), "end_span() with no open span");
    DASM_CHECK_MSG(open_.back().phase == phase && open_.back().index == index,
                   "unbalanced span: closing " << to_string(phase) << "#"
                                               << index << " but "
                                               << to_string(open_.back().phase)
                                               << "#" << open_.back().index
                                               << " is open");
    open_.pop_back();
    emit(Event{Event::Kind::kEnd, phase, Counter{}, stats.executed_rounds,
                index, stats.messages});
  }

  void counter(Counter counter, std::int64_t round, std::int64_t value) {
    if (!sink_) return;
    emit(Event{Event::Kind::kCounter, Phase{}, counter, round, 0, value});
  }

  /// Round-boundary hook (Network::set_round_hook): appends this round's
  /// traffic delta.
  void on_round(const NetStats& stats) {
    if (!sink_) return;
    const NetStats delta = stats.delta_since(last_);
    RoundSample sample;
    sample.round = stats.executed_rounds;
    sample.messages = delta.messages;
    sample.bits = delta.bits;
    sample.messages_by_type = delta.messages_by_type;
    sample.delivered = delta.delivered;
    sample.dropped = delta.dropped;
    sample.duplicated = delta.duplicated;
    sample.retransmitted = delta.retransmitted;
    sample.filtered = delta.filtered;
    sink_->on_round_sample(sample);
    last_ = stats;
  }

  /// Closes every still-open span (innermost first) at the final stats
  /// snapshot. Call once, after the run loop has exited.
  void finish(const NetStats& stats) {
    if (!sink_) return;
    while (!open_.empty()) {
      const OpenSpan span = open_.back();
      end_span(span.phase, span.index, stats);
    }
  }

  /// Events handed to the sink so far (0 forever when no sink is
  /// attached) — the witness of the null-path tests.
  std::int64_t events_committed() const { return committed_; }

 private:
  struct OpenSpan {
    Phase phase;
    std::int64_t index;
  };
  void emit(const Event& event) {
    sink_->on_event(event);
    ++committed_;
  }

  TraceSink* sink_;
  std::vector<OpenSpan> open_;  // span stack
  NetStats last_;               // cumulative stats at the previous sample
  std::int64_t committed_ = 0;
};

#endif  // DASM_OBS_DISABLED

}  // namespace dasm::obs
