// MatchService (DESIGN.md §9): the in-process serving layer over the fast
// engines — a bounded request queue with admission control, a
// register-once InstanceStore, a ResultCache keyed on canonical digests,
// and a deterministic batch scheduler that packs pending requests onto the
// SweepRunner (src/par/) and commits responses in request-arrival order.
//
// Determinism contract (DESIGN.md §6/§9): the response log and the
// exported obs trace are a pure function of (submitted requests, their
// order, their seeds) — the worker-thread count, batch partitioning, and
// cache state never leak into the committed bytes. Three properties make
// this hold:
//
//   1. each protocol run is serial, hence deterministic in its
//      parameters;
//   2. SweepRunner::map writes cell results into index-ordered slots, and
//      the commit loop walks requests in arrival order regardless of
//      which worker finished which cell first;
//   3. a response line carries only payload derived from its cache key,
//      plus the id and instance name of the request it answers, which the
//      commit stamps — serving from cache replays the cold run's bytes
//      exactly.
//
// Within one batch, requests sharing a cache key execute once: the first
// arrival becomes the cell, later arrivals are counted as cache hits and
// serve from the same slot. Across batches the ResultCache plays that
// role. Admission control is by queue capacity: submit() on a full queue
// sheds the request (returns -1) and the caller chooses between dropping
// and applying backpressure (run_batch() then resubmit — what `dasm
// batch` does).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/rand_asm.hpp"
#include "mm/runner.hpp"
#include "obs/trace.hpp"
#include "par/sweep.hpp"
#include "svc/instance_store.hpp"
#include "svc/request.hpp"
#include "svc/result_cache.hpp"

namespace dasm::svc {

struct SvcConfig {
  /// Worker threads of the batch scheduler (the one parallel layer,
  /// DESIGN.md §6): cells = distinct cache keys of the batch. 1 = serial,
  /// 0 = hardware concurrency. Every value commits identical bytes.
  int threads = 1;
  /// Admission control: pending requests beyond this are shed. Must be
  /// >= 1.
  std::size_t queue_capacity = 1024;
  /// Observability sink (src/obs/): when set, the service records a
  /// kSvcBatch span per batch, a kSvcRequest span per committed response
  /// (in arrival order; span traffic = the protocol messages that request
  /// actually cost, 0 on a cache hit), cumulative cache-hit/miss/shed
  /// counters, and one RoundSample per batch ("round" = batch ordinal).
  obs::TraceSink* obs_sink = nullptr;
  /// Wall-clock metrics registry (src/obs/metrics.hpp, DESIGN.md §11):
  /// when set, the service records svc.requests / shed / cache_hits /
  /// cache_misses counters, the svc.queue_depth gauge, logical batch
  /// shape histograms (svc.batch_requests, svc.batch_cells), and
  /// wall-clock latency histograms (time.svc.queue_wait_us per request,
  /// time.svc.execute_us per executed cell: each cell times itself into
  /// its result slot, and run_batch() observes the slots after the sweep).
  /// The registry is NOT handed to the per-cell engines: cells execute
  /// concurrently on sweep workers, and a registry has one writer — a
  /// service-owned registry observes the service layer only.
  /// Non-owning; must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Service-lifetime totals. `messages`/`rounds` count executed protocol
/// traffic only — cache hits cost nothing, which is the point.
struct SvcStats {
  std::int64_t submitted = 0;
  std::int64_t shed = 0;
  std::int64_t committed = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t batches = 0;
  std::int64_t executed_runs = 0;
  std::int64_t messages = 0;
  std::int64_t rounds = 0;

  friend bool operator==(const SvcStats&, const SvcStats&) = default;
};

class MatchService {
 public:
  explicit MatchService(SvcConfig config = {});

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  InstanceStore& instances() { return store_; }
  const InstanceStore& instances() const { return store_; }

  /// Enqueues a request and returns its arrival ordinal (the `id` of its
  /// eventual response), or -1 when the queue is full (the request is
  /// shed and counted; resubmit after run_batch() for backpressure).
  /// Requests naming an unregistered instance are a CheckError.
  std::int64_t submit(const Request& request);

  /// Executes every pending request and commits their responses in
  /// arrival order. A request whose run fails a check is answered in its
  /// place with Response::error set; it never aborts the batch. Returns
  /// the number of responses committed.
  std::int64_t run_batch();

  /// Runs batches until the queue is empty.
  void drain();

  std::size_t pending() const { return queue_.size(); }
  const std::vector<Response>& responses() const { return responses_; }

  /// Moves the committed response log out and clears it (stats are
  /// unaffected). The TCP front end (src/net/) consumes responses after
  /// every batch this way so a long-running server holds O(batch), not
  /// O(lifetime), responses; `dasm batch` instead lets the log accumulate
  /// and writes it once at the end.
  std::vector<Response> take_responses();
  const SvcStats& stats() const { return stats_; }

  /// Writes the committed response log (header + one line per response,
  /// arrival order).
  void write_responses(std::ostream& os) const;

 private:
  struct Pending {
    Request request;
    std::int64_t id = 0;
    const StoredInstance* inst = nullptr;
    CacheKey key{};
    // Admission time, for the queue-wait histogram. Only stamped when the
    // metrics registry is attached (the clock read is skipped otherwise).
    std::chrono::steady_clock::time_point submitted{};
  };

  SvcConfig config_;
  InstanceStore store_;
  ResultCache cache_;
  par::SweepRunner sweep_;
  std::deque<Pending> queue_;
  std::vector<Response> responses_;
  SvcStats stats_;
  obs::Recorder rec_;
  // Synthetic stats stream backing the obs spans: executed_rounds = batch
  // ordinal, messages/bits = cumulative executed protocol traffic.
  NetStats svc_net_;
  std::int64_t next_id_ = 0;

  // Wall-clock metrics handles (inactive unless SvcConfig::metrics set).
  obs::CounterHandle m_requests_;
  obs::CounterHandle m_shed_;
  obs::CounterHandle m_hits_;
  obs::CounterHandle m_misses_;
  obs::GaugeHandle m_queue_depth_;
  obs::HistogramHandle m_batch_requests_;  // logical: requests per batch
  obs::HistogramHandle m_batch_cells_;     // logical: distinct cells per batch
  obs::HistogramHandle m_queue_wait_us_;   // submit -> commit, per request
  obs::HistogramHandle m_execute_us_;      // per executed cell, on workers
};

/// The engine parameters a request runs with: the one mapping from the
/// request grammar to the engines, used by execute_request and by `dasm
/// run` (which adds what only it sets, such as --mimic-gs and a metrics
/// registry). Fields a request does not name keep their defaults.
core::AsmParams asm_params(const Request& request);
core::RandAsmParams rand_asm_params(const Request& request);
mm::RunConfig mm_config(const Request& request);

/// Executes one request against a stored instance — the same code path
/// whether called from a batch cell or from a naive per-request loop
/// (bench_a9's baseline). The returned payload has id = -1. Throws
/// CheckError when the run fails one of the engine's checks; run_batch()
/// answers such a cell with an `ERR` response and goes on with the rest.
Response execute_request(const StoredInstance& inst, const Request& request);

}  // namespace dasm::svc
