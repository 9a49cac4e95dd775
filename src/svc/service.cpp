#include "svc/service.hpp"

#include <ostream>
#include <unordered_map>
#include <utility>

#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "mm/runner.hpp"
#include "stable/blocking.hpp"
#include "util/check.hpp"

namespace dasm::svc {

Response execute_request(const StoredInstance& inst, const Request& request) {
  Response resp;
  resp.id = -1;
  resp.instance = inst.name;
  resp.algo = request.algo;
  resp.key = CacheKey{inst.digest, request.params_digest()};

  const auto fill_net = [&resp](const NetStats& net) {
    resp.rounds = net.executed_rounds;
    resp.messages = net.messages;
    resp.bits = net.bits;
  };

  switch (request.algo) {
    case Algo::kAsm: {
      core::AsmParams params;
      params.epsilon = request.epsilon;
      params.seed = request.seed;
      params.mm_backend = request.backend;
      params.max_rounds = request.max_rounds;
      params.fault_plan = request.fault_plan;
      params.retransmit_after = request.retransmit_after;
      params.max_retransmits = request.max_retransmits;
      params.threads = 1;
      const core::AsmResult r = core::run_asm(inst.instance, params);
      resp.matched = r.matching.size();
      resp.blocking = count_blocking_pairs(inst.instance, r.matching);
      fill_net(r.net);
      break;
    }
    case Algo::kRandAsm: {
      core::RandAsmParams params;
      params.epsilon = request.epsilon;
      params.seed = request.seed;
      params.fault_plan = request.fault_plan;
      params.retransmit_after = request.retransmit_after;
      params.max_retransmits = request.max_retransmits;
      params.threads = 1;
      const core::AsmResult r = core::run_rand_asm(inst.instance, params);
      resp.matched = r.matching.size();
      resp.blocking = count_blocking_pairs(inst.instance, r.matching);
      fill_net(r.net);
      break;
    }
    case Algo::kMm: {
      const Graph& g = inst.instance.graph().graph();
      std::vector<bool> is_left(static_cast<std::size_t>(g.node_count()));
      for (NodeId v = 0; v < inst.instance.n_men(); ++v) {
        is_left[static_cast<std::size_t>(v)] = true;
      }
      mm::RunConfig config;
      config.backend = request.backend;
      config.seed = request.seed;
      config.max_iterations = request.mm_iterations;
      config.fault_plan = request.fault_plan;
      config.retransmit_after = request.retransmit_after;
      config.max_retransmits = request.max_retransmits;
      config.threads = 1;
      const mm::RunResult r = mm::run_maximal_matching(g, is_left, config);
      resp.matched = r.matching.size();
      resp.maximal = r.maximal ? 1 : 0;
      fill_net(r.net);
      break;
    }
  }
  return resp;
}

MatchService::MatchService(SvcConfig config)
    : config_(config),
      store_(config.store_shards),
      cache_(config.cache_shards),
      sweep_(config.threads),
      rec_(config.obs_sink) {
  DASM_CHECK_MSG(config_.queue_capacity >= 1,
                 "queue capacity must be >= 1");
  if (config_.metrics != nullptr && obs::MetricsRegistry::enabled()) {
    m_requests_ = config_.metrics->counter("svc.requests");
    m_shed_ = config_.metrics->counter("svc.shed");
    m_hits_ = config_.metrics->counter("svc.cache_hits");
    m_misses_ = config_.metrics->counter("svc.cache_misses");
    m_queue_depth_ = config_.metrics->gauge("svc.queue_depth");
    m_batch_requests_ = config_.metrics->histogram("svc.batch_requests");
    m_batch_cells_ = config_.metrics->histogram("svc.batch_cells");
    m_queue_wait_us_ = config_.metrics->histogram("time.svc.queue_wait_us");
    m_execute_us_ = config_.metrics->histogram("time.svc.execute_us");
  }
}

std::int64_t MatchService::submit(const Request& request) {
  ++stats_.submitted;
  m_requests_.inc();
  const StoredInstance* inst = store_.find(request.instance);
  DASM_CHECK_MSG(inst != nullptr, "request names unregistered instance '"
                                      << request.instance << "'");
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.shed;
    m_shed_.inc();
    return -1;
  }
  Pending pending;
  pending.request = request;
  pending.id = next_id_++;
  pending.inst = inst;
  pending.key = CacheKey{inst->digest, request.params_digest()};
  if (m_queue_wait_us_.active()) {
    pending.submitted = std::chrono::steady_clock::now();
  }
  queue_.push_back(std::move(pending));
  m_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  return queue_.back().id;
}

std::int64_t MatchService::run_batch() {
  if (queue_.empty()) return 0;
  std::vector<Pending> batch(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(queue_.end()));
  queue_.clear();
  m_queue_depth_.set(0);
  m_batch_requests_.observe(static_cast<std::int64_t>(batch.size()));

  // Plan in arrival order: each pending request either hits the
  // cross-batch cache, piggybacks on an earlier arrival with the same key,
  // or claims the next cell.
  struct Plan {
    bool cached = false;     // serve from `cached_payload`
    std::int64_t cell = -1;  // else: slot in the sweep results
    bool owns_cell = false;  // first arrival of its key (pays the miss)
    Response cached_payload;
  };
  std::vector<Plan> plans(batch.size());
  std::unordered_map<CacheKey, std::int64_t, CacheKeyHash> cell_of_key;
  std::vector<const Pending*> cells;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Plan& plan = plans[i];
    if (!config_.cache_results) {
      // Cache off: every request is its own cell (the naive-loop shape,
      // just packed onto the pool).
      plan.cell = static_cast<std::int64_t>(cells.size());
      plan.owns_cell = true;
      cells.push_back(&batch[i]);
      continue;
    }
    if (cache_.lookup(batch[i].key, &plan.cached_payload)) {
      plan.cached = true;
      continue;
    }
    const auto [it, inserted] = cell_of_key.emplace(
        batch[i].key, static_cast<std::int64_t>(cells.size()));
    plan.cell = it->second;
    if (inserted) {
      plan.owns_cell = true;
      cells.push_back(&batch[i]);
    }
  }

  // Execute the distinct cells across the sweep pool. Slot i only ever
  // holds cell i's result and its own execution time, so the commit below
  // is order-independent, and the registry is written only here, on the
  // thread that called run_batch(), after the sweep.
  m_batch_cells_.observe(static_cast<std::int64_t>(cells.size()));
  struct CellResult {
    Response resp;
    std::int64_t execute_us = 0;
  };
  const bool time_cells = m_execute_us_.active();
  const std::vector<CellResult> results = sweep_.map<CellResult>(
      static_cast<std::int64_t>(cells.size()), [&](std::int64_t i) {
        const Pending& p = *cells[static_cast<std::size_t>(i)];
        const auto t0 = time_cells ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
        CellResult out{execute_request(*p.inst, p.request)};
        if (time_cells) {
          out.execute_us =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
        }
        return out;
      });
  for (const CellResult& r : results) m_execute_us_.observe(r.execute_us);

  // Commit in arrival order: stamp ids, account hits/misses, record the
  // obs spans, and publish to the cache for later batches.
  const std::int64_t batch_ordinal = stats_.batches;
  const bool timing = m_queue_wait_us_.active();
  const auto commit_time =
      timing ? std::chrono::steady_clock::now()
             : std::chrono::steady_clock::time_point{};
  rec_.begin_span(obs::Phase::kSvcBatch, batch_ordinal, svc_net_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Plan& plan = plans[i];
    Response resp =
        plan.cached ? plan.cached_payload
                    : results[static_cast<std::size_t>(plan.cell)].resp;
    resp.id = batch[i].id;
    if (timing) {
      m_queue_wait_us_.observe(
          std::chrono::duration_cast<std::chrono::microseconds>(
              commit_time - batch[i].submitted)
              .count());
    }
    const bool paid = plan.owns_cell || !config_.cache_results;
    if (paid) {
      ++stats_.cache_misses;
      m_misses_.inc();
      ++stats_.executed_runs;
      stats_.messages += resp.messages;
      stats_.rounds += resp.rounds;
    } else {
      ++stats_.cache_hits;
      m_hits_.inc();
    }
    rec_.begin_span(obs::Phase::kSvcRequest, resp.id, svc_net_);
    if (paid) {
      svc_net_.messages += resp.messages;
      svc_net_.bits += resp.bits;
      svc_net_.delivered += resp.messages;
    }
    rec_.end_span(obs::Phase::kSvcRequest, resp.id, svc_net_);
    if (plan.owns_cell && config_.cache_results) {
      Response cached = resp;
      cached.id = -1;  // the payload is key-addressed; arrival ids are not
      cache_.insert(batch[i].key, cached);
    }
    ++stats_.committed;
    responses_.push_back(std::move(resp));
  }
  ++stats_.batches;
  ++svc_net_.executed_rounds;
  rec_.end_span(obs::Phase::kSvcBatch, batch_ordinal, svc_net_);
  rec_.counter(obs::Counter::kSvcCacheHits, svc_net_.executed_rounds,
               stats_.cache_hits);
  rec_.counter(obs::Counter::kSvcCacheMisses, svc_net_.executed_rounds,
               stats_.cache_misses);
  rec_.counter(obs::Counter::kSvcShed, svc_net_.executed_rounds, stats_.shed);
  rec_.on_round(svc_net_);
  return static_cast<std::int64_t>(batch.size());
}

void MatchService::drain() {
  while (!queue_.empty()) run_batch();
}

std::vector<Response> MatchService::take_responses() {
  std::vector<Response> taken = std::move(responses_);
  responses_.clear();
  return taken;
}

void MatchService::write_responses(std::ostream& os) const {
  svc::write_responses(os, responses_);
}

}  // namespace dasm::svc
