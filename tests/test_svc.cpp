// The matching service (src/svc/, ISSUE 7 tentpole): digests, the
// register-once InstanceStore, the ResultCache, request-file parsing, and
// MatchService's contracts — admission control, in-batch dedup, and the
// determinism guarantee: identical request stream + seeds ⇒ byte-identical
// response log and obs JSONL at every thread count, including a cache-hit
// replay equal to the cold run.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "par/thread_pool.hpp"
#include "stable/io.hpp"
#include "svc/service.hpp"
#include "util/check.hpp"

namespace dasm::svc {
namespace {

// ---------------------------------------------------------------------------
// Digests

TEST(SvcDigest, InstanceDigestDependsOnlyOnPreferences) {
  const Instance a = gen::complete_uniform(12, 7);
  // A save/load round trip rebuilds the object from scratch; the digest
  // must not see any of that.
  std::stringstream ss;
  save_instance(ss, a);
  const Instance b = load_instance(ss);
  EXPECT_EQ(digest_instance(a), digest_instance(b));
  EXPECT_NE(digest_instance(a), digest_instance(gen::complete_uniform(12, 8)));
  EXPECT_NE(digest_instance(a), digest_instance(gen::complete_uniform(13, 7)));
}

TEST(SvcDigest, ParamsDigestSeparatesEveryKnob) {
  const Request base;
  auto differs = [&](auto&& mutate) {
    Request r = base;
    mutate(r);
    return r.params_digest() != base.params_digest();
  };
  EXPECT_EQ(Request{}.params_digest(), base.params_digest());
  EXPECT_TRUE(differs([](Request& r) { r.algo = Algo::kRandAsm; }));
  EXPECT_TRUE(differs([](Request& r) { r.epsilon = 0.5; }));
  EXPECT_TRUE(differs([](Request& r) { r.seed = 2; }));
  EXPECT_TRUE(differs([](Request& r) { r.backend = mm::Backend::kIsraeliItai; }));
  EXPECT_TRUE(differs([](Request& r) { r.max_rounds = 100; }));
  EXPECT_TRUE(differs([](Request& r) { r.mm_iterations = 3; }));
  EXPECT_TRUE(differs([](Request& r) { r.fault_plan.drop = 0.1; }));
  EXPECT_TRUE(differs([](Request& r) { r.fault_plan.seed = 9; }));
  EXPECT_TRUE(differs([](Request& r) {
    r.fault_plan.crashes.push_back({3, 1});
  }));
  EXPECT_TRUE(differs([](Request& r) { r.retransmit_after = 2; }));
  EXPECT_TRUE(differs([](Request& r) { r.max_retransmits = 8; }));
}

TEST(SvcDigest, ParamsDigestsArePinned) {
  // Cache keys, and the key every response line prints, carry these
  // digests. They may move only with a deliberate format change, never
  // because mm::Backend gained a value somewhere other than at its end.
  EXPECT_EQ(Request{}.params_digest(), 0x697a2ca538fc8659ULL);
  std::istringstream is("g mm backend ii");
  EXPECT_EQ(parse_request(is).params_digest(), 0xc8da0da0bb5ba8f6ULL);
}

TEST(SvcDigest, CorpusInstanceDigestsArePinned) {
  // The twelve lines of servebench/corpus.txt and their instance digests
  // and edge counts. Every generator must consume its random stream in the
  // same order and every layout must stream the same canonical bytes, so
  // these move only with a deliberate change to what an instance is.
  struct Pin {
    const char* line;
    std::uint64_t digest;
    std::int64_t edges;
  };
  const Pin pins[] = {
      {"k48 gen complete 48 1", 0x3a32f68526e44a65ULL, 2304},
      {"k64 gen complete 64 2", 0x1ecc7a83d3579485ULL, 4096},
      {"k96 gen complete 96 3", 0x245c0ee1f3b864e5ULL, 9216},
      {"i768 gen incomplete 768 4", 0xccdf45398fb9ca25ULL, 12597},
      {"k384 gen complete 384 5", 0x745c2e47911db875ULL, 147456},
      {"i4096 gen incomplete 4096 6", 0x8509c01ef5aeaec9ULL, 65612},
      {"r4096 gen regular 4096 7", 0x6585decaf0909c91ULL, 65536},
      {"b4096 gen bounded 4096 8", 0x9e142cdab81253b8ULL, 32741},
      {"a4096 gen almost_regular 4096 9", 0x98b2c4ab4dce59abULL, 65290},
      {"m640 gen master 640 10", 0xae86b7c8ba56b745ULL, 409600},
      {"ch1024 gen chain 1024 11", 0xb3e9da0f5deb9ae6ULL, 2048},
      {"i2048 gen incomplete 2048 12", 0x5717a9a46f49987cULL, 32892},
  };
  for (const Pin& pin : pins) {
    std::istringstream is(pin.line);
    const Instance inst = make_declared_instance(parse_instance_decl(is));
    EXPECT_EQ(digest_instance(inst), pin.digest) << pin.line;
    EXPECT_EQ(inst.edge_count(), pin.edges) << pin.line;
  }
  // The families the service does not declare, one instance each.
  const Instance zipf = gen::zipf_popularity(256, 1.2, 5);
  EXPECT_EQ(digest_instance(zipf), 0xa351d1dcab91c3e5ULL);
  EXPECT_EQ(zipf.edge_count(), 65536);
  const Instance knn = gen::geometric_knn(512, 8, 6);
  EXPECT_EQ(digest_instance(knn), 0x601b3a2b381b1f71ULL);
  EXPECT_EQ(knn.edge_count(), 4096);
  const Instance window = gen::windowed_acquaintance(512, 8, 4, 7);
  EXPECT_EQ(digest_instance(window), 0x3408beecca9eba30ULL);
  EXPECT_EQ(window.edge_count(), 6616);
}

// ---------------------------------------------------------------------------
// Store and cache

TEST(SvcInstanceStore, RegisterOnceServeMany) {
  InstanceStore store;
  const StoredInstance& a = store.add("a", gen::complete_uniform(8, 1));
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.find("a"), &a);  // pointers are stable
  EXPECT_EQ(store.find("missing"), nullptr);
  EXPECT_EQ(a.digest, digest_instance(a.instance));
  EXPECT_THROW(store.add("a", gen::complete_uniform(8, 2)), CheckError);
  store.add("b", gen::complete_uniform(8, 2));
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.find("a"), &a);
}

TEST(SvcResultCache, LookupInsert) {
  ResultCache cache;
  const CacheKey key{1, 2};
  Response out;
  EXPECT_FALSE(cache.lookup(key, &out));
  Response r;
  r.instance = "a";
  r.matched = 5;
  cache.insert(key, r);
  EXPECT_EQ(cache.size(), 1);
  ASSERT_TRUE(cache.lookup(key, &out));
  EXPECT_EQ(out.matched, 5);
  EXPECT_FALSE(cache.lookup(CacheKey{1, 3}, &out));
  // Re-insert keeps the first payload.
  Response r2 = r;
  r2.matched = 99;
  cache.insert(key, r2);
  ASSERT_TRUE(cache.lookup(key, &out));
  EXPECT_EQ(out.matched, 5);
}

// ---------------------------------------------------------------------------
// Request-file parsing

TEST(SvcRequestFile, ParsesDeclarationsAndRequests) {
  std::istringstream is(
      "dasm-requests 1\n"
      "instance g gen complete 16 3\n"
      "request g asm eps 0.5 seed 2 backend ii max-rounds 50\n"
      "request g mm backend rp seed 4 iters 6\n"
      "request g rand-asm drop 0.25 fault-seed 7 retransmit-after 2 "
      "max-retransmits 9\n");
  const RequestFile file = load_requests(is);
  ASSERT_EQ(file.instances.size(), 1u);
  EXPECT_EQ(file.instances[0].family, "complete");
  EXPECT_EQ(file.instances[0].n, 16);
  ASSERT_EQ(file.requests.size(), 3u);
  EXPECT_EQ(file.requests[0].algo, Algo::kAsm);
  EXPECT_EQ(file.requests[0].epsilon, 0.5);
  EXPECT_EQ(file.requests[0].backend, mm::Backend::kIsraeliItai);
  EXPECT_EQ(file.requests[0].max_rounds, 50);
  EXPECT_EQ(file.requests[1].algo, Algo::kMm);
  EXPECT_EQ(file.requests[1].backend, mm::Backend::kRandomPriority);
  EXPECT_EQ(file.requests[1].mm_iterations, 6);
  EXPECT_EQ(file.requests[2].fault_plan.drop, 0.25);
  EXPECT_EQ(file.requests[2].fault_plan.seed, 7u);
  EXPECT_EQ(file.requests[2].retransmit_after, 2);
  EXPECT_EQ(file.requests[2].max_retransmits, 9);
}

TEST(SvcRequestFile, RejectsMalformedInput) {
  auto parse = [](const char* text) {
    std::istringstream is(text);
    return load_requests(is);
  };
  EXPECT_THROW(parse(""), CheckError);
  EXPECT_THROW(parse("dasm-requests 2\n"), CheckError);
  EXPECT_THROW(parse("dasm-instance 1\n"), CheckError);
  // Undeclared instance.
  EXPECT_THROW(parse("dasm-requests 1\nrequest ghost asm\n"), CheckError);
  // Duplicate declaration.
  EXPECT_THROW(parse("dasm-requests 1\n"
                     "instance a gen complete 8 1\n"
                     "instance a gen complete 8 2\n"),
               CheckError);
  // Unknown algo / key / source, missing value, non-numeric value.
  EXPECT_THROW(parse("dasm-requests 1\ninstance a gen complete 8 1\n"
                     "request a bogus\n"),
               CheckError);
  EXPECT_THROW(parse("dasm-requests 1\ninstance a gen complete 8 1\n"
                     "request a asm wibble 3\n"),
               CheckError);
  EXPECT_THROW(parse("dasm-requests 1\ninstance a blob x\n"), CheckError);
  EXPECT_THROW(parse("dasm-requests 1\ninstance a gen complete 8 1\n"
                     "request a asm eps\n"),
               CheckError);
  EXPECT_THROW(parse("dasm-requests 1\ninstance a gen complete 8 1\n"
                     "request a asm seed x7\n"),
               CheckError);
  EXPECT_THROW(parse("dasm-requests 1\ninstance a gen complete 8 1\n"
                     "request a asm eps 1.5\n"),
               CheckError);
  // Integers outside their field's type are errors, not narrowed values
  // (2^32 + 5 is not an n = 5 instance, 2^32 + 2 is not a 2-round timeout).
  EXPECT_THROW(parse("dasm-requests 1\ninstance g gen complete 4294967301 1\n"),
               CheckError);
  EXPECT_THROW(parse("dasm-requests 1\ninstance g gen complete 8 1\n"
                     "request g asm retransmit-after 4294967298\n"),
               CheckError);
  EXPECT_THROW(parse("dasm-requests 1\ninstance a gen complete 8 1\n"
                     "request a asm seed -1\n"),
               CheckError);
  // Raw loss: drop needs retransmit-after, except on mm with an iteration
  // budget.
  for (const char* raw : {"request a asm eps 0.5 drop 0.1\n",
                          "request a rand-asm drop 0.05 fault-seed 3\n",
                          "request a asm drop 0.1 iters 2\n",
                          "request a mm backend ii drop 0.1\n",
                          "request a mm drop 0.1 iters 0\n"}) {
    const std::string text =
        std::string("dasm-requests 1\ninstance a gen complete 8 1\n") + raw;
    EXPECT_THROW(parse(text.c_str()), CheckError) << raw;
  }
  EXPECT_NO_THROW(parse("dasm-requests 1\ninstance a gen complete 8 1\n"
                        "request a mm drop 0.1 iters 1\n"
                        "request a asm drop 0.1 retransmit-after 1\n"));
}

TEST(SvcRequestFile, OversizedDeclarationsAreRefusedBeforeGenerating) {
  const auto declared = [](const char* line) {
    std::istringstream is(line);
    return make_declared_instance(parse_instance_decl(is));
  };
  // Each is above 2^24 steps (n^2, n * d or 2n); the first would lay out
  // 4 * 10^10 ids. None may allocate anything before it is refused.
  for (const char* line : {"a gen complete 200000 1",
                           "a gen incomplete 4097 1",
                           "a gen master 65536 1",
                           "a gen regular 1048577 1",
                           "a gen bounded 2097153 1",
                           "a gen almost_regular 699051 1",
                           "a gen chain 8388609 1"}) {
    try {
      declared(line);
      ADD_FAILURE() << line << " was generated";
    } catch (const CheckError& e) {
      EXPECT_NE(e.message().find("above the limit"), std::string::npos)
          << e.message();
    }
  }
  EXPECT_THROW(declared("a gen bogus 8 1"), CheckError);
  // The largest corpus line sits exactly at the limit.
  EXPECT_EQ(declared("i4096 gen incomplete 4096 6").edge_count(), 65612);
}

// ---------------------------------------------------------------------------
// MatchService

// A mixed workload exercising all three algo paths, both deterministic
// and randomized backends, and a faulty-but-reliable run.
std::vector<Request> mixed_workload() {
  std::vector<Request> reqs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Request a;
    a.instance = "complete";
    a.algo = Algo::kAsm;
    a.epsilon = 0.25;
    a.seed = seed;
    reqs.push_back(a);

    Request r;
    r.instance = "regular";
    r.algo = Algo::kRandAsm;
    r.epsilon = 0.5;
    r.seed = seed;
    reqs.push_back(r);

    Request m;
    m.instance = "regular";
    m.algo = Algo::kMm;
    m.backend = seed % 2 == 0 ? mm::Backend::kIsraeliItai
                              : mm::Backend::kRandomPriority;
    m.seed = seed;
    reqs.push_back(m);
  }
  Request faulty;
  faulty.instance = "complete";
  faulty.algo = Algo::kAsm;
  faulty.fault_plan.drop = 0.1;
  faulty.fault_plan.seed = 5;
  faulty.retransmit_after = 2;
  reqs.push_back(faulty);
  return reqs;
}

void register_workload_instances(MatchService& service) {
  service.instances().add("complete", gen::complete_uniform(16, 1));
  service.instances().add("regular", gen::regular_bipartite(20, 6, 2));
}

struct RunOutput {
  std::string responses;
  std::string trace;
  SvcStats stats;
};

RunOutput run_workload(int threads, bool cache, int batches = 1) {
  obs::MemorySink sink;
  SvcConfig config;
  config.threads = threads;
  config.cache_results = cache;
  config.obs_sink = &sink;
  MatchService service(config);
  register_workload_instances(service);
  const std::vector<Request> reqs = mixed_workload();
  // Split the stream into `batches` roughly equal slices to check that
  // batch partitioning never leaks into the committed bytes.
  const std::size_t per =
      (reqs.size() + static_cast<std::size_t>(batches) - 1) /
      static_cast<std::size_t>(batches);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_GE(service.submit(reqs[i]), 0) << i;
    if ((i + 1) % per == 0) service.run_batch();
  }
  service.drain();
  RunOutput out;
  std::ostringstream os;
  service.write_responses(os);
  out.responses = os.str();
  out.trace = obs::to_jsonl(sink);
  out.stats = service.stats();
  return out;
}

TEST(SvcService, ResponseLogAndTraceAreByteIdenticalAcrossThreadCounts) {
  const RunOutput baseline = run_workload(1, true);
  EXPECT_EQ(baseline.stats.committed, 10);
  for (const int threads : {2, 4, par::hardware_threads()}) {
    const RunOutput other = run_workload(threads, true);
    EXPECT_EQ(baseline.responses, other.responses) << threads << " threads";
    EXPECT_EQ(baseline.trace, other.trace) << threads << " threads";
    EXPECT_EQ(baseline.stats, other.stats) << threads << " threads";
  }
}

TEST(SvcService, BatchPartitioningNeverChangesTheLog) {
  const RunOutput one = run_workload(2, true, 1);
  for (const int batches : {2, 3, 10}) {
    const RunOutput split = run_workload(2, true, batches);
    EXPECT_EQ(one.responses, split.responses) << batches << " batches";
  }
}

TEST(SvcService, CacheOffMatchesCacheOnBytes) {
  // The response payload is a pure function of the request, so disabling
  // the cache re-executes everything yet commits the same log.
  const RunOutput cached = run_workload(1, true);
  const RunOutput uncached = run_workload(1, false);
  EXPECT_EQ(cached.responses, uncached.responses);
  EXPECT_EQ(uncached.stats.cache_hits, 0);
  EXPECT_EQ(uncached.stats.executed_runs, uncached.stats.committed);
  EXPECT_GT(cached.stats.executed_runs, 0);
}

TEST(SvcService, CacheHitReplayEqualsColdRun) {
  SvcConfig config;
  config.threads = 2;
  MatchService service(config);
  register_workload_instances(service);
  const std::vector<Request> reqs = mixed_workload();
  for (const Request& r : reqs) ASSERT_GE(service.submit(r), 0);
  service.run_batch();
  const SvcStats cold = service.stats();
  for (const Request& r : reqs) ASSERT_GE(service.submit(r), 0);
  service.run_batch();
  const SvcStats warm = service.stats();

  // The replay executed nothing new...
  EXPECT_EQ(warm.executed_runs, cold.executed_runs);
  EXPECT_EQ(warm.cache_hits,
            cold.cache_hits + static_cast<std::int64_t>(reqs.size()));
  // ...and every replayed response equals its cold twin except the id.
  const auto& responses = service.responses();
  const std::size_t n = reqs.size();
  ASSERT_EQ(responses.size(), 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    Response replay = responses[n + i];
    EXPECT_EQ(replay.id, static_cast<std::int64_t>(n + i));
    replay.id = responses[i].id;
    EXPECT_EQ(replay, responses[i]) << "request " << i;
  }
}

TEST(SvcService, InBatchDedupExecutesOnce) {
  MatchService service;
  register_workload_instances(service);
  Request r;
  r.instance = "complete";
  for (int i = 0; i < 5; ++i) ASSERT_GE(service.submit(r), 0);
  service.run_batch();
  EXPECT_EQ(service.stats().executed_runs, 1);
  EXPECT_EQ(service.stats().cache_misses, 1);
  EXPECT_EQ(service.stats().cache_hits, 4);
  for (std::size_t i = 1; i < 5; ++i) {
    Response got = service.responses()[i];
    got.id = 0;
    EXPECT_EQ(got, service.responses()[0]);
  }
}

TEST(SvcService, AdmissionControlShedsBeyondCapacity) {
  SvcConfig config;
  config.queue_capacity = 2;
  MatchService service(config);
  register_workload_instances(service);
  Request r;
  r.instance = "complete";
  EXPECT_EQ(service.submit(r), 0);
  r.seed = 2;
  EXPECT_EQ(service.submit(r), 1);
  r.seed = 3;
  EXPECT_EQ(service.submit(r), -1);  // shed
  EXPECT_EQ(service.stats().shed, 1);
  EXPECT_EQ(service.run_batch(), 2);
  // Backpressure: after draining, the resubmission is admitted with a
  // fresh arrival ordinal.
  EXPECT_EQ(service.submit(r), 2);
  service.drain();
  EXPECT_EQ(service.stats().committed, 3);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(SvcService, RejectsUnregisteredInstance) {
  MatchService service;
  Request r;
  r.instance = "nope";
  EXPECT_THROW(service.submit(r), CheckError);
}

TEST(SvcService, TraceRoundTripsAndCountsBatches) {
  obs::MemorySink sink;
  SvcConfig config;
  config.obs_sink = &sink;
  MatchService service(config);
  register_workload_instances(service);
  Request r;
  r.instance = "complete";
  ASSERT_GE(service.submit(r), 0);
  service.run_batch();
  ASSERT_GE(service.submit(r), 0);  // replayed from cache in batch 2
  service.run_batch();

  // Two kSvcBatch spans, two kSvcRequest spans, cumulative counters, one
  // RoundSample per batch; and the JSONL form must load back exactly.
  EXPECT_EQ(sink.rounds.size(), 2u);
  EXPECT_EQ(sink.rounds[1].messages, 0);  // the replay cost no traffic
  const std::string jsonl = obs::to_jsonl(sink);
  obs::MemorySink reloaded;
  std::istringstream in(jsonl);
  std::string error;
  ASSERT_TRUE(obs::load_jsonl(in, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded.events, sink.events);
  EXPECT_EQ(reloaded.rounds, sink.rounds);
}

}  // namespace
}  // namespace dasm::svc
