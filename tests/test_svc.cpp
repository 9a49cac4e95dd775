// The matching service (src/svc/, ISSUE 7 tentpole): digests, the
// register-once InstanceStore, the ResultCache, request-file parsing, and
// MatchService's contracts — admission control, in-batch dedup, and the
// determinism guarantee: identical request stream + seeds ⇒ byte-identical
// response log and obs JSONL at every thread count, including a cache-hit
// replay equal to the cold run.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "mm/runner.hpp"
#include "obs/export.hpp"
#include "par/sweep.hpp"
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
  // Numbers are whole tokens: no sign, no trailing characters.
  for (const char* bad : {"eps +0.5", "drop +0.1", "eps 0.5x", "drop 0.1%",
                          "eps nan", "drop nan", "eps 1e999"}) {
    const std::string text =
        std::string("dasm-requests 1\ninstance a gen complete 8 1\n"
                    "request a asm retransmit-after 1 ") +
        bad + "\n";
    EXPECT_THROW(parse(text.c_str()), CheckError) << bad;
  }
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
  // Bounds on what one request may buy: past them a single lossy or raw
  // request held `dasm serve`'s poll thread for minutes.
  for (const char* costly :
       {"request a asm drop 0.51 retransmit-after 1\n",
        "request a asm drop 1 retransmit-after 1\n",
        "request a asm drop 0.1 retransmit-after 17\n",
        "request a asm drop 0.1 retransmit-after 1 max-retransmits 65\n",
        "request a asm drop 0.5 retransmit-after 1 max-retransmits 100000000\n",
        "request a mm backend ii iters 257\n",
        "request a mm backend ii iters 2000000000 drop 0.1\n"}) {
    const std::string text =
        std::string("dasm-requests 1\ninstance a gen complete 8 1\n") + costly;
    EXPECT_THROW(parse(text.c_str()), CheckError) << costly;
  }
  EXPECT_NO_THROW(
      parse("dasm-requests 1\ninstance a gen complete 8 1\n"
            "request a asm drop 0.5 retransmit-after 16 max-retransmits 64\n"
            "request a mm backend ii drop 0.5 iters 256\n"));
}

// The TCP front end parses each line through the string_view forms, the
// request-file loader (and servebench's replay oracle) through the
// std::istream forms. Both must accept the same lines, with the same
// values, and refuse the same lines with the same message.
TEST(SvcRequestFile, StringViewAndStreamFormsParseAlike) {
  const char* const requests[] = {
      "g asm",
      "g asm eps 0.5 seed 2 backend ii max-rounds 50",
      "g mm backend rp seed 4 iters 6",
      "g rand-asm drop 0.25 fault-seed 7 retransmit-after 2 max-retransmits 9",
      "  g\tasm \v eps\f0.3 \r seed   5  ",  // the whole `>>` whitespace set
      "g mm backend ii drop 0.1 iters 3",
      "",
      "g",
      "g bogus",
      "g asm eps",
      "g asm eps banana",
      "g asm eps +0.5",
      "g asm eps 2",
      "g asm wibble 3",
      "g asm seed -1",
      "g asm drop 0.1",
      "g mm backend ii drop 0.1",
      "g asm retransmit-after 4294967298",
      "g asm drop 0.51 retransmit-after 1",
      "g mm iters 257",
      "g asm eps\xa0" "0.5",  // bytes >= 0x80 are not whitespace
  };
  for (const char* body : requests) {
    std::istringstream is(body);
    std::string want_error, got_error;
    Request want, got;
    try {
      want = parse_request(is);
    } catch (const CheckError& e) {
      want_error = e.message();
    }
    try {
      got = parse_request(std::string_view(body));
    } catch (const CheckError& e) {
      got_error = e.message();
    }
    EXPECT_EQ(got_error, want_error) << body;
    EXPECT_EQ(got.instance, want.instance) << body;
    EXPECT_EQ(got.algo, want.algo) << body;
    EXPECT_EQ(got.params_digest(), want.params_digest()) << body;
  }

  const char* const decls[] = {
      "g gen complete 16 3",
      "f file some/path.txt",
      "\tg  gen\vregular 20 5 trailing tokens",
      "",
      "g",
      "g gen",
      "g gen complete",
      "g gen complete 0 1",
      "g gen complete 4294967301 1",
      "g gen complete 8 x",
      "g blob x",
  };
  for (const char* body : decls) {
    std::istringstream is(body);
    std::string want_error, got_error;
    RequestFile::InstanceDecl want, got;
    try {
      want = parse_instance_decl(is);
    } catch (const CheckError& e) {
      want_error = e.message();
    }
    try {
      got = parse_instance_decl(std::string_view(body));
    } catch (const CheckError& e) {
      got_error = e.message();
    }
    EXPECT_EQ(got_error, want_error) << body;
    EXPECT_EQ(got.name, want.name) << body;
    EXPECT_EQ(got.from_file, want.from_file) << body;
    EXPECT_EQ(got.path, want.path) << body;
    EXPECT_EQ(got.family, want.family) << body;
    EXPECT_EQ(got.n, want.n) << body;
    EXPECT_EQ(got.seed, want.seed) << body;
  }
}

TEST(SvcRequestFile, TokensSplitAtTheStreamWhitespace) {
  Tokens tokens(" a\tbb\n\vccc\f\rd \xa0" "e ");
  EXPECT_EQ(tokens.next(), "a");
  EXPECT_EQ(tokens.next(), "bb");
  EXPECT_EQ(tokens.rest(), "\n\vccc\f\rd \xa0" "e ");
  EXPECT_EQ(tokens.next(), "ccc");
  EXPECT_EQ(tokens.next(), "d");
  EXPECT_EQ(tokens.next(), "\xa0" "e");
  EXPECT_EQ(tokens.next(), "");
  EXPECT_EQ(tokens.next(), "");
  try {
    tokens.expect("algo");
    ADD_FAILURE() << "expect past the end returned";
  } catch (const CheckError& e) {
    EXPECT_EQ(e.message(), "unexpected end of input, expected algo");
  }
}

TEST(SvcResponse, AppendLineWritesTheLogLine) {
  Response r;
  r.id = 12;
  r.instance = "g0";
  r.algo = Algo::kAsm;
  r.key = CacheKey{1, 2};
  r.matched = 64;
  r.blocking = 3;
  r.rounds = 118;
  r.messages = 40210;
  r.bits = 643360;
  std::string line = "prefix ";
  r.append_line(line);
  EXPECT_EQ(line,
            "prefix r 12 inst g0 algo asm key 6d1db36ccba982d2 matched 64 "
            "blocking 3 rounds 118 messages 40210 bits 643360\n");
  r.algo = Algo::kMm;
  r.maximal = 1;
  r.id = -1;
  std::ostringstream os;
  r.write_line(os);
  EXPECT_EQ(os.str(),
            "r -1 inst g0 algo mm key 6d1db36ccba982d2 matched 64 maximal 1 "
            "rounds 118 messages 40210 bits 643360\n");
  r.error = "maximal matching failed to converge within the safety cap";
  line.clear();
  r.append_line(line);
  EXPECT_EQ(line,
            "ERR maximal matching failed to converge within the safety cap\n");
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
  // At the other end every family caps its degrees at n: n = 5 is below
  // the usual degree of regular (16), bounded (8) and almost_regular (8
  // to 24), and each still builds; almost_regular is then 5-regular.
  for (const char* family : {"complete", "incomplete", "regular", "bounded",
                             "almost_regular", "master", "chain"}) {
    const std::string line = std::string("a gen ") + family + " 5 1";
    EXPECT_GT(declared(line.c_str()).edge_count(), 0) << line;
  }
  EXPECT_EQ(declared("a gen almost_regular 5 1").edge_count(), 25);
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

RunOutput run_workload(int threads, int batches = 1) {
  obs::MemorySink sink;
  SvcConfig config;
  config.threads = threads;
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
  const RunOutput baseline = run_workload(1);
  EXPECT_EQ(baseline.stats.committed, 10);
  for (const int threads : {2, 4, par::hardware_threads()}) {
    const RunOutput other = run_workload(threads);
    EXPECT_EQ(baseline.responses, other.responses) << threads << " threads";
    EXPECT_EQ(baseline.trace, other.trace) << threads << " threads";
    EXPECT_EQ(baseline.stats, other.stats) << threads << " threads";
  }
}

TEST(SvcService, BatchPartitioningNeverChangesTheLog) {
  const RunOutput one = run_workload(2, 1);
  for (const int batches : {2, 3, 10}) {
    const RunOutput split = run_workload(2, batches);
    EXPECT_EQ(one.responses, split.responses) << batches << " batches";
  }
}

TEST(SvcService, CachedLogMatchesDirectExecution) {
  // The response payload is a pure function of the request, so a log
  // served partly from in-batch duplicates and partly from the cache
  // equals one direct execute_request per request, ids stamped in
  // arrival order.
  SvcConfig config;
  config.threads = 2;
  MatchService service(config);
  register_workload_instances(service);
  const std::vector<Request> workload = mixed_workload();
  const std::size_t distinct = workload.size();
  std::vector<Request> stream = workload;
  stream.insert(stream.end(), workload.begin(), workload.end());
  // The first batch repeats half the workload within itself; the second
  // batch is all cross-batch hits.
  const std::size_t first_batch = distinct + distinct / 2;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(service.submit(stream[i]), static_cast<std::int64_t>(i));
    if (i + 1 == first_batch) service.run_batch();
  }
  service.drain();
  EXPECT_EQ(service.stats().executed_runs,
            static_cast<std::int64_t>(distinct));
  EXPECT_EQ(service.stats().cache_hits, static_cast<std::int64_t>(distinct));

  std::vector<Response> direct;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const StoredInstance* inst = service.instances().find(stream[i].instance);
    ASSERT_NE(inst, nullptr);
    direct.push_back(execute_request(*inst, stream[i]));
    direct.back().id = static_cast<std::int64_t>(i);
  }
  std::ostringstream served;
  std::ostringstream executed;
  service.write_responses(served);
  write_responses(executed, direct);
  EXPECT_EQ(served.str(), executed.str());
}

// A request whose run fails one of the engine's checks is answered ERR in
// its place; the batch around it commits as if it were not there.
TEST(SvcService, FailingRunsAnswerErrAndSpareTheBatch) {
  Request valid;
  valid.instance = "c";
  valid.epsilon = 0.5;
  Request tiny_eps = valid;  // the schedule needs k >= 1
  tiny_eps.epsilon = 1e-9;
  Request dead = valid;  // a payload dies at the cap; Step 3 cannot finish
  dead.fault_plan.drop = 0.5;
  dead.retransmit_after = 1;
  dead.max_retransmits = 1;
  Request other = valid;
  other.seed = 2;
  const std::vector<Request> stream = {valid, tiny_eps, other, dead,
                                       valid, dead};

  std::string logs[2];
  for (const int threads : {1, 4}) {
    SvcConfig config;
    config.threads = threads;
    MatchService service(config);
    service.instances().add("c", gen::gs_displacement_chain(16));
    for (const Request& r : stream) ASSERT_GE(service.submit(r), 0);
    service.run_batch();
    const std::vector<Response>& got = service.responses();
    ASSERT_EQ(got.size(), stream.size());
    EXPECT_EQ(got[1].error, "invalid input");
    EXPECT_EQ(got[3].error,
              "maximal matching failed to converge within the safety cap");
    EXPECT_EQ(got[5].error, got[3].error);  // in-batch duplicate
    const StoredInstance& inst = *service.instances().find("c");
    for (const std::size_t i : {0, 2, 4}) {
      Response want = execute_request(inst, stream[i]);
      want.id = static_cast<std::int64_t>(i);
      EXPECT_EQ(got[i], want) << i;
    }
    // A later batch replays the failure from the cache.
    ASSERT_GE(service.submit(dead), 0);
    service.run_batch();
    EXPECT_EQ(service.responses().back().error, got[3].error);
    std::ostringstream os;
    service.write_responses(os);
    logs[threads == 1 ? 0 : 1] = os.str();
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_NE(logs[0].find("\nERR invalid input\nr 2 "), std::string::npos)
      << logs[0];
  EXPECT_EQ(logs[0].find("check failed"), std::string::npos);
  EXPECT_EQ(logs[0].find(".cpp:"), std::string::npos);
}

// Twin instances share a cache key, which covers an instance's contents
// and not its name; each answer still names the instance its request
// asked about, whether it piggybacks on a twin's run in the same batch or
// hits the entry a twin's run left for a later batch.
TEST(SvcService, CacheHitsAnswerWithTheirOwnInstanceName) {
  // The response log of `text`'s requests, split into lines, with a batch
  // cut after request `cut` (none if negative).
  auto serve = [](const std::string& text, int cut) {
    std::istringstream is(text);
    const RequestFile file = load_requests(is);
    MatchService service;
    for (const auto& decl : file.instances) {
      service.instances().add(decl.name, make_declared_instance(decl));
    }
    for (std::size_t i = 0; i < file.requests.size(); ++i) {
      EXPECT_GE(service.submit(file.requests[i]), 0);
      if (static_cast<int>(i) == cut) service.run_batch();
    }
    service.drain();
    EXPECT_EQ(service.stats().executed_runs, 1);
    std::ostringstream os;
    service.write_responses(os);
    std::vector<std::string> lines;
    std::istringstream log(os.str());
    for (std::string line; std::getline(log, line);) lines.push_back(line);
    return lines;
  };
  const std::string a = "instance a gen complete 16 1\n";
  const std::string b = "instance b gen complete 16 1\n";
  // a runs, b piggybacks on it in the same batch, and b hits the entry it
  // left in the next batch.
  const std::vector<std::string> got = serve(
      "dasm-requests 1\n" + a + b +
          "request a asm\nrequest b asm\nrequest b asm\n",
      1);
  // What each line reads on a service that never saw the twin.
  const std::vector<std::string> a_only =
      serve("dasm-requests 1\n" + a + "request a asm\n", -1);
  const std::vector<std::string> b_only = serve(
      "dasm-requests 1\n" + b +
          "request b asm\nrequest b asm\nrequest b asm\n",
      -1);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[1], a_only[1]);
  EXPECT_EQ(got[2], b_only[2]);
  EXPECT_EQ(got[3], b_only[3]);
  EXPECT_NE(got[2].find(" inst b "), std::string::npos) << got[2];
}

// ---------------------------------------------------------------------------
// The warm run context (DESIGN.md §13)

// What one run hands back: its matching, NetStats and trace, or the
// message of the check it failed.
struct RunRecord {
  std::vector<Edge> matching;
  NetStats net;
  std::vector<TraceEvent> trace;
  std::string error;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

RunRecord run_traced(const StoredInstance& inst, const Request& request) {
  constexpr std::size_t kTraceEvents = std::size_t{1} << 17;
  RunRecord out;
  try {
    if (request.algo == Algo::kMm) {
      const Graph& g = inst.instance.graph().graph();
      std::vector<bool> is_left(static_cast<std::size_t>(g.node_count()));
      for (NodeId m = 0; m < inst.instance.n_men(); ++m) {
        is_left[static_cast<std::size_t>(m)] = true;
      }
      mm::RunConfig config = mm_config(request);
      config.trace_events = kTraceEvents;
      const mm::RunResult r = mm::run_maximal_matching(g, is_left, config);
      out.matching = r.matching.edges();
      out.net = r.net;
      out.trace = r.trace;
    } else {
      core::AsmResult r;
      if (request.algo == Algo::kAsm) {
        core::AsmParams params = asm_params(request);
        params.net_trace_events = kTraceEvents;
        r = core::run_asm(inst.instance, params);
      } else {
        core::RandAsmParams params = rand_asm_params(request);
        params.net_trace_events = kTraceEvents;
        r = core::run_rand_asm(inst.instance, params);
      }
      out.matching = r.matching.edges();
      out.net = r.net;
      out.trace = std::move(r.net_trace);
    }
  } catch (const CheckError& e) {
    out.error = e.message();
  }
  return out;
}

// One thread runs requests that change instance, algorithm, backend and
// fault plan at every step, one of them failing mid-round with payloads
// open, then the same requests in reverse. Each run must hand back what
// the same request hands back on a thread that never ran anything else.
TEST(SvcContext, ReusedContextMatchesAFreshThread) {
  InstanceStore store;
  store.add("k96", gen::complete_uniform(96, 3));
  store.add("i768", gen::incomplete_uniform(768, 768, 16.0 / 768, 4));
  store.add("k64", gen::complete_uniform(64, 2));
  store.add("c", gen::gs_displacement_chain(16));
  auto request = [](const std::string& line) {
    return parse_request(std::string_view(line));
  };
  // The wire names no color-class backend; the engines take it.
  auto color_class = [](Request r) {
    r.backend = mm::Backend::kColorClass;
    return r;
  };
  const std::vector<Request> sequence = {
      request("k96 asm eps 0.25 seed 5"),
      request("i768 rand-asm eps 0.25 seed 6"),
      request("k96 mm backend ii seed 7"),
      request("k64 asm eps 0.25 seed 8 drop 0.05 retransmit-after 2"),
      color_class(request("k64 asm eps 0.5 seed 9")),
      request("i768 mm backend det seed 10"),
      // SvcService.FailingRunsAnswerErrAndSpareTheBatch's `dead`: a
      // payload dies at the retransmit cap and Step 3 cannot finish.
      request("c asm eps 0.5 drop 0.5 retransmit-after 1 max-retransmits 1"),
  };
  std::vector<RunRecord> fresh(sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    std::thread([&, i] {
      fresh[i] = run_traced(*store.find(sequence[i].instance), sequence[i]);
    }).join();
  }
  EXPECT_EQ(fresh.back().error,
            "maximal matching failed to converge within the safety cap");

  // Every request in order, then in reverse.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < sequence.size(); ++i) order.push_back(i);
  for (std::size_t i = sequence.size(); i-- > 0;) order.push_back(i);
  std::thread([&] {
    for (const std::size_t i : order) {
      const RunRecord warm =
          run_traced(*store.find(sequence[i].instance), sequence[i]);
      EXPECT_TRUE(warm == fresh[i]) << "request " << i;
      EXPECT_FALSE(warm.trace.empty() && warm.error.empty()) << i;
    }
  }).join();
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
