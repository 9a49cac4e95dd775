// Wire format of the matching service (DESIGN.md §9): a line-oriented
// request file in the stable/io style, and the response log the service
// commits in request-arrival order.
//
// Request file (whitespace-tolerant, line oriented):
//
//   dasm-requests 1
//   instance tiny file examples/tiny.txt    <- register from a dasm-instance file
//   instance g0 gen complete 64 7           <- register family/n/seed
//   request g0 asm eps 0.25 seed 1
//   request g0 rand-asm eps 0.5 seed 3 drop 0.1 retransmit-after 2
//   request tiny mm backend ii seed 4
//
// Request keys (all optional, any order): eps, seed, backend (det|ii|rp),
// max-rounds, iters (MM iteration budget), drop, fault-seed,
// retransmit-after, max-retransmits. Unknown keys, unregistered instance
// names, and malformed values all fail with a diagnostic. So does raw
// loss (DESIGN.md §8): `drop` needs `retransmit-after` >= 1, except on an
// mm request with `iters` >= 1, because raw loss aborts asm and rand-asm
// and can keep an unbudgeted mm run live forever.
//
// Response log: one line per request, in arrival order. The line is a
// pure function of (instance, parameters) — cache state, batching, and
// thread count never appear in it, which is what makes the byte-identity
// contract (same request file + seeds ⇒ same log) testable:
//
//   dasm-responses 1
//   r 0 inst g0 algo asm key 5f1d... matched 64 blocking 3 rounds 118 messages 40210 bits 643360
//   r 2 inst tiny algo mm key 9a00... matched 3 maximal 1 rounds 9 messages 120 bits 1920
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "congest/fault.hpp"
#include "mm/node.hpp"
#include "svc/digest.hpp"

namespace dasm::svc {

enum class Algo : std::uint8_t {
  kAsm,      ///< deterministic ASM (core::run_asm)
  kRandAsm,  ///< RandASM (core::run_rand_asm)
  kMm,       ///< standalone maximal matching (mm::run_maximal_matching)
};
const char* to_string(Algo algo);

/// One matching request against a registered instance. Every field that
/// can alter the response participates in params_digest().
struct Request {
  std::string instance;  ///< InstanceStore registration name
  Algo algo = Algo::kAsm;
  double epsilon = 0.25;       ///< asm / rand-asm
  std::uint64_t seed = 1;
  mm::Backend backend = mm::Backend::kPointerGreedy;  ///< asm Step 3 / mm
  std::int64_t max_rounds = 0;  ///< asm round budget (0 = none)
  int mm_iterations = 0;        ///< mm iteration budget (0 = quiescence)
  FaultPlan fault_plan;
  int retransmit_after = 0;
  int max_retransmits = 64;

  /// Parameter half of the cache key (DESIGN.md §9): algo, backend, and
  /// every knob above, fault plan included.
  std::uint64_t params_digest() const;
};

/// The committed answer to one request. Payload fields (everything except
/// `id`) are a pure function of the cache key, so a cache hit replays the
/// cold run's bytes exactly.
struct Response {
  std::int64_t id = 0;  ///< arrival ordinal assigned by MatchService::submit
  std::string instance;
  Algo algo = Algo::kAsm;
  CacheKey key{};
  std::int64_t matched = 0;
  std::int64_t blocking = -1;  ///< blocking pairs; -1 for mm requests
  int maximal = -1;            ///< mm only: 1/0; -1 for stable-matching algos
  std::int64_t rounds = 0;     ///< NetStats::executed_rounds of the run
  std::int64_t messages = 0;
  std::int64_t bits = 0;

  void write_line(std::ostream& os) const;

  friend bool operator==(const Response&, const Response&) = default;
};

/// Parsed request file: instance registrations plus requests, in file
/// order (arrival order = file order).
struct RequestFile {
  struct InstanceDecl {
    std::string name;
    bool from_file = false;
    std::string path;     ///< from_file
    std::string family;   ///< generated
    NodeId n = 0;
    std::uint64_t seed = 1;
  };
  std::vector<InstanceDecl> instances;
  std::vector<Request> requests;
};

RequestFile load_requests(std::istream& is);
RequestFile load_requests_file(const std::string& path);

/// Parses the body of a `request` line — everything after the `request`
/// keyword (instance name, algo, key-value tail up to end-of-line).
/// Throws CheckError with a diagnostic on malformed input. Instance-name
/// resolution is the caller's job: the file loader checks the declared
/// set, the TCP front end (src/net/) the live InstanceStore.
Request parse_request(std::istream& is);

/// Parses the body of an `instance` line — everything after the
/// `instance` keyword. Duplicate-name policy is the caller's job.
RequestFile::InstanceDecl parse_instance_decl(std::istream& is);

/// Materializes a generated-instance declaration. Families: complete,
/// incomplete (p = min(1, 16/n)), regular (d = min(n, 16)), bounded
/// (d = min(n, 8)), almost_regular, master, chain — the bench registry's
/// conventions, so request files and experiment tables name the same
/// shapes. Throws CheckError, before generating anything, for an unknown
/// family or one whose generation would take more than 2^24 steps: n^2
/// for complete, incomplete and master, n * d for regular, bounded and
/// almost_regular (d = 16, 8 and 24), 2n for chain.
Instance make_declared_instance(const RequestFile::InstanceDecl& decl);

/// Writes the response log: header plus one line per response, in the
/// order given (MatchService keeps them in arrival order).
void write_responses(std::ostream& os, const std::vector<Response>& responses);

}  // namespace dasm::svc
