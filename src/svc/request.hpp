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
// and can keep an unbudgeted mm run live forever. So do values past the
// bounds on what one request may buy (drop 0.5, retransmit-after 16,
// max-retransmits 64, iters 256).
//
// Response log: one line per request, in arrival order. The line is a
// pure function of (instance, parameters) — cache state, batching, and
// thread count never appear in it, which is what makes the byte-identity
// contract (same request file + seeds ⇒ same log) testable:
//
//   dasm-responses 1
//   r 0 inst g0 algo asm key 5f1d... matched 64 blocking 3 rounds 118 messages 40210 bits 643360
//   r 2 inst tiny algo mm key 9a00... matched 3 maximal 1 rounds 9 messages 120 bits 1920
//   ERR maximal matching failed to converge within the safety cap
//
// The last form answers a request whose run failed one of the engine's
// checks; it takes the request's place (and its id) in the log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
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
/// `id` and `instance`, which name the request) are a pure function of the
/// cache key, so a cache hit replays the cold run's bytes exactly. A request whose run failed a check carries
/// the check's message in `error` and is answered `ERR <error>`.
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
  std::string error;  ///< non-empty: the run failed a check (no other
                      ///< payload field is meaningful)

  /// Appends the response line, '\n' included, to `out`: the one
  /// serializer. The TCP front end writes it straight into a connection's
  /// write buffer.
  void append_line(std::string& out) const;
  /// append_line into a stream (the response log of `dasm batch`).
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

/// The one tokenizer of the grammar: splits text at runs of the
/// whitespace `operator>>` skips in the classic locale (space, \t, \n,
/// \v, \f, \r), without copying. The string_view parsers below and the
/// TCP front end's line dispatch read lines through it; the std::istream
/// parsers split with `>>`, which cuts the same tokens.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_(text) {}

  /// The next token; empty once the text is used up.
  std::string_view next() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(begin, pos_ - begin);
  }

  /// The next token; throws CheckError "unexpected end of input, expected
  /// <what>" once the text is used up.
  std::string_view expect(const char* what);

  /// The text after the last token taken.
  std::string_view rest() const { return text_.substr(pos_); }

 private:
  static constexpr bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parses the body of a `request` line — everything after the `request`
/// keyword (instance name, algo, key-value tail up to end-of-line):
/// set_request_key for each pair, then check_request. Throws CheckError
/// with a diagnostic on malformed input. Instance-name resolution is the
/// caller's job: the file loader checks the declared set, the TCP front
/// end (src/net/) the live InstanceStore.
///
/// The std::istream form reads the name and algo with `>>` and the tail
/// up to the end of the current line (the request-file loader); the
/// string_view form takes one line's body (the TCP front end). Both run
/// the same grammar, so they accept the same lines with the same errors.
Request parse_request(std::istream& is);
Request parse_request(std::string_view body);

/// Applies one key-value pair of a request line to `request`, with that
/// key's own checks (eps in (0, 1], backend det|ii|rp, ...). `dasm run`
/// feeds its flags of the same names through here, so the CLI and the
/// wire accept the same values.
void set_request_key(Request& request, std::string_view key,
                     std::string_view value);

/// The checks that need the whole request, run once every key is set:
/// FaultPlan::validate(), the raw-loss rule above, and the bounds on what
/// one request may buy: drop <= 0.5, retransmit-after <= 16,
/// max-retransmits <= 64 and iters <= 256.
void check_request(const Request& request);

/// Parses the body of an `instance` line — everything after the
/// `instance` keyword. Duplicate-name policy is the caller's job. Both
/// forms read the declaration's tokens and leave what follows them: the
/// std::istream form with `>>` (the request-file loader), the string_view
/// form from one line's body (the TCP front end, which ignores the rest
/// of the line).
RequestFile::InstanceDecl parse_instance_decl(std::istream& is);
RequestFile::InstanceDecl parse_instance_decl(std::string_view body);

/// Materializes a generated-instance declaration. Families: complete,
/// incomplete (p = min(1, 16/n)), regular (d = min(n, 16)), bounded
/// (d = min(n, 8)), almost_regular (degrees min(n, 8) to min(n, 24)),
/// master, chain — the bench registry's conventions, so request files
/// and experiment tables name the same shapes. Throws CheckError, before
/// generating anything, for an unknown family or one whose generation
/// would take more than 2^24 steps: n^2 for complete, incomplete and
/// master, n * d for regular, bounded and almost_regular (d = 16, 8 and
/// 24), 2n for chain.
Instance make_declared_instance(const RequestFile::InstanceDecl& decl);

/// Writes the response log: header plus one line per response, in the
/// order given (MatchService keeps them in arrival order).
void write_responses(std::ostream& os, const std::vector<Response>& responses);

}  // namespace dasm::svc
