#include "svc/request.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>

#include "gen/generators.hpp"
#include "stable/instance.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace dasm::svc {

namespace {

void check_token(bool present, const char* what) {
  DASM_CHECK_MSG(present, "unexpected end of input, expected " << what);
}

std::string next_token(std::istream& is, const char* what) {
  std::string tok;
  check_token(static_cast<bool>(is >> tok), what);
  return tok;
}

// The whole token as an Int (util/parse.hpp): a value outside the
// field's type is an error, never a narrowed one.
template <typename Int>
Int parse_int(std::string_view tok, const char* what) {
  const std::optional<Int> v = parse_integer<Int>(tok);
  DASM_CHECK_MSG(v.has_value(), "expected " << what << " (an integer in ["
                                            << std::numeric_limits<Int>::min()
                                            << ", "
                                            << std::numeric_limits<Int>::max()
                                            << "]), got '" << tok << "'");
  return *v;
}

double parse_number(std::string_view tok, const char* what) {
  const std::optional<double> v = parse_double(tok);
  DASM_CHECK_MSG(v.has_value(), "expected " << what << " (a number), got '"
                                            << tok << "'");
  return *v;
}

mm::Backend parse_backend(std::string_view tok) {
  if (tok == "det") return mm::Backend::kPointerGreedy;
  if (tok == "ii") return mm::Backend::kIsraeliItai;
  if (tok == "rp") return mm::Backend::kRandomPriority;
  DASM_CHECK_MSG(false, "backend must be det, ii or rp, got '" << tok << "'");
  return mm::Backend::kPointerGreedy;
}

Algo parse_algo(std::string_view tok) {
  if (tok == "asm") return Algo::kAsm;
  if (tok == "rand-asm") return Algo::kRandAsm;
  if (tok == "mm") return Algo::kMm;
  DASM_CHECK_MSG(false, "algo must be asm, rand-asm or mm, got '" << tok
                                                                  << "'");
  return Algo::kAsm;
}

// What one request may buy on the wire (DESIGN.md §9). With these a
// reliable payload lives at most (64 + 1) * 16 wire rounds, a lossy run
// settles every protocol round long before the network's settle check,
// and a raw mm run stops after 256 iterations.
constexpr double kMaxDrop = 0.5;
constexpr int kMaxRetransmitAfter = 16;
constexpr int kMaxRetransmits = 64;
constexpr int kMaxIterations = 256;

// The largest generation a declaration may ask for, in steps: exactly
// i4096's n^2 Bernoulli draws, the largest instance of the benchmark
// corpus. Above it one line could exhaust memory or hold the caller (the
// server's poll thread) for long.
constexpr std::int64_t kMaxGenerationWork = std::int64_t{1} << 24;

// The grammar after the `request` keyword, shared by both parse_request
// forms: the name and algo tokens, then the key-value tail.
Request request_from(std::string_view name, std::string_view algo,
                     Tokens& tail) {
  Request req;
  req.instance = name;
  req.algo = parse_algo(algo);
  for (std::string_view key = tail.next(); !key.empty(); key = tail.next()) {
    const std::string_view value = tail.next();
    DASM_CHECK_MSG(!value.empty(),
                   "request key '" << key << "' is missing its value");
    set_request_key(req, key, value);
  }
  check_request(req);
  return req;
}

// The grammar after the `instance` keyword, shared by both
// parse_instance_decl forms; `next(what)` yields the next token or throws
// check_token's error.
template <typename Next>
RequestFile::InstanceDecl instance_decl_from(Next&& next) {
  RequestFile::InstanceDecl decl;
  decl.name = next("instance name");
  const std::string source(next("'file' or 'gen'"));
  if (source == "file") {
    decl.from_file = true;
    decl.path = next("instance path");
  } else if (source == "gen") {
    decl.family = next("family");
    decl.n = parse_int<NodeId>(next("instance size"), "instance size");
    DASM_CHECK_MSG(decl.n > 0, "instance size must be positive");
    decl.seed =
        parse_int<std::uint64_t>(next("instance seed"), "instance seed");
  } else {
    DASM_CHECK_MSG(false, "instance source must be 'file' or 'gen', got '"
                              << source << "'");
  }
  return decl;
}

// Appends `v` in decimal, as `operator<<` writes it.
void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

}  // namespace

std::string_view Tokens::expect(const char* what) {
  const std::string_view tok = next();
  check_token(!tok.empty(), what);
  return tok;
}

void set_request_key(Request& req, std::string_view key,
                     std::string_view value) {
  if (key == "eps") {
    req.epsilon = parse_number(value, "eps");
    DASM_CHECK_MSG(req.epsilon > 0.0 && req.epsilon <= 1.0,
                   "eps must be in (0, 1], got " << req.epsilon);
  } else if (key == "seed") {
    req.seed = parse_int<std::uint64_t>(value, "seed");
  } else if (key == "backend") {
    req.backend = parse_backend(value);
  } else if (key == "max-rounds") {
    req.max_rounds = parse_int<std::int64_t>(value, "max-rounds");
    DASM_CHECK_MSG(req.max_rounds >= 0, "max-rounds must be >= 0");
  } else if (key == "iters") {
    req.mm_iterations = parse_int<int>(value, "iters");
    DASM_CHECK_MSG(req.mm_iterations >= 0, "iters must be >= 0");
  } else if (key == "drop") {
    req.fault_plan.drop = parse_number(value, "drop");
  } else if (key == "fault-seed") {
    req.fault_plan.seed = parse_int<std::uint64_t>(value, "fault-seed");
  } else if (key == "retransmit-after") {
    req.retransmit_after = parse_int<int>(value, "retransmit-after");
    DASM_CHECK_MSG(req.retransmit_after >= 0, "retransmit-after must be >= 0");
  } else if (key == "max-retransmits") {
    req.max_retransmits = parse_int<int>(value, "max-retransmits");
    DASM_CHECK_MSG(req.max_retransmits >= 1, "max-retransmits must be >= 1");
  } else {
    DASM_CHECK_MSG(false, "unknown request key '" << key << "'");
  }
}

void check_request(const Request& req) {
  req.fault_plan.validate();
  DASM_CHECK_MSG(req.fault_plan.drop <= kMaxDrop,
                 "drop must be <= " << kMaxDrop << ", got "
                                    << req.fault_plan.drop);
  DASM_CHECK_MSG(req.retransmit_after <= kMaxRetransmitAfter,
                 "retransmit-after must be <= " << kMaxRetransmitAfter
                                                << ", got "
                                                << req.retransmit_after);
  DASM_CHECK_MSG(req.max_retransmits <= kMaxRetransmits,
                 "max-retransmits must be <= " << kMaxRetransmits << ", got "
                                               << req.max_retransmits);
  DASM_CHECK_MSG(req.mm_iterations <= kMaxIterations,
                 "iters must be <= " << kMaxIterations << ", got "
                                     << req.mm_iterations);
  // Raw loss (faults without the reliability sublayer) aborts asm and
  // rand-asm, and can keep an mm run without an iteration budget from
  // ever ending.
  DASM_CHECK_MSG(!req.fault_plan.active() || req.retransmit_after >= 1 ||
                     (req.algo == Algo::kMm && req.mm_iterations >= 1),
                 "drop needs retransmit-after >= 1"
                     << (req.algo == Algo::kMm ? " or iters >= 1" : ""));
}

Request parse_request(std::istream& is) {
  const std::string name = next_token(is, "instance name");
  const std::string algo = next_token(is, "algo");
  std::string line;
  std::getline(is, line);
  Tokens tail(line);
  return request_from(name, algo, tail);
}

Request parse_request(std::string_view body) {
  Tokens tokens(body);
  const std::string_view name = tokens.expect("instance name");
  const std::string_view algo = tokens.expect("algo");
  return request_from(name, algo, tokens);
}

RequestFile::InstanceDecl parse_instance_decl(std::istream& is) {
  return instance_decl_from(
      [&](const char* what) { return next_token(is, what); });
}

RequestFile::InstanceDecl parse_instance_decl(std::string_view body) {
  Tokens tokens(body);
  return instance_decl_from(
      [&](const char* what) { return tokens.expect(what); });
}

const char* to_string(Algo algo) {
  switch (algo) {
    case Algo::kAsm:
      return "asm";
    case Algo::kRandAsm:
      return "rand-asm";
    case Algo::kMm:
      return "mm";
  }
  return "unknown";
}

std::uint64_t Request::params_digest() const {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(algo));
  h.mix(epsilon);
  h.mix(seed);
  h.mix(static_cast<std::uint64_t>(backend));
  h.mix(static_cast<std::uint64_t>(max_rounds));
  h.mix(static_cast<std::uint64_t>(mm_iterations));
  mix_fault_plan(h, fault_plan);
  h.mix(static_cast<std::uint64_t>(retransmit_after));
  h.mix(static_cast<std::uint64_t>(max_retransmits));
  return h.digest();
}

void Response::append_line(std::string& out) const {
  if (!error.empty()) {
    out += "ERR ";
    out += error;
    out += '\n';
    return;
  }
  out += "r ";
  append_int(out, id);
  out += " inst ";
  out += instance;
  out += " algo ";
  out += to_string(algo);
  out += " key ";
  append_hex(out, key);
  out += " matched ";
  append_int(out, matched);
  if (algo == Algo::kMm) {
    out += " maximal ";
    append_int(out, maximal);
  } else {
    out += " blocking ";
    append_int(out, blocking);
  }
  out += " rounds ";
  append_int(out, rounds);
  out += " messages ";
  append_int(out, messages);
  out += " bits ";
  append_int(out, bits);
  out += '\n';
}

void Response::write_line(std::ostream& os) const {
  std::string line;
  append_line(line);
  os << line;
}

RequestFile load_requests(std::istream& is) {
  std::string tok = next_token(is, "dasm-requests header");
  DASM_CHECK_MSG(tok == "dasm-requests",
                 "expected 'dasm-requests', got '" << tok << "'");
  tok = next_token(is, "format version");
  DASM_CHECK_MSG(tok == "1", "unsupported dasm-requests version '" << tok
                                                                   << "'");
  RequestFile file;
  std::string kind;
  while (is >> kind) {
    if (kind == "instance") {
      RequestFile::InstanceDecl decl = parse_instance_decl(is);
      for (const auto& existing : file.instances) {
        DASM_CHECK_MSG(existing.name != decl.name,
                       "instance '" << decl.name << "' declared twice");
      }
      file.instances.push_back(std::move(decl));
    } else if (kind == "request") {
      Request req = parse_request(is);
      const bool declared =
          std::any_of(file.instances.begin(), file.instances.end(),
                      [&](const auto& d) { return d.name == req.instance; });
      DASM_CHECK_MSG(declared, "request names undeclared instance '"
                                   << req.instance << "'");
      file.requests.push_back(std::move(req));
    } else {
      DASM_CHECK_MSG(false, "expected 'instance' or 'request', got '" << kind
                                                                      << "'");
    }
  }
  return file;
}

RequestFile load_requests_file(const std::string& path) {
  std::ifstream is(path);
  DASM_CHECK_MSG(is.good(), "cannot open '" << path << "'");
  return load_requests(is);
}

Instance make_declared_instance(const RequestFile::InstanceDecl& decl) {
  DASM_CHECK(!decl.from_file);
  const NodeId n = decl.n;
  const std::uint64_t seed = decl.seed;
  // `work` counts ids laid out or Bernoulli draws; it is checked before
  // the generator runs.
  const auto build = [&](std::int64_t work, auto&& generate) {
    DASM_CHECK_MSG(work <= kMaxGenerationWork,
                   "instance '" << decl.name << "': gen " << decl.family
                                << ' ' << n << " needs " << work
                                << " generation steps, above the limit of "
                                << kMaxGenerationWork);
    return generate();
  };
  const std::int64_t nn = static_cast<std::int64_t>(n) * n;
  const auto n_times = [&](NodeId d) {
    return static_cast<std::int64_t>(n) * std::min(n, d);
  };
  if (decl.family == "complete")
    return build(nn, [&] { return gen::complete_uniform(n, seed); });
  if (decl.family == "incomplete") {
    const double p = std::min(1.0, 16.0 / static_cast<double>(n));
    return build(nn, [&] { return gen::incomplete_uniform(n, n, p, seed); });
  }
  if (decl.family == "regular")
    return build(n_times(16), [&] {
      return gen::regular_bipartite(n, std::min<NodeId>(n, 16), seed);
    });
  if (decl.family == "bounded")
    return build(n_times(8), [&] {
      return gen::bounded_degree(n, std::min<NodeId>(n, 8), seed);
    });
  if (decl.family == "almost_regular")
    return build(n_times(24), [&] {
      return gen::almost_regular(n, std::min<NodeId>(n, 8),
                                 std::min<NodeId>(n, 24), seed);
    });
  if (decl.family == "master")
    return build(nn, [&] { return gen::master_list(n, n, seed); });
  if (decl.family == "chain")
    return build(2 * static_cast<std::int64_t>(n),
                 [&] { return gen::gs_displacement_chain(n); });
  DASM_CHECK_MSG(false, "unknown instance family '" << decl.family << "'");
  return gen::complete_uniform(n, seed);
}

void write_responses(std::ostream& os, const std::vector<Response>& responses) {
  os << "dasm-responses 1\n";
  for (const Response& r : responses) r.write_line(os);
}

}  // namespace dasm::svc
