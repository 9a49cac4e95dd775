// Lightweight precondition / invariant checking.
//
// DASM_CHECK is always on (used to validate library invariants and user
// input); DASM_DCHECK compiles out in release builds and guards expensive
// internal assertions. Both throw dasm::CheckError so tests can assert on
// violations instead of aborting the process.
//
// A CheckError carries two texts: what() is the full diagnostic (failed
// condition, source file and line, message) for logs and the CLI's
// stderr; message() is only the DASM_CHECK_MSG text, or "invalid input"
// for a bare DASM_CHECK, and is what `dasm serve` sends a client.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dasm {

/// Raised when a DASM_CHECK / DASM_DCHECK condition fails.
class CheckError : public std::logic_error {
 public:
  CheckError(const std::string& what, std::string message)
      : std::logic_error(what), message_(std::move(message)) {}

  /// The client-safe part: names no source file and no C++ expression.
  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(), msg.empty() ? "invalid input" : msg);
}

}  // namespace detail
}  // namespace dasm

#define DASM_CHECK(cond)                                                \
  do {                                                                  \
    if (!(cond)) ::dasm::detail::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define DASM_CHECK_MSG(cond, msg)                                       \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::ostringstream dasm_check_os_;                                \
      dasm_check_os_ << msg;                                            \
      ::dasm::detail::check_failed(#cond, __FILE__, __LINE__,           \
                                   dasm_check_os_.str());               \
    }                                                                   \
  } while (0)

#ifdef NDEBUG
#define DASM_DCHECK(cond) \
  do {                    \
  } while (0)
#else
#define DASM_DCHECK(cond) DASM_CHECK(cond)
#endif
