#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace dredbox::sim {

/// Thrown when a contract macro (DREDBOX_REQUIRE / DREDBOX_ENSURE /
/// DREDBOX_INVARIANT) fails: a precondition the caller violated, a
/// postcondition the callee failed to establish, or an internal invariant a
/// check_invariants() audit found broken. Carries the failing expression and
/// source location so a violation deep inside a rack-scale scenario is
/// diagnosable from the what() string alone.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(std::string kind, std::string expression, std::string file, int line,
                    std::string function, std::string message);

  /// "precondition", "postcondition" or "invariant".
  const std::string& kind() const { return kind_; }
  /// The stringified condition that evaluated false.
  const std::string& expression() const { return expression_; }
  const std::string& file() const { return file_; }
  int line() const { return line_; }
  const std::string& function() const { return function_; }
  /// The optional caller-supplied detail message (may be empty).
  const std::string& message() const { return message_; }

 private:
  std::string kind_;
  std::string expression_;
  std::string file_;
  int line_;
  std::string function_;
  std::string message_;
};

/// The config gates' one throw: std::invalid_argument reading
/// "invalid <what>:" followed by one "\n  - <finding>" line per error, so a
/// caller fixing a config sees every finding at once. Returns when
/// `errors` is empty.
void throw_if_invalid(const std::string& what, const std::vector<std::string>& errors);

namespace contract_detail {

/// Out-of-line throw helper so the macro expansion at every check site stays
/// one comparison and one (never-taken) call.
[[noreturn]] void fail(const char* kind, const char* expression, const char* file, int line,
                       const char* function, const std::string& message);

}  // namespace contract_detail

}  // namespace dredbox::sim

/// DREDBOX_AUDIT_ENABLED is 1 in -DDREDBOX_AUDIT=ON builds (the CMake option
/// defines DREDBOX_AUDIT=1 globally) and 0 otherwise.
#if defined(DREDBOX_AUDIT) && DREDBOX_AUDIT
#define DREDBOX_AUDIT_ENABLED 1
#else
#define DREDBOX_AUDIT_ENABLED 0
#endif

/// DREDBOX_INVARIANT(cond [, message]) — always-on consistency check for use
/// *inside* check_invariants() implementations. The audits themselves are
/// opt-in at the call site (DREDBOX_AUDIT_INVARIANT below), but once an audit
/// runs — or a test calls check_invariants() directly — it must actually
/// check in every build flavour.
#define DREDBOX_INVARIANT(condition, ...)                                               \
  ((condition) ? static_cast<void>(0)                                                   \
               : ::dredbox::sim::contract_detail::fail("invariant", #condition,         \
                                                       __FILE__, __LINE__, __func__,    \
                                                       ::std::string{__VA_ARGS__}))

#if DREDBOX_AUDIT_ENABLED

/// DREDBOX_REQUIRE(cond [, message]) — precondition on entry to an operation.
/// The message expression is evaluated only on failure.
#define DREDBOX_REQUIRE(condition, ...)                                                 \
  ((condition) ? static_cast<void>(0)                                                   \
               : ::dredbox::sim::contract_detail::fail("precondition", #condition,      \
                                                       __FILE__, __LINE__, __func__,    \
                                                       ::std::string{__VA_ARGS__}))

/// DREDBOX_ENSURE(cond [, message]) — postcondition before returning.
#define DREDBOX_ENSURE(condition, ...)                                                  \
  ((condition) ? static_cast<void>(0)                                                   \
               : ::dredbox::sim::contract_detail::fail("postcondition", #condition,     \
                                                       __FILE__, __LINE__, __func__,    \
                                                       ::std::string{__VA_ARGS__}))

/// DREDBOX_AUDIT_INVARIANT(statement) — runs a deep audit statement (usually
/// `check_invariants()`) at a mutation point. Compiled out entirely when
/// DREDBOX_AUDIT is off, so hot paths pay nothing in production builds.
#define DREDBOX_AUDIT_INVARIANT(...) \
  do {                               \
    __VA_ARGS__;                     \
  } while (false)

#else  // !DREDBOX_AUDIT_ENABLED

// Audits compiled out: the operands are never evaluated, so conditions and
// messages with side effects cost nothing (contract_test verifies this).
#define DREDBOX_REQUIRE(condition, ...) static_cast<void>(0)
#define DREDBOX_ENSURE(condition, ...) static_cast<void>(0)
#define DREDBOX_AUDIT_INVARIANT(...) static_cast<void>(0)

#endif  // DREDBOX_AUDIT_ENABLED
