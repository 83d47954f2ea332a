// Lightweight invariant checking for STGSim.
//
// STGSIM_CHECK is always on (simulation correctness beats the last few
// percent of speed); STGSIM_DCHECK compiles out in release builds and is
// meant for hot paths (event queues, interpreter dispatch).
#pragma once

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace stgsim {

/// Thrown when an internal invariant is violated. Carries the failing
/// condition text and location so tests can assert on failures.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

/// Prints the failure to stderr and throws CheckError.
[[noreturn]] void check_failed(const char* cond, const char* file, int line,
                               const std::string& msg);

/// Like check_failed, but only prints: used when throwing would call
/// std::terminate (check failing during stack unwinding).
void check_failed_noexcept(const char* cond, const char* file, int line,
                           const std::string& msg) noexcept;

/// Builds the optional streamed message for a failed check. Only a failed
/// check constructs one, so its constructor and destructor are cold and
/// out of line, and the stream lives on the heap: a frame holds a few
/// words per check instead of a std::ostringstream (about 400 B). Fiber
/// frames are copied at every yield (sim/fiber.hpp), so hot frames with
/// checks stay small.
class CheckMessage {
 public:
  [[gnu::cold, gnu::noinline]] CheckMessage(const char* cond,
                                            const char* file, int line);
  CheckMessage(const CheckMessage&) = delete;
  CheckMessage& operator=(const CheckMessage&) = delete;

  template <typename T>
  CheckMessage& operator<<(const T& v) {
    *stream_ << v;
    return *this;
  }

  /// Throws CheckError; only logs when another exception is unwinding the
  /// stack. A check can fail inside a destructor that runs while another
  /// exception is already unwinding the stack; throwing then would call
  /// std::terminate before anything is reported. Log-and-continue keeps
  /// the original exception (which the harness turns into a structured
  /// outcome) as the error of record.
  [[gnu::cold, gnu::noinline]] ~CheckMessage() noexcept(false);

 private:
  const char* cond_;
  const char* file_;
  int line_;
  std::unique_ptr<std::ostringstream> stream_;
};

}  // namespace detail
}  // namespace stgsim

#define STGSIM_CHECK(cond)                                          \
  if (cond) {                                                       \
  } else                                                            \
    ::stgsim::detail::CheckMessage(#cond, __FILE__, __LINE__)

#define STGSIM_CHECK_EQ(a, b) STGSIM_CHECK((a) == (b))
#define STGSIM_CHECK_NE(a, b) STGSIM_CHECK((a) != (b))
#define STGSIM_CHECK_LT(a, b) STGSIM_CHECK((a) < (b))
#define STGSIM_CHECK_LE(a, b) STGSIM_CHECK((a) <= (b))
#define STGSIM_CHECK_GT(a, b) STGSIM_CHECK((a) > (b))
#define STGSIM_CHECK_GE(a, b) STGSIM_CHECK((a) >= (b))

#ifdef NDEBUG
// The condition is still compiled but never evaluated, so a variable kept
// only for a DCHECK stays used and the condition keeps type-checking.
#define STGSIM_DCHECK(cond) \
  if (true || (cond)) {     \
  } else                    \
    ::stgsim::detail::CheckMessage(#cond, __FILE__, __LINE__)
#else
#define STGSIM_DCHECK(cond) STGSIM_CHECK(cond)
#endif

#define STGSIM_UNREACHABLE(msg)                                             \
  ::stgsim::detail::check_failed("unreachable", __FILE__, __LINE__, (msg))
