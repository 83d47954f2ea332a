#include "support/check.hpp"

#include <cstdio>
#include <exception>

namespace stgsim::detail {

namespace {

std::string format_failure(const char* cond, const char* file, int line,
                           const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  return os.str();
}

}  // namespace

void check_failed(const char* cond, const char* file, int line,
                  const std::string& msg) {
  const std::string what = format_failure(cond, file, line, msg);
  std::fprintf(stderr, "%s\n", what.c_str());
  std::fflush(stderr);
  throw CheckError(what);
}

void check_failed_noexcept(const char* cond, const char* file, int line,
                           const std::string& msg) noexcept {
  try {
    const std::string what = format_failure(cond, file, line, msg);
    std::fprintf(stderr, "%s (suppressed: stack unwinding in progress)\n",
                 what.c_str());
    std::fflush(stderr);
  } catch (...) {
    // Formatting must never throw out of a noexcept reporting path.
  }
}

CheckMessage::CheckMessage(const char* cond, const char* file, int line)
    : cond_(cond),
      file_(file),
      line_(line),
      stream_(std::make_unique<std::ostringstream>()) {}

CheckMessage::~CheckMessage() noexcept(false) {
  if (std::uncaught_exceptions() > 0) {
    check_failed_noexcept(cond_, file_, line_, stream_->str());
  } else {
    check_failed(cond_, file_, line_, stream_->str());
  }
}

}  // namespace stgsim::detail
