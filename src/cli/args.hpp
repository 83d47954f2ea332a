// Flag parser for the stgsim CLI.
//
// Flags take either "--key value" or "--key=value" form; a "--key" followed
// by another flag (or nothing) is a boolean. Tokens that do not start with
// "--" are collected as positionals (the campaign subcommand's scenario
// path). Every subcommand calls check_all_consumed() after reading its
// flags so a typo is a structured error, never a silently ignored option.
//
// Legacy spellings finished their deprecation cycle: reject_legacy()
// turns the old flag into a structured "usage.removed_flag" error naming
// its replacement, so a stale script fails loudly with a machine-readable
// envelope (under --json-errors) instead of silently drifting.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace stgsim::cli {

class Args {
 public:
  /// Parses argv[first..argc). Throws std::runtime_error on malformed
  /// tokens (e.g. "-flag" single-dash).
  Args(int argc, char** argv, int first);

  /// Rejects removed flag `legacy`: if the user passed --<legacy>, throws
  /// errors::StructuredError("usage.removed_flag") whose detail names the
  /// `canonical` replacement (none when `canonical` is empty).
  void reject_legacy(const std::string& legacy,
                     const std::string& canonical) const;

  bool has(const std::string& key) const { return values_.contains(key); }

  std::string str(const std::string& key, const std::string& dflt);
  long long num(const std::string& key, long long dflt);
  double real(const std::string& key, double dflt);
  bool flag(const std::string& key);

  const std::vector<std::string>& positionals() const { return positionals_; }
  /// Positional argument `i`; throws naming `what` when absent.
  const std::string& positional(std::size_t i, const std::string& what) const;
  /// Throws if any positional was given (for subcommands that take none).
  void no_positionals() const;

  /// Throws "unknown flag --x" for any flag no accessor ever read.
  void check_all_consumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> seen_;
  std::vector<std::string> positionals_;
};

}  // namespace stgsim::cli
