#include "cli/args.hpp"

#include <stdexcept>

#include "support/errors.hpp"
#include "support/json.hpp"
#include "support/numparse.hpp"

namespace stgsim::cli {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      if (key.rfind('-', 0) == 0) {
        throw std::runtime_error("expected --flag, got '" + key + "'");
      }
      positionals_.push_back(key);
      continue;
    }
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      values_[key.substr(0, eq)] = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "";  // boolean flag
    }
    seen_[key] = false;
  }
}

void Args::reject_legacy(const std::string& legacy,
                         const std::string& canonical) const {
  if (!values_.contains(legacy)) return;
  json::Value detail = json::Value::object();
  detail.set("removed", "--" + legacy);
  std::string message = "--" + legacy + " was removed";
  if (!canonical.empty()) {
    detail.set("replacement", "--" + canonical);
    message += "; use --" + canonical;
  }
  throw errors::StructuredError("usage.removed_flag", errors::kCategoryUsage,
                                message, std::move(detail));
}

std::string Args::str(const std::string& key, const std::string& dflt) {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  seen_[key] = true;
  return it->second;
}

long long Args::num(const std::string& key, long long dflt) {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  seen_[key] = true;
  long long v = 0;
  const auto st = support::parse_i64(it->second, &v);
  if (st != support::ParseNumStatus::kOk) {
    throw std::runtime_error(
        "flag --" + key + ": " +
        support::parse_num_problem(st, "expected an integer") + ", got '" +
        it->second + "'");
  }
  return v;
}

double Args::real(const std::string& key, double dflt) {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  seen_[key] = true;
  double v = 0.0;
  const auto st = support::parse_f64(it->second, &v);
  if (st != support::ParseNumStatus::kOk) {
    throw std::runtime_error(
        "flag --" + key + ": " +
        support::parse_num_problem(st, "expected a number") + ", got '" +
        it->second + "'");
  }
  return v;
}

bool Args::flag(const std::string& key) {
  auto it = values_.find(key);
  if (it == values_.end()) return false;
  seen_[key] = true;
  // A bare "--key" means true; an explicit value must be a recognized
  // boolean. Anything else used to silently read as true ("--digest=no"
  // enabled digests) — now it is a structured error.
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::runtime_error("flag --" + key + ": expected a boolean, got '" +
                           v + "'");
}

const std::string& Args::positional(std::size_t i,
                                    const std::string& what) const {
  if (i >= positionals_.size()) {
    throw std::runtime_error("missing " + what);
  }
  return positionals_[i];
}

void Args::no_positionals() const {
  if (!positionals_.empty()) {
    throw std::runtime_error("unexpected argument '" + positionals_.front() +
                             "'");
  }
}

void Args::check_all_consumed() const {
  for (const auto& [key, used] : seen_) {
    if (!used) throw std::runtime_error("unknown flag --" + key);
  }
}

}  // namespace stgsim::cli
