// Shared declarations of the stgbench binary: command-line options, the
// metric tables (which must match BENCHMARK.json), and the report every
// workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "trace.hpp"

namespace stgbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string stgsim;   ///< path of the `stgsim` CLI (serve-mix child)
  std::string out_dir;  ///< reports, Chrome traces and daemon caches
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed when --trace 0. Every workload reports every one.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed when --trace 1. Metrics of a layer a workload does not run
/// read 0 (or 1 for ratios of useful to attempted work).
const std::vector<MetricDef>& per_layer_metrics();

/// What one invocation measured and checked.
struct Report {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-gate violations; any entry fails the command.
  std::vector<std::string> problems;
  /// Free-form details for the report file (spreads, pinned values, ...).
  stgsim::json::Value details = stgsim::json::Value::object();
  /// Workers / jobs / clients the workload actually used.
  stgsim::json::Value concurrency = stgsim::json::Value::object();

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

Report run_sweep3d(const Options& opts, Tracer& tracer);
Report run_serve_mix(const Options& opts, Tracer& tracer);

/// The seeded serve-mix request sequence of one pass, one canonical JSON
/// request body per line (the determinism test compares these).
std::vector<std::string> serve_mix_requests(std::uint64_t seed, int pass);

// Order statistics over a copy of `xs` (0 when empty).
double median(std::vector<double> xs);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> xs, double p);

double peak_rss_mb_self();

}  // namespace stgbench
