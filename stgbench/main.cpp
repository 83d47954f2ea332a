// stgbench: the end-to-end benchmark binary (run it through run.py, which
// builds it first).
//
//   stgbench --workload W --seed N --seconds S --trace 0|1
//            --stgsim PATH --out-dir DIR [--host-json JSON]
//   stgbench --print-mix --seed N [--pass P]
//
// Workloads: sweep3d-am, sweep3d-am-tw4, sweep3d-de, serve-mix. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Before it come a host line and a details line; the same data
// goes to DIR/report-<workload>-seed<N>-trace<T>.json, and a traced run
// also writes its spans to DIR/trace-<workload>-seed<N>.json (Chrome trace
// format). A failed correctness gate prints the result with
// "correct": false and exits 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "harness/config_json.hpp"
#include "support/numparse.hpp"

namespace stgbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"events_per_s", "1/s"},   {"peak_rss_mb", "MB"},
      {"req_p50_ms", "ms"},      {"req_p99_ms", "ms"},
      {"req_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"apps.build_s", "s"},
      {"core.stg_s", "s"},
      {"core.slice_s", "s"},
      {"core.codegen_s", "s"},
      {"core.compile_s", "s"},
      {"harness.calibrate_s", "s"},
      {"harness.run_s", "s"},
      {"harness.digest_s", "s"},
      {"harness.other_s", "s"},
      {"harness.peak_target_mb", "MB"},
      {"sim.messages", "count"},
      {"sim.slices", "count"},
      {"sim.msgs_per_slice", "ratio"},
      {"sim.ns_per_event", "ns"},
      {"sim.match_probes_per_hit", "ratio"},
      {"sim.wakeups", "count"},
      {"sim.blocks", "count"},
      {"sim.msg_arena_capacity", "count"},
      {"sim.payload_retained_bytes", "bytes"},
      {"sim.rounds", "count"},
      {"sim.intra_messages", "count"},
      {"sim.mailbox_messages", "count"},
      {"sim.barrier_messages", "count"},
      {"sim.cross_messages", "count"},
      {"sim.rollbacks", "count"},
      {"sim.anti_messages", "count"},
      {"sim.gvt_passes", "count"},
      {"sim.checkpoints_taken", "count"},
      {"sim.replayed_events", "count"},
      {"sim.fossil_finalized", "count"},
      {"sim.log_bytes_peak", "bytes"},
      {"sim.useful_event_ratio", "ratio"},
      {"smpi.eager_msgs", "count"},
      {"smpi.rendezvous_msgs", "count"},
      {"smpi.eager_bytes", "bytes"},
      {"smpi.rendezvous_bytes", "bytes"},
      {"campaign.resolve_ms", "ms"},
      {"campaign.execute_ms", "ms"},
      {"campaign.cache_load_ms", "ms"},
      {"campaign.cache_store_ms", "ms"},
      {"campaign.executed", "count"},
      {"campaign.cache_hits", "count"},
      {"campaign.dedup_joined", "count"},
      {"campaign.calibrations_run", "count"},
      {"campaign.calibrations_cached", "count"},
      {"campaign.hit_rate", "ratio"},
      {"campaign.queue_depth_max", "count"},
      {"serve.status_rtt_ms", "ms"},
      {"serve.hit_ms_p50", "ms"},
      {"serve.join_ms_p50", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"json.outcome_dump_ms", "ms"},
      {"json.outcome_parse_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return defs;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p == 50 && xs.size() % 2 == 0) {
    return (xs[xs.size() / 2 - 1] + xs[xs.size() / 2]) / 2;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t at = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(at, xs.size() - 1)];
}

double peak_rss_mb_self() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

using stgsim::json::Value;

const char* const kWorkloads[] = {"sweep3d-am", "sweep3d-am-tw4", "sweep3d-de",
                                  "serve-mix"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "stgbench: " << why
            << "\nusage: stgbench --workload W --seed N --seconds S "
               "--trace 0|1 --stgsim PATH --out-dir DIR [--host-json JSON]"
               "\n       stgbench --print-mix --seed N [--pass P]\n";
  std::exit(2);
}

std::uint64_t parse_count(const char* flag, const char* text) {
  long long v = 0;
  if (stgsim::support::parse_i64(text, &v) != stgsim::support::ParseNumStatus::kOk ||
      v < 0) {
    usage(std::string(flag) + ": expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

Value host_block(const Options& opts, const Report& rep,
                 const std::string& host_json) {
  Value host = host_json.empty() ? Value::object() : Value::parse(host_json);
  host.set("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  host.set("compiler", STGBENCH_COMPILER);
  host.set("build_type", STGBENCH_BUILD_TYPE);
  host.set("simulator_version", stgsim::harness::kSimulatorVersion);
  host.set("workload", opts.workload);
  host.set("seed", static_cast<std::int64_t>(opts.seed));
  host.set("seconds", opts.seconds);
  host.set("trace", opts.trace);
  host.set("concurrency", rep.concurrency);
  return host;
}

}  // namespace

}  // namespace stgbench

int main(int argc, char** argv) {
  using namespace stgbench;
  Options opts;
  std::string host_json;
  bool print_mix = false;
  int mix_pass = 0;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      opts.workload = value();
    } else if (flag == "--seed") {
      opts.seed = parse_count("--seed", value());
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_count("--seconds", value()));
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opts.trace = t == "1";
      have_trace = true;
    } else if (flag == "--stgsim") {
      opts.stgsim = value();
    } else if (flag == "--out-dir") {
      opts.out_dir = value();
    } else if (flag == "--host-json") {
      host_json = value();
    } else if (flag == "--print-mix") {
      print_mix = true;
    } else if (flag == "--pass") {
      mix_pass = static_cast<int>(parse_count("--pass", value()));
    } else {
      usage("unknown flag " + flag);
    }
  }

  if (print_mix) {
    for (const std::string& line : serve_mix_requests(opts.seed, mix_pass)) {
      std::cout << line << '\n';
    }
    return 0;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opts.workload) ==
      std::end(kWorkloads)) {
    usage("unknown workload '" + opts.workload + "'");
  }
  if (!have_trace || opts.out_dir.empty() ||
      (opts.workload == "serve-mix" && opts.stgsim.empty())) {
    usage("missing --trace, --out-dir or --stgsim");
  }

  namespace fs = std::filesystem;
  fs::create_directories(opts.out_dir);
  const std::string tag = opts.workload + "-seed" + std::to_string(opts.seed);
  Tracer tracer(opts.trace);
  Report rep;
  try {
    rep = opts.workload == "serve-mix" ? run_serve_mix(opts, tracer)
                                       : run_sweep3d(opts, tracer);
  } catch (const std::exception& e) {
    std::cerr << "stgbench: " << opts.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }

  // Exactly the declared metric set: layers a workload does not run read 0.
  Value metrics = Value::object();
  for (const MetricDef& d :
       opts.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = rep.metrics.find(d.name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second;
    if (!opts.trace) {
      rep.check(it != rep.metrics.end() && std::isfinite(v) && v > 0,
                std::string("end-to-end metric ") + d.name + " not measured");
    }
    Value m = Value::object();
    m.set("value", std::isfinite(v) ? v : 0.0);
    m.set("unit", d.unit);
    metrics.set(d.name, std::move(m));
  }

  Value problems = Value::array();
  for (const std::string& p : rep.problems) {
    std::cerr << "stgbench: CHECK FAILED: " << p << '\n';
    problems.push_back(p);
  }
  const Value host = host_block(opts, rep, host_json);
  Value report = Value::object();
  report.set("host", host);
  report.set("details", rep.details);
  report.set("problems", problems);
  report.set("metrics", metrics);
  {
    std::ofstream os(fs::path(opts.out_dir) /
                     ("report-" + tag + "-trace" + (opts.trace ? "1" : "0") +
                      ".json"));
    os << report.dump(2) << '\n';
  }
  if (opts.trace) {
    tracer.write_chrome_trace(
        (fs::path(opts.out_dir) / ("trace-" + tag + ".json")).string());
  }

  std::cout << "host: " << host.dump() << '\n';
  std::cout << "details: " << rep.details.dump() << '\n';
  Value result = Value::object();
  result.set("correct", rep.problems.empty());
  result.set("attempted", rep.attempted);
  result.set("failed", rep.failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return rep.problems.empty() ? 0 : 1;
}
