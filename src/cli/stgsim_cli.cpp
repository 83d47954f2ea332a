// stgsim — command-line front end.
//
//   stgsim list-apps
//   stgsim compile  --app <name> [--<option> v ...] [--procs P]
//                   [--dump-stg f.dot] [--dump-dtg f.dot]
//                   [--print-simplified] [--print-timer]
//   stgsim run      [--config spec.json] [--app <name>] [--<option> v ...]
//                   [<RunConfig flags>] [--calibrate N]
//                   [--load-params f] [--save-params f]
//                   [--digest] [--print-config]
//                   [--trace-out f.json] [--metrics-out f.json]
//                   [--comm-matrix-out f.json] [--links-out f.json]
//   stgsim calibrate --app <name> [--<option> v ...] --procs P
//                   [--machine M] [--seed S] [--save-params f] [--json]
//   stgsim campaign <scenario.json> [--jobs N] [--cache-dir D] [--out-dir D]
//                   [--retry-failed] [--no-metrics] [--print-report]
//   stgsim check    --app <name> [--<option> v ...] [<RunConfig flags>]
//                   [--max-schedules N] [--max-depth N]
//                   [--trials N] [--drain-seed S] [--no-dpor] [--keep-going]
//                   [--inject unsafe-wildcard|commit-before-gvt]
//                   [--counterexample-out f.json]
//   stgsim check    --replay f.json [--trace-out f] [--metrics-out f]
//                   [--comm-matrix-out f] [--divergence-out f]
//   stgsim serve    [--host H] [--port P] [--port-file f] [--cache-dir D]
//                   [--jobs N] [--max-requests N] [--max-per-client N]
//                   [--max-run-sec T] [--no-metrics]
//   stgsim submit   (--config spec.json | --scenario sc.json)
//                   (--port P | --port-file f) [--host H] [--client NAME]
//                   [--stream] [--retry-failed] [--out-dir D]
//   stgsim status   (--port P | --port-file f) [--host H]
//                   [--metrics] [--metrics-out f]
//   stgsim shutdown (--port P | --port-file f) [--host H]
//   stgsim schema   [--id ID]
//
// Flags take either "--key value" or "--key=value" form. Boolean flags
// accept --key, --key=true/1/yes/on and --key=false/0/no/off; any other
// value is an error (it used to silently read as true).
//
// <RunConfig flags> set the RunSpec fields, one flag per field (--procs P,
// --mode measured|de|am, --machine M, --workers N, --schedule
// conservative|optimistic, --fault SPEC, ...). The one list of them, with
// each flag's JSON key, value type and meaning, is the field table
// harness::run_config_fields() in src/harness/config_json.cpp. Unset fields
// keep RunConfig's defaults, except --procs (16). `check` accepts --procs
// up to 8, --mode de|am, and --workers 0 or >= 2.
//
// `run` executes one simulation. Its configuration is the RunSpec JSON
// schema (harness/config_json.hpp): start from --config if given, then
// apply flag overrides — flags always win. --print-config dumps the
// resulting canonical spec as JSON and exits; feeding that back through
// --config reproduces the run exactly. --machine accepts a registry name
// or a spec string with field overrides ("ibm_sp[latency_us=30]"); unknown
// machines, override keys, apps, and app options are structured errors.
//
// `calibrate` runs only the Figure-2 measurement pass and prints the w_i
// table (or JSON with --json); --save-params writes the file `run
// --load-params` and scenario files consume.
//
// `campaign` expands a declarative scenario file (campaign/scenario.hpp)
// into a DAG of calibrations and runs, executes it on --jobs worker
// threads through a content-addressed result cache, and writes
// report.json / report.csv / campaign.json into --out-dir. Re-invoking a
// completed campaign performs zero simulation work and rewrites the
// reports byte-identically.
//
// --digest prints a 64-bit run digest (per-rank final virtual clocks,
// message counts, delivered bytes) — two runs predicting bit-identical
// results print the same digest, regardless of scheduler or host timing.
// The same digest appears as "run_digest" in campaign reports.
//
// The observability flags never change simulated results (digests are
// bit-identical with and without them):
//   --trace-out f        virtual-time timeline per rank as Chrome
//                        trace-event JSON (load in Perfetto/about:tracing)
//   --metrics-out f      engine/protocol counters + message-size histogram
//                        as JSON; also prints a metrics summary table
//   --comm-matrix-out f  rank×rank message/byte matrix as JSON
//   --links-out f        per-link utilization + hop-count histogram of the
//                        routed platform as JSON
//
// --fault injects a deterministic fault plan (see src/fault/fault.hpp for
// the clause syntax); the --max-* flags bound pathological runs, which then
// exit with a structured outcome instead of hanging.
//
// `check` is the exhaustive-interleaving protocol gate (src/mc,
// DESIGN.md §13): it explores every message-delivery/match ordering of a
// small run (DFS with sleep-set DPOR reduction; --no-dpor disables the
// reduction) and asserts that all schedules commit the sequential
// scheduler's digest and that deadlocks, if any, are deterministic. A
// threaded cross-check then perturbs mailbox drain order under --workers
// N (default 2; 0 skips) for --trials seeded permutations. Divergences
// serialize to --counterexample-out; `check --replay file` re-runs that
// one schedule deterministically, with the observability flags available
// and --divergence-out writing a canonical-vs-observed field dump.
// --inject unsafe-wildcard plants the pre-PR-3 wildcard commit race
// behind a test-only flag, for exercising the gate itself.
//
// --schedule optimistic switches the engine to the Time Warp scheduler
// (DESIGN.md §15): speculative execution with rollback, anti-messages and
// GVT-driven fossil collection. Digests are bit-identical to the
// conservative schedulers; `check --schedule optimistic` explores the
// rollback/commit protocol against the conservative sequential digest, and
// --inject commit-before-gvt plants a commit-finalized-before-GVT race on
// the optimistic path for the gate to rediscover. Four knobs tune the
// optimistic engine without changing any simulated result: --gvt-interval,
// --checkpoint-interval (N or "none"), --checkpoint-adaptive and
// --speculation-window, documented on their RunConfig fields
// (harness/runner.hpp).
//
// `serve` runs the long-lived campaign daemon (DESIGN.md §16): a local
// HTTP API (loopback by default, ephemeral port published via
// --port-file) accepting run and campaign requests on the versioned
// "stgsim-serve-1" wire protocol, deduping identical in-flight work
// through the shared content-addressed cache, and streaming NDJSON
// progress frames. `submit` and `status` are its clients; `schema` prints
// the published JSON Schemas of every wire surface (RunSpec, RunOutcome,
// error envelope, serve request/frame).
//
// The PR 5 deprecation cycle is finished: "stgsim --app ..." (no
// subcommand), --threads, and --calib now fail with a structured
// "usage.removed_flag" / "usage.legacy_invocation" error naming the
// replacement instead of silently aliasing. The global --json-errors flag
// (any subcommand) prints failures as the versioned structured-error
// envelope (support/errors.hpp) on stdout — byte-identical to the serve
// daemon's error responses.
//
// Exit codes: 0 ok, 2 out_of_memory, 3 deadlock, 4 budget_exceeded,
// 5 internal_error, 6 protocol divergence (`check`)
// (1 = usage/configuration errors). Structured-error categories map onto
// the same codes (errors::category_exit_code).
//
// Examples:
//   stgsim run --app tomcatv --n 1024 --procs 64 --mode am
//   stgsim run --app sweep3d --kt 1000 --procs 10000 --mode am --calibrate 16
//   stgsim run --app sweep3d --procs 4 --mode de \
//       --fault "link:src=0,dst=1,latency=4,bandwidth=0.25;straggler:rank=2,factor=2"
//   stgsim run --app tomcatv --procs 16 --mode de \
//       --machine "ibm_sp[latency_us=30,bw=120e6]"
//   stgsim run --app sweep3d --procs 64 --mode de --links-out links.json \
//       --machine "ibm_sp[topo=fattree,radix=16,algo.bcast=binomial]"
//   stgsim campaign examples/scenario_sweep3d.json --jobs 4 --out-dir out
//   stgsim compile --app nas_sp --class A --procs 16 --dump-stg sp.dot
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "campaign/exec.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "cli/args.hpp"
#include "core/calibration.hpp"
#include "core/compiler.hpp"
#include "core/dtg.hpp"
#include "harness/config_json.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "mc/checker.hpp"
#include "mc/oracles.hpp"
#include "mc/schedule.hpp"
#include "obs/obs.hpp"
#include "serve/daemon.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/errors.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace stgsim::cli {
namespace {

/// Set by the global --json-errors flag: failures print the structured
/// envelope on stdout instead of "error: ..." prose on stderr.
bool g_json_errors = false;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Writes the output file `path` through `writer`, then notes it on stderr.
/// An empty path (the output was not requested) writes nothing.
template <typename Writer>
void write_output(const std::string& path, const Writer& writer) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  writer(os);
  std::cerr << "wrote " << path << '\n';
}

/// Collects --<option> flags for `app` from the registry's accepted list
/// into a spec document's "options" object. Only registered option names
/// are consumed, so an unrecognized flag still fails check_all_consumed().
void apply_app_option_flags(json::Value* doc, const std::string& app,
                            Args& args) {
  const apps::AppInfo* info = apps::find_app(app);
  if (info == nullptr) return;  // run_spec_from_json reports the bad app
  json::Value opts =
      doc->has("options") ? doc->at("options") : json::Value::object();
  for (const auto& [name, dflt] : info->options) {
    (void)dflt;
    if (args.has(name)) opts.set(name, json::Value(args.str(name, "")));
  }
  doc->set("options", opts);
}

/// The JSON value of field `f`'s flag (which must be present).
json::Value flag_value(Args& args, const harness::RunConfigField& f) {
  using Flag = harness::RunConfigField::Flag;
  const std::string flag = f.flag;
  json::Value v;
  switch (f.flag_kind) {
    case Flag::kBoolean: return json::Value(args.flag(flag));
    case Flag::kString: return json::Value(args.str(flag, ""));
    case Flag::kSeconds: return json::Value(args.real(flag, 0.0) * 1e9);
    case Flag::kNumber: v = json::Value(args.real(flag, 0.0)); break;
    case Flag::kCountOrNone:
      if (args.str(flag, "") == "none") return json::Value(0);
      [[fallthrough]];
    case Flag::kInteger:
      v = json::Value(static_cast<std::int64_t>(args.num(flag, 0)));
      break;
  }
  if (f.flag_positive != nullptr && v.as_number() <= 0) {
    std::string message = "flag --" + flag + ": " + f.flag_positive;
    if (f.flag_kind != Flag::kNumber) {
      message += ", got '" + std::to_string(v.as_int()) + "'";
    }
    throw std::runtime_error(message);
  }
  return v;
}

/// Builds the RunSpec document for `run`/`check`/`compile`: the --config
/// file (if any) with flag overrides applied on top. The RunConfig flags
/// are the rows of harness::run_config_fields().
json::Value spec_doc_from_args(Args& args) {
  args.reject_legacy("threads", "workers");
  args.reject_legacy("calib", "calibrate");

  json::Value doc = json::Value::object();
  const std::string config_path = args.str("config", "");
  if (!config_path.empty()) {
    doc = json::Value::parse(read_file(config_path));
    (void)doc.as_object();
  }

  if (args.has("app")) doc.set("app", json::Value(args.str("app", "")));
  for (const harness::RunConfigField& f : harness::run_config_fields()) {
    if (f.flag != nullptr && args.has(f.flag)) {
      doc.set(f.key, flag_value(args, f));
    }
  }
  // Unset fields take RunConfig's defaults, except the historical CLI
  // default of 16 processes.
  harness::RunConfig defaults;
  defaults.nprocs = 16;
  const json::Value default_doc = harness::run_config_to_json(defaults);
  for (const auto& [key, value] : default_doc.as_object()) {
    if (!doc.has(key)) doc.set(key, value);
  }
  if (args.has("calibrate")) {
    doc.set("calibrate",
            json::Value(static_cast<std::int64_t>(args.num("calibrate", 0))));
  }

  const std::string app =
      doc.has("app") ? doc.at("app").as_string() : args.str("app", "");
  apply_app_option_flags(&doc, app, args);
  return doc;
}

int cmd_list_apps(Args& args) {
  args.no_positionals();
  args.check_all_consumed();
  for (const auto& info : apps::registered_apps()) {
    std::cout << info.name << " - " << info.summary << '\n';
    std::cout << "    options:";
    for (const auto& [name, dflt] : info.options) {
      std::cout << " --" << name << " (" << dflt << ")";
    }
    std::cout << '\n';
  }
  std::cout << "machines:";
  for (const auto& name : harness::machine_names()) std::cout << ' ' << name;
  std::cout << '\n';
  return 0;
}

int cmd_compile(Args& args) {
  args.no_positionals();
  json::Value doc = spec_doc_from_args(args);
  if (!doc.has("app")) throw std::runtime_error("compile needs --app");
  const harness::RunSpec spec = harness::run_spec_from_json(doc);
  const int procs = spec.config.nprocs;
  ir::Program prog = apps::build_app(harness::app_spec_of(spec), procs);
  core::CompileResult compiled = core::compile(prog);

  std::cout << compiled.report(prog);

  const std::string dot_path = args.str("dump-stg", "");
  if (!dot_path.empty()) {
    std::ofstream os(dot_path);
    os << compiled.stg.to_dot();
    std::cout << "wrote " << dot_path << '\n';
  }
  if (args.flag("print-simplified")) {
    std::cout << "\n--- simplified program ---\n"
              << compiled.simplified.program.to_string();
  }
  if (args.flag("print-timer")) {
    std::cout << "\n--- timer-instrumented program ---\n"
              << compiled.timer_program.to_string();
  }

  const std::string dtg_path = args.str("dump-dtg", "");
  if (!dtg_path.empty()) {
    // Unfold the dynamic task graph from one direct-execution run.
    core::DtgRecorder recorder;
    core::DtgObserver observer(&recorder);
    smpi::World::Options wopts;
    wopts.net = harness::ibm_sp_machine().net;
    wopts.compute = harness::ibm_sp_machine().compute;
    smpi::World world(wopts, procs);
    simk::EngineConfig ec;
    ec.num_processes = procs;
    simk::Engine engine(ec);
    ir::ExecOptions xopts;
    xopts.observer = &observer;
    engine.set_body([&](simk::Process& p) {
      smpi::Comm comm(world, p);
      ir::execute(prog, comm, xopts);
    });
    engine.run();
    core::Dtg dtg = recorder.build();
    const std::string consistency = dtg.check_consistency();
    std::cout << dtg.summary() << "consistency: "
              << (consistency.empty() ? "OK" : consistency) << '\n';
    std::ofstream os(dtg_path);
    os << dtg.to_dot();
    std::cout << "wrote " << dtg_path << '\n';
  }
  args.check_all_consumed();
  return 0;
}

/// The observability output files a run was asked for. Writing them never
/// changes simulated results.
struct ObsOutputs {
  std::string trace, metrics, matrix, links;

  /// Reads --trace-out, --metrics-out, --comm-matrix-out and, when
  /// `with_links`, --links-out.
  static ObsOutputs from_args(Args& args, bool with_links) {
    return {args.str("trace-out", ""), args.str("metrics-out", ""),
            args.str("comm-matrix-out", ""),
            with_links ? args.str("links-out", "") : std::string()};
  }

  /// A recorder attached to `cfg` when any output was requested.
  std::unique_ptr<obs::Recorder> attach(harness::RunConfig* cfg) const {
    if (trace.empty() && metrics.empty() && matrix.empty() && links.empty()) {
      return nullptr;
    }
    obs::Options oopts;
    oopts.trace = !trace.empty();
    oopts.comm_matrix = !matrix.empty();
    auto recorder = std::make_unique<obs::Recorder>(oopts, cfg->nprocs);
    cfg->obs = recorder.get();
    return recorder;
  }

  void write(const obs::Recorder& recorder,
             const obs::MetricsSnapshot& snapshot) const {
    write_output(trace, [&](std::ostream& os) {
      recorder.write_chrome_trace(os);
    });
    write_output(metrics, [&](std::ostream& os) {
      obs::Recorder::write_metrics_json(os, snapshot);
    });
    write_output(matrix, [&](std::ostream& os) {
      obs::Recorder::write_comm_matrix_json(os, snapshot);
    });
    write_output(links, [&](std::ostream& os) {
      obs::Recorder::write_link_stats_json(os, snapshot);
    });
  }
};

int cmd_run(Args& args) {
  args.no_positionals();
  const bool partition_given = args.has("partition");
  json::Value doc = spec_doc_from_args(args);
  if (!doc.has("app")) throw std::runtime_error("run needs --app");
  harness::RunSpec spec = harness::run_spec_from_json(doc);
  if (partition_given && spec.config.threads < 2) {
    // Used to be silently ignored: partitioning only exists under the
    // threaded scheduler, so accepting it on a sequential run hides the
    // typo'd/missing --workers the user meant to pass.
    throw std::runtime_error(
        "--partition requires --workers >= 2 (sequential runs have no "
        "rank partitions)");
  }

  if (args.flag("print-config")) {
    args.check_all_consumed();
    std::cout << harness::run_spec_to_json(spec).dump(2) << '\n';
    return 0;
  }

  // Resolve w_i parameters for analytical runs: an explicit file beats
  // inline/config params beats calibration (defaulting to 16 processes,
  // the historical CLI behavior).
  harness::RunSpec resolved = spec;
  if (spec.config.mode == harness::Mode::kAnalytical) {
    const std::string load = args.str("load-params", "");
    if (!load.empty()) {
      spec.config.params = core::load_params(load);
      spec.calibrate_procs = 0;
    }
    std::map<std::string, double> calib;
    const std::map<std::string, double>* calib_ptr = nullptr;
    if (spec.config.params.empty()) {
      if (spec.calibrate_procs <= 0) spec.calibrate_procs = 16;
      std::cerr << "calibrating w_i at " << spec.calibrate_procs
                << " processes...\n";
      calib = campaign::run_calibration(spec);
      calib_ptr = &calib;
    }
    resolved = campaign::resolve_spec(spec, calib_ptr);
    const std::string save = args.str("save-params", "");
    if (!save.empty()) {
      core::save_params(save, resolved.config.params);
      std::cerr << "wrote " << save << '\n';
    }
  }

  harness::RunConfig cfg = resolved.config;
  const bool want_digest = args.flag("digest");
  const ObsOutputs outputs = ObsOutputs::from_args(args, /*with_links=*/true);
  const std::unique_ptr<obs::Recorder> recorder = outputs.attach(&cfg);
  args.check_all_consumed();

  // Same execution pipeline as campaign::execute_spec, but configuration
  // errors (bad app shape for this process count) exit 1 as usage errors
  // instead of becoming a structured outcome.
  const harness::RunOutcome out =
      harness::run_program(campaign::program_for_spec(resolved), cfg);

  if (!out.ok()) {
    if (g_json_errors) {
      // Failed outcomes share the error envelope too: the category IS the
      // RunStatus taxonomy, so the exit code follows from it.
      std::cout << errors::error_envelope("run.failed",
                                          harness::run_status_name(out.status),
                                          out.diagnostic)
                       .dump(2)
                << '\n';
    } else {
      std::cout << "RUN FAILED [" << harness::run_status_name(out.status)
                << "]: " << out.diagnostic << '\n';
    }
    // Run statuses are error categories, so they share the exit codes.
    return errors::category_exit_code(harness::run_status_name(out.status));
  }
  TablePrinter t({"quantity", "value"});
  t.add_row({"app", resolved.app});
  t.add_row({"mode", harness::mode_key(cfg.mode)});
  t.add_row({"machine", harness::machine_spec_string(cfg.machine)});
  t.add_row({"outcome", harness::run_status_name(out.status)});
  t.add_row({"target processes", TablePrinter::fmt_int(cfg.nprocs)});
  t.add_row({"predicted time", vtime_to_string(out.predicted_time)});
  t.add_row({"target data (peak)", TablePrinter::fmt_bytes(out.peak_target_bytes)});
  t.add_row({"messages simulated",
             TablePrinter::fmt_int(static_cast<long long>(out.messages))});
  if (cfg.schedule == harness::Schedule::kOptimistic) {
    t.add_row({"rollbacks",
               TablePrinter::fmt_int(
                   static_cast<long long>(out.parallel.rollbacks))});
    t.add_row({"checkpoints taken",
               TablePrinter::fmt_int(
                   static_cast<long long>(out.parallel.checkpoints_taken))});
    t.add_row({"events replayed",
               TablePrinter::fmt_int(
                   static_cast<long long>(out.parallel.replayed_events))});
    t.add_row({"consumption log (peak)",
               TablePrinter::fmt_bytes(out.parallel.log_bytes_peak)});
  }
  t.add_row({"simulator wall-clock",
             TablePrinter::fmt(out.sim_host_seconds, 3) + " s"});
  std::cout << t.to_ascii();

  if (recorder != nullptr) {
    outputs.write(*recorder, out.metrics);
    TablePrinter mt({"metric", "value"});
    for (const auto& [name, value] : out.metrics.scalars) {
      const auto ll = static_cast<long long>(value);
      mt.add_row({name, static_cast<double>(ll) == value
                            ? TablePrinter::fmt_int(ll)
                            : TablePrinter::fmt(value, 6)});
    }
    std::cout << mt.to_ascii();
  }

  if (want_digest) {
    std::cout << "digest: " << harness::run_digest_hex(out) << '\n';
    std::cout << "cache key: " << harness::run_spec_digest_hex(resolved)
              << '\n';
  }
  return 0;
}

int cmd_calibrate(Args& args) {
  args.no_positionals();
  args.reject_legacy("calib", "calibrate");
  json::Value doc = json::Value::object();
  if (!args.has("app")) throw std::runtime_error("calibrate needs --app");
  doc.set("app", json::Value(args.str("app", "")));
  doc.set("mode", json::Value("am"));
  if (args.has("machine")) {
    doc.set("machine", json::Value(args.str("machine", "")));
  }
  if (args.has("seed")) {
    doc.set("seed", json::Value(static_cast<std::int64_t>(args.num("seed", 0))));
  }
  doc.set("calibrate", json::Value(static_cast<std::int64_t>(
                           args.num("procs", args.num("calibrate", 16)))));
  apply_app_option_flags(&doc, doc.at("app").as_string(), args);
  harness::RunSpec spec = harness::run_spec_from_json(doc);

  const bool as_json = args.flag("json");
  const std::string save = args.str("save-params", "");
  args.check_all_consumed();

  std::cerr << "calibrating w_i at " << spec.calibrate_procs
            << " processes...\n";
  const std::map<std::string, double> params = campaign::run_calibration(spec);
  if (!save.empty()) {
    core::save_params(save, params);
    std::cerr << "wrote " << save << '\n';
  }
  if (as_json) {
    std::cout << harness::params_to_json(params).dump(2) << '\n';
  } else {
    TablePrinter t({"parameter", "sec/iteration"});
    for (const auto& [name, value] : params) {
      t.add_row({name, TablePrinter::fmt(value, 9)});
    }
    std::cout << t.to_ascii();
  }
  return 0;
}

int cmd_campaign(Args& args) {
  std::string path = args.str("scenario", "");
  if (path.empty() && !args.positionals().empty()) {
    path = args.positional(0, "scenario file");
  }
  if (path.empty()) {
    throw std::runtime_error("campaign needs a scenario file argument");
  }

  campaign::CampaignOptions opts;
  opts.jobs = static_cast<int>(args.num("jobs", 1));
  if (opts.jobs < 1) throw std::runtime_error("--jobs must be >= 1");
  opts.cache_dir = args.str("cache-dir", ".stgsim-cache");
  opts.out_dir = args.str("out-dir", "campaign-out");
  opts.retry_failed = args.flag("retry-failed");
  opts.with_metrics = !args.flag("no-metrics");
  const bool print_report = args.flag("print-report");
  args.check_all_consumed();

  campaign::Scenario scenario =
      campaign::parse_scenario_text(read_file(path));
  std::cerr << "campaign '" << scenario.name << "': " << scenario.runs.size()
            << " runs, " << scenario.calibrations.size()
            << " calibrations, jobs=" << opts.jobs << '\n';

  campaign::CampaignResult result = campaign::run_campaign(scenario, opts);
  campaign::write_reports(result, opts);

  std::map<std::string, int> status_counts;
  for (const auto& r : result.runs) {
    ++status_counts[harness::run_status_name(r.outcome.status)];
  }
  TablePrinter t({"quantity", "value"});
  t.add_row({"campaign", result.name});
  t.add_row({"runs", TablePrinter::fmt_int(
                         static_cast<long long>(result.runs.size()))});
  for (const auto& [name, n] : status_counts) {
    t.add_row({"  " + name, TablePrinter::fmt_int(n)});
  }
  t.add_row({"cache hits", TablePrinter::fmt_int(
                               static_cast<long long>(result.cache_hits))});
  t.add_row({"executed", TablePrinter::fmt_int(
                             static_cast<long long>(result.executed))});
  t.add_row({"calibrations run",
             TablePrinter::fmt_int(
                 static_cast<long long>(result.calibrations_run))});
  t.add_row({"calibrations cached",
             TablePrinter::fmt_int(
                 static_cast<long long>(result.calibrations_cached))});
  t.add_row({"wall-clock", TablePrinter::fmt(result.wall_seconds, 3) + " s"});
  t.add_row({"reports", opts.out_dir + "/report.{json,csv}"});
  std::cout << t.to_ascii();

  if (print_report) {
    std::cout << campaign::report_json(result).dump(2) << '\n';
  }
  return 0;
}

/// The test-only protocol races `check --inject` can plant, by name (the
/// name counterexample files record under "inject"), with the schedule
/// whose commit path each one breaks.
constexpr struct {
  simk::Inject inject;
  const char* name;
  harness::Schedule schedule;
} kInjections[] = {
    {simk::Inject::kUnsafeWildcard, "unsafe-wildcard",
     harness::Schedule::kConservative},
    {simk::Inject::kCommitBeforeGvt, "commit-before-gvt",
     harness::Schedule::kOptimistic},
};

const auto& injection(const std::string& name) {
  for (const auto& i : kInjections) {
    if (name == i.name) return i;
  }
  throw std::runtime_error("unknown --inject '" + name +
                           "' (expected unsafe-wildcard|commit-before-gvt)");
}

int run_check_replay(Args& args, const std::string& path) {
  json::Value doc = json::Value::parse(read_file(path));
  if (!doc.has("kind") || doc.at("kind").as_string() != "stgsim-schedule") {
    throw std::runtime_error("'" + path +
                             "' is not a stgsim counterexample file");
  }
  if (!doc.has("spec")) {
    throw std::runtime_error(
        "counterexample has no embedded run spec; cannot replay");
  }
  harness::RunSpec spec = harness::run_spec_from_json(doc.at("spec"));
  const std::string canonical_digest =
      doc.at("canonical").at("digest").as_string();
  const std::string recorded_digest =
      doc.at("observed").at("digest").as_string();

  harness::RunConfig cfg = spec.config;
  cfg.threads = 0;
  cfg.record_host_trace = false;
  cfg.max_host_seconds = 0.0;
  if (const json::Value* inj = doc.find("inject")) {
    cfg.inject = injection(inj->as_string()).inject;
  }

  // Full observability is the point of replay: attach a recorder when any
  // output was requested (never changes simulated results).
  const ObsOutputs outputs = ObsOutputs::from_args(args, /*with_links=*/false);
  const std::string div_out = args.str("divergence-out", "");
  const std::unique_ptr<obs::Recorder> recorder = outputs.attach(&cfg);
  args.check_all_consumed();

  ir::Program prog = campaign::program_for_spec(spec);

  std::unique_ptr<simk::ScheduleOracle> oracle;
  if (const json::Value* steps = doc.find("steps")) {
    oracle =
        std::make_unique<mc::ReplayOracle>(mc::schedule_from_json(*steps));
  } else {
    // Threaded drain-permutation counterexample: re-run the exact trial.
    cfg.threads = static_cast<int>(doc.at("workers").as_int());
    oracle = std::make_unique<mc::DrainPermuteOracle>(
        static_cast<std::uint64_t>(doc.at("drain_seed").as_number()),
        cfg.threads);
  }
  cfg.oracle = oracle.get();

  harness::RunOutcome out = harness::run_program(prog, cfg);
  const std::string replayed_digest = harness::run_digest_hex(out);

  TablePrinter t({"quantity", "value"});
  t.add_row({"counterexample", path});
  t.add_row({"divergence kind", doc.at("divergence").as_string()});
  t.add_row({"canonical digest", canonical_digest});
  t.add_row({"recorded divergent digest", recorded_digest});
  t.add_row({"replayed digest", replayed_digest});
  t.add_row({"replayed outcome", harness::run_status_name(out.status)});
  if (!out.diagnostic.empty()) t.add_row({"diagnostic", out.diagnostic});
  t.add_row({"reproduced",
             replayed_digest == canonical_digest ? "no (matches canonical)"
                                                 : "yes"});
  std::cout << t.to_ascii();

  if (recorder != nullptr) outputs.write(*recorder, recorder->snapshot());
  if (!div_out.empty()) {
    std::vector<std::pair<std::string, std::string>> canon_fields = {
        {"digest", canonical_digest},
        {"status", doc.at("canonical").at("status").as_string()},
    };
    std::vector<std::pair<std::string, std::string>> obs_fields = {
        {"digest", replayed_digest},
        {"status", harness::run_status_name(out.status)},
        {"predicted_vtime", vtime_to_string(out.predicted_time)},
    };
    for (std::size_t r = 0; r < out.per_rank.size(); ++r) {
      obs_fields.emplace_back("rank" + std::to_string(r) + "_clock",
                              std::to_string(out.per_rank[r]));
    }
    write_output(div_out, [&](std::ostream& os) {
      obs::Recorder::write_divergence_json(
          os, doc.at("description").as_string(), canon_fields, obs_fields);
    });
  }
  return replayed_digest == canonical_digest ? 0 : 6;
}

int cmd_check(Args& args) {
  args.no_positionals();
  const std::string replay_path = args.str("replay", "");
  if (!replay_path.empty()) return run_check_replay(args, replay_path);

  const bool workers_given = args.has("workers");
  json::Value doc = spec_doc_from_args(args);
  if (!doc.has("app")) throw std::runtime_error("check needs --app");

  mc::CheckOptions copts;
  copts.max_schedules =
      static_cast<std::uint64_t>(args.num("max-schedules", 256));
  copts.max_depth = static_cast<std::size_t>(args.num("max-depth", 0));
  copts.use_dpor = !args.flag("no-dpor");
  copts.keep_going = args.flag("keep-going");
  copts.threaded_trials = static_cast<int>(args.num("trials", 4));
  copts.drain_seed = static_cast<std::uint64_t>(args.num("drain-seed", 1));
  const std::string inject_arg = args.str("inject", "");
  const std::string cex_out = args.str("counterexample-out", "");
  args.check_all_consumed();

  harness::RunSpec spec = harness::run_spec_from_json(doc);
  if (spec.config.mode == harness::Mode::kMeasured) {
    throw std::runtime_error(
        "check requires --mode de or am: measured mode's seeded noise is "
        "order-dependent by design, so digest invariance cannot hold");
  }
  if (spec.config.nprocs > 8) {
    throw std::runtime_error(
        "check explores schedules exhaustively and supports at most 8 "
        "ranks (got " +
        std::to_string(spec.config.nprocs) + ")");
  }
  if (workers_given) {
    copts.threaded_workers = spec.config.threads;
    if (copts.threaded_workers == 1) {
      throw std::runtime_error(
          "--workers for check must be 0 (skip the threaded cross-check) "
          "or >= 2");
    }
  }
  // --max-host-sec bounds the *whole exploration* here (a per-run wall
  // budget would fire schedule-nondeterministically).
  if (spec.config.max_host_seconds > 0.0) {
    copts.max_host_seconds = spec.config.max_host_seconds;
  }
  if (!inject_arg.empty()) {
    const auto& planted = injection(inject_arg);
    if (spec.config.schedule != planted.schedule) {
      throw std::runtime_error("--inject " + inject_arg +
                               " requires --schedule " +
                               harness::schedule_name(planted.schedule));
    }
    spec.config.inject = planted.inject;
  }

  // Resolve w_i parameters for analytical-model checks.
  harness::RunSpec resolved = spec;
  if (spec.config.mode == harness::Mode::kAnalytical &&
      spec.config.params.empty()) {
    if (spec.calibrate_procs <= 0) spec.calibrate_procs = spec.config.nprocs;
    std::cerr << "calibrating w_i at " << spec.calibrate_procs
              << " processes...\n";
    const std::map<std::string, double> calib =
        campaign::run_calibration(spec);
    resolved = campaign::resolve_spec(spec, &calib);
  }

  copts.base = resolved.config;
  ir::Program prog = campaign::program_for_spec(resolved);

  mc::CheckReport rep = mc::check_program(prog, copts);
  if (!rep.error.empty()) {
    std::cout << "CHECK ERROR: " << rep.error << '\n';
    return 5;
  }

  TablePrinter t({"quantity", "value"});
  t.add_row({"app", resolved.app});
  t.add_row({"mode", harness::mode_key(resolved.config.mode)});
  t.add_row({"target processes", TablePrinter::fmt_int(resolved.config.nprocs)});
  t.add_row({"canonical outcome",
             harness::run_status_name(rep.canonical.status)});
  t.add_row({"canonical digest", rep.canonical_digest});
  t.add_row({"wildcard receives", rep.used_wildcard_recv ? "yes" : "no"});
  t.add_row({"schedules explored",
             TablePrinter::fmt_int(static_cast<long long>(rep.stats.schedules))});
  t.add_row({"prefixes pruned (sleep sets)",
             TablePrinter::fmt_int(static_cast<long long>(rep.stats.pruned))});
  if (rep.stats.depth_clipped > 0) {
    t.add_row({"runs clipped by --max-depth",
               TablePrinter::fmt_int(
                   static_cast<long long>(rep.stats.depth_clipped))});
  }
  t.add_row({"deepest schedule (choice points)",
             TablePrinter::fmt_int(
                 static_cast<long long>(rep.stats.max_depth_seen))});
  t.add_row({"distinct schedule digests",
             TablePrinter::fmt_int(
                 static_cast<long long>(rep.distinct_schedule_digests))});
  t.add_row({"exploration",
             rep.stats.complete ? std::string("complete")
                                : (rep.stats.budget_reason.empty()
                                       ? std::string("stopped")
                                       : rep.stats.budget_reason)});
  if (copts.threaded_workers >= 2) {
    t.add_row({"threaded cross-check trials",
               TablePrinter::fmt_int(rep.threaded_trials_run) + " (workers=" +
                   std::to_string(copts.threaded_workers) + ")"});
  }
  t.add_row({"divergences",
             TablePrinter::fmt_int(
                 static_cast<long long>(rep.divergences.size()))});
  std::cout << t.to_ascii();

  if (rep.divergences.empty()) {
    std::cout << "PROTOCOL GATE PASSED: all explored schedules commit "
                 "digest "
              << rep.canonical_digest << '\n';
    return 0;
  }

  for (std::size_t i = 0; i < rep.divergences.size(); ++i) {
    const mc::Divergence& d = rep.divergences[i];
    std::cout << "DIVERGENCE " << (i + 1) << " ["
              << mc::divergence_kind_name(d.kind) << "]: " << d.description
              << '\n';
    if (!d.schedule.empty()) {
      std::cout << "  schedule (" << d.schedule.size() << " steps):";
      for (const auto& s : d.schedule) std::cout << ' ' << mc::option_label(s);
      std::cout << '\n';
    } else if (d.kind == mc::Divergence::Kind::kThreadedDigest) {
      std::cout << "  threaded trial: workers=" << d.workers
                << " drain_seed=" << d.drain_seed << '\n';
    }
  }
  if (!cex_out.empty()) {
    json::Value cex = mc::counterexample_to_json(
        rep.divergences.front(), rep, harness::run_spec_to_json(resolved));
    if (!inject_arg.empty()) cex.set("inject", inject_arg);
    write_output(cex_out, [&](std::ostream& os) { os << cex.dump(2) << '\n'; });
  }
  std::cout << "PROTOCOL GATE FAILED: " << rep.divergences.size()
            << " divergent schedule(s); replay with stgsim check --replay "
            << (cex_out.empty() ? "<counterexample.json>" : cex_out) << '\n';
  return 6;
}

// ---------------------------------------------------------------------------
// Service subcommands (DESIGN.md §16).

int cmd_schema(Args& args) {
  args.no_positionals();
  const std::string only = args.str("id", "");
  args.check_all_consumed();

  std::vector<json::Value> schemas;
  schemas.push_back(harness::run_spec_schema_json());
  schemas.push_back(harness::run_outcome_schema_json());
  schemas.push_back(errors::error_envelope_schema_json());
  schemas.push_back(serve::request_schema_json());
  schemas.push_back(serve::frame_schema_json());

  json::Value doc = json::Value::object();
  json::Value ids = json::Value::array();
  for (const json::Value& s : schemas) {
    const std::string id = s.at("$id").as_string();
    ids.push_back(id);
    if (only.empty() || only == id) doc.set(id, s);
  }
  if (!only.empty() && doc.as_object().empty()) {
    json::Value detail = json::Value::object();
    detail.set("requested", only);
    detail.set("available", ids);
    throw errors::StructuredError("usage.unknown_schema_id",
                                  errors::kCategoryUsage,
                                  "unknown schema id '" + only + "'",
                                  std::move(detail));
  }
  if (only.empty()) {
    json::Value versions = json::Value::object();
    json::Value spec_versions = json::Value::array();
    for (const std::string& v : harness::published_schema_versions()) {
      spec_versions.push_back(v);
    }
    versions.set("run_spec", std::move(spec_versions));
    json::Value protos = json::Value::array();
    for (const std::string& p : serve::published_protos()) protos.push_back(p);
    versions.set("serve", std::move(protos));
    json::Value error_apis = json::Value::array();
    error_apis.push_back(std::string(errors::kErrorApi));
    versions.set("error", std::move(error_apis));
    doc.set("published_versions", std::move(versions));
  }
  std::cout << doc.dump(2) << '\n';
  return 0;
}

std::sig_atomic_t volatile g_signal = 0;
void on_signal(int) { g_signal = 1; }

int cmd_serve(Args& args) {
  args.no_positionals();
  serve::Service::Options sopts;
  sopts.cache_dir = args.str("cache-dir", ".stgsim-cache");
  sopts.jobs = static_cast<int>(args.num("jobs", 2));
  if (sopts.jobs < 0) throw std::runtime_error("--jobs must be >= 0");
  sopts.max_active_requests =
      static_cast<int>(args.num("max-requests", 16));
  sopts.max_inflight_per_client =
      static_cast<int>(args.num("max-per-client", 4));
  sopts.max_run_host_seconds = args.real("max-run-sec", 0.0);
  sopts.with_metrics = !args.flag("no-metrics");

  serve::HttpServer::Options hopts;
  hopts.host = args.str("host", "127.0.0.1");
  hopts.port = static_cast<int>(args.num("port", 0));
  const std::string port_file = args.str("port-file", "");
  args.check_all_consumed();

  serve::Service service(sopts);
  serve::HttpServer server;
  const int port = server.start(hopts, serve::make_http_handler(service));
  if (!port_file.empty()) {
    std::ofstream pf(port_file, std::ios::trunc);
    if (!pf) throw std::runtime_error("cannot write " + port_file);
    pf << port << '\n';
  }
  std::cerr << "stgsim serve listening on " << hopts.host << ":" << port
            << " (cache " << sopts.cache_dir << ", jobs " << sopts.jobs
            << ")\n";

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!service.shutdown_requested() && g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Graceful drain: reject new work, finish what is in flight, then stop
  // the listener (stop() joins every connection handler).
  std::cerr << "stgsim serve draining...\n";
  service.begin_drain();
  service.wait_idle();
  server.stop();
  std::cerr << "stgsim serve stopped\n";
  return 0;
}

/// Daemon address from --port / --port-file (+ --host).
std::pair<std::string, int> daemon_address(Args& args) {
  const std::string host = args.str("host", "127.0.0.1");
  int port = static_cast<int>(args.num("port", 0));
  if (port == 0) {
    const std::string pf = args.str("port-file", "");
    if (pf.empty()) {
      throw std::runtime_error(
          "need --port or --port-file to reach the daemon");
    }
    port = std::atoi(read_file(pf).c_str());
    if (port <= 0) {
      throw std::runtime_error("'" + pf + "' does not contain a port");
    }
  }
  return {host, port};
}

/// Exit code for a terminal frame: errors map through their category,
/// run results through their outcome status, everything else is 0.
int frame_exit_code(const json::Value& f) {
  if (const json::Value* event = f.find("event")) {
    if (event->as_string() == "error") {
      if (const json::Value* inner = f.find("error")) {
        if (const json::Value* cat = inner->find("category")) {
          return errors::category_exit_code(cat->as_string());
        }
      }
      return errors::category_exit_code(errors::kCategoryInternalError);
    }
  }
  if (const json::Value* outcome = f.find("outcome")) {
    const std::string status = outcome->at("status").as_string();
    if (status != "ok") return errors::category_exit_code(status);
  }
  return 0;
}

/// Writes a campaign result frame's reports like `stgsim campaign` does —
/// byte-identical report.json / report.csv (canonical JSON makes the
/// re-dump exact).
void write_frame_reports(const json::Value& f, const std::string& out_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create output directory '" + out_dir +
                             "': " + ec.message());
  }
  write_output((fs::path(out_dir) / "report.json").string(),
               [&](std::ostream& os) { os << f.at("report").dump(2) << '\n'; });
  write_output((fs::path(out_dir) / "report.csv").string(),
               [&](std::ostream& os) { os << f.at("report_csv").as_string(); });
}

int cmd_submit(Args& args) {
  args.no_positionals();
  const auto [host, port] = daemon_address(args);

  serve::Request req;
  const std::string config = args.str("config", "");
  const std::string scenario = args.str("scenario", "");
  if (config.empty() == scenario.empty()) {
    throw std::runtime_error(
        "submit needs exactly one of --config (run) or --scenario "
        "(campaign)");
  }
  req.kind = config.empty() ? serve::RequestKind::kCampaign
                            : serve::RequestKind::kRun;
  req.payload =
      json::Value::parse(read_file(config.empty() ? scenario : config));
  req.client = args.str("client", "anon");
  req.stream = args.flag("stream");
  req.retry_failed = args.flag("retry-failed");
  const std::string out_dir = args.str("out-dir", "");
  args.check_all_consumed();

  const std::string body = serve::request_to_json(req).dump();
  json::Value terminal;
  if (req.stream) {
    serve::http_request_stream(
        host, port, "POST", "/v1/request", body,
        [&](const std::string& line) {
          if (line.empty()) return;
          const json::Value f = json::Value::parse(line);
          const std::string event = f.at("event").as_string();
          if (event == "result" || event == "error") {
            terminal = f;
            return;
          }
          // Progress frames narrate on stderr; stdout stays machine-parse
          // friendly (the terminal document only).
          if (event == "run_done") {
            std::cerr << "[" << f.at("done").as_int() << "/"
                      << f.at("total").as_int() << "] " <<
                f.at("id").as_string() << ": " << f.at("status").as_string()
                      << (f.at("cache_hit").as_bool() ? " (cached)" : "")
                      << '\n';
          } else {
            std::cerr << event << "...\n";
          }
        });
    if (terminal.is_null()) {
      throw std::runtime_error("daemon closed the stream without a result");
    }
  } else {
    const serve::HttpResponse resp =
        serve::http_request(host, port, "POST", "/v1/request", body);
    const json::Value doc = json::Value::parse(resp.body);
    if (doc.find("error") != nullptr && doc.find("event") == nullptr) {
      // Non-streaming rejections arrive as the bare envelope — print it
      // verbatim (byte-identical to --json-errors output) and exit by
      // category.
      std::cout << resp.body;
      return errors::category_exit_code(
          doc.at("error").at("category").as_string());
    }
    terminal = doc;
  }

  const int code = frame_exit_code(terminal);
  if (!out_dir.empty() && terminal.find("report") != nullptr) {
    write_frame_reports(terminal, out_dir);
  }
  if (terminal.find("event") != nullptr &&
      terminal.at("event").as_string() == "error") {
    json::Value envelope = json::Value::object();
    envelope.set("error", terminal.at("error"));
    std::cout << envelope.dump(2) << '\n';
    return code;
  }
  std::cout << terminal.dump(2) << '\n';
  return code;
}

int cmd_status(Args& args) {
  args.no_positionals();
  const auto [host, port] = daemon_address(args);
  const bool metrics = args.flag("metrics");
  const std::string metrics_out = args.str("metrics-out", "");
  args.check_all_consumed();

  if (metrics || !metrics_out.empty()) {
    const serve::HttpResponse resp =
        serve::http_request(host, port, "GET", "/v1/metrics", "");
    write_output(metrics_out, [&](std::ostream& os) { os << resp.body; });
    if (metrics) std::cout << resp.body;
    return resp.status == 200 ? 0 : 5;
  }
  const serve::HttpResponse resp =
      serve::http_request(host, port, "GET", "/v1/status", "");
  std::cout << resp.body;
  return resp.status == 200 ? 0 : 5;
}

int cmd_shutdown(Args& args) {
  args.no_positionals();
  const auto [host, port] = daemon_address(args);
  args.check_all_consumed();
  const serve::HttpResponse resp =
      serve::http_request(host, port, "POST", "/v1/shutdown", "");
  std::cout << resp.body;
  return resp.status == 200 ? 0 : 5;
}

/// Every subcommand, in usage order.
constexpr struct {
  const char* name;
  int (*handler)(Args&);
} kCommands[] = {
    {"list-apps", cmd_list_apps}, {"compile", cmd_compile},
    {"run", cmd_run},             {"calibrate", cmd_calibrate},
    {"campaign", cmd_campaign},   {"check", cmd_check},
    {"serve", cmd_serve},         {"submit", cmd_submit},
    {"status", cmd_status},       {"shutdown", cmd_shutdown},
    {"schema", cmd_schema},
};

int main(int argc, char** argv) {
  // The global --json-errors flag may appear anywhere; strip it before
  // subcommand parsing so every command shares it.
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-errors") {
      g_json_errors = true;
      continue;
    }
    kept.push_back(argv[i]);
  }
  argc = static_cast<int>(kept.size());
  argv = kept.data();

  try {
    if (argc < 2) {
      std::string names;
      for (const auto& c : kCommands) {
        names += names.empty() ? "" : "|";
        names += c.name;
      }
      throw std::runtime_error(
          "usage: stgsim <" + names +
          "> [--flags]\n"
          "see the header of src/cli/stgsim_cli.cpp for examples");
    }
    const std::string cmd = argv[1];
    if (cmd.rfind("--", 0) == 0) {
      // The PR 5 deprecation cycle for "stgsim --app ..." (implicit `run`)
      // is over: fail structurally, naming the replacement.
      json::Value detail = json::Value::object();
      detail.set("replacement", "stgsim run " + cmd + " ...");
      throw errors::StructuredError(
          "usage.legacy_invocation", errors::kCategoryUsage,
          "invoking stgsim without a subcommand was removed; use "
          "'stgsim run ...'",
          std::move(detail));
    }
    Args args(argc, argv, 2);
    for (const auto& c : kCommands) {
      if (cmd == c.name) return c.handler(args);
    }
    throw errors::StructuredError("usage.unknown_command",
                                  errors::kCategoryUsage,
                                  "unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    // One exit path for every failure: the envelope (stdout, machine-read)
    // under --json-errors, classic "error:" prose (stderr) otherwise. The
    // exit code always follows the error's category (plain exceptions are
    // usage errors -> 1, the historical behavior).
    const json::Value envelope = errors::error_envelope_for(
        e, "usage.invalid_invocation", errors::kCategoryUsage);
    if (g_json_errors) {
      std::cout << envelope.dump(2) << '\n';
    } else {
      std::cerr << "error: " << e.what() << '\n';
    }
    return errors::category_exit_code(
        envelope.at("error").at("category").as_string());
  }
}

}  // namespace
}  // namespace stgsim::cli

int main(int argc, char** argv) { return stgsim::cli::main(argc, argv); }
