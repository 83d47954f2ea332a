// Shared machinery for the figure/table reproduction binaries.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (§4): it prints the same series the paper plots — measured
// (our machine emulation), MPI-SIM-DE and MPI-SIM-AM — plus the derived
// error/ratio columns, through a uniform TablePrinter layout that
// EXPERIMENTS.md records against the paper's reported shapes.
#pragma once

#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "harness/runner.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace stgsim::benchx {

/// The host a BENCH_*.json number was measured on: core count, compiler,
/// build type and git rev (PERF_* come from bench/CMakeLists.txt).
inline json::Value host_json() {
  json::Value h = json::Value::object();
  h.set("nproc",
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  h.set("compiler", PERF_COMPILER);
  h.set("build_type", PERF_BUILD_TYPE);
  h.set("git_rev", PERF_GIT_REV);
  return h;
}

/// host_json() as the `"host": {...},` line of a hand-written document.
inline void write_host(std::ostream& os) {
  os << "  \"host\": " << host_json().dump() << ",\n";
}

/// Builds a target program for a given process count (apps whose shape
/// depends on the grid rebuild per point).
using ProgramFactory = std::function<ir::Program(int nprocs)>;

struct PointOptions {
  bool run_measured = true;
  bool run_de = true;
  bool run_am = true;
  std::size_t memory_cap_bytes = 0;
  /// Host workers for the DE and AM runs (RunConfig::threads); the
  /// measured run always takes one, as kMeasured mode requires.
  int threads = 0;
  std::size_t fiber_stack_bytes = 256 * 1024;
};

struct ValidationPoint {
  int procs = 0;
  std::optional<harness::RunOutcome> measured;
  std::optional<harness::RunOutcome> de;
  std::optional<harness::RunOutcome> am;

  double am_error_vs_measured() const {
    return relative_error(am->predicted_seconds(),
                          measured->predicted_seconds());
  }
  double de_error_vs_measured() const {
    return relative_error(de->predicted_seconds(),
                          measured->predicted_seconds());
  }
};

/// Calibrates w_i at `calib_procs` (Figure 2) and returns the table.
inline std::map<std::string, double> calibrate_at(
    const ProgramFactory& make, int calib_procs,
    const harness::MachineSpec& machine) {
  ir::Program prog = make(calib_procs);
  core::CompileResult compiled = core::compile(prog);
  return harness::calibrate(compiled.timer_program, calib_procs, machine,
                            compiled.simplified.params);
}

/// Runs the measured / DE / AM triple at one process count.
inline ValidationPoint validate_point(
    const ProgramFactory& make, int procs,
    const harness::MachineSpec& machine,
    const std::map<std::string, double>& params,
    const PointOptions& opts = {}) {
  ValidationPoint point;
  point.procs = procs;
  ir::Program prog = make(procs);

  harness::RunConfig cfg;
  cfg.nprocs = procs;
  cfg.machine = machine;
  cfg.memory_cap_bytes = opts.memory_cap_bytes;
  cfg.fiber_stack_bytes = opts.fiber_stack_bytes;

  if (opts.run_measured) {
    cfg.mode = harness::Mode::kMeasured;
    point.measured = harness::run_program(prog, cfg);
  }
  cfg.threads = opts.threads;
  if (opts.run_de) {
    cfg.mode = harness::Mode::kDirectExec;
    point.de = harness::run_program(prog, cfg);
  }
  if (opts.run_am) {
    core::CompileResult compiled = core::compile(prog);
    cfg.mode = harness::Mode::kAnalytical;
    cfg.params = params;
    point.am = harness::run_program(compiled.simplified.program, cfg);
  }
  return point;
}

/// Host-era normalization factor for absolute simulator-performance
/// figures (12/13): the paper ran MPI-Sim on the same IBM SP it was
/// predicting, so host and target speeds matched; this host is ~two
/// orders of magnitude faster than a 1999 SP node. Multiplying measured
/// simulator wall-clocks by
///     (total virtual computation DE executed) / (host seconds DE took)
/// re-expresses them as if the simulator ran on target-era nodes. `de` is
/// a one-worker direct-execution run, so its engine wall is the host time
/// of that computation. This is a single measured ratio per run — not a
/// fit to the paper's numbers.
inline double era_factor(const harness::RunOutcome& de) {
  STGSIM_CHECK(de.ok());
  const double virtual_compute =
      vtime_to_sec(de.stats.compute_time) * de.nprocs;
  return virtual_compute / std::max(1e-9, de.sim_host_seconds);
}

/// The measured / DE / AM triple at `procs` with DE and AM on `hosts`
/// worker threads, plus the era factor of a one-worker DE run at the same
/// point in `*era`: one row of the #host = #target figures.
inline ValidationPoint threaded_point(
    const ProgramFactory& make, int procs, int hosts,
    const harness::MachineSpec& machine,
    const std::map<std::string, double>& params, double* era) {
  ValidationPoint p = validate_point(make, procs, machine, params);
  *era = era_factor(*p.de);
  if (hosts > 1) {
    PointOptions opts;
    opts.run_measured = false;
    opts.threads = hosts;
    ValidationPoint par = validate_point(make, procs, machine, params, opts);
    p.de = std::move(par.de);
    p.am = std::move(par.am);
  }
  return p;
}

/// Host processors this machine offers (at least one). The parallel-host
/// figures (12-16) run the simulator on real worker threads, so they
/// print this in their header and no row past it.
inline int host_nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Host worker counts 1, 2, 4, ... up to min(max_hosts, host_nproc()).
inline std::vector<int> host_counts(int max_hosts) {
  std::vector<int> out;
  for (int k = 1; k <= std::min(max_hosts, host_nproc()); k *= 2) {
    out.push_back(k);
  }
  return out;
}

inline std::string cell_time(const std::optional<harness::RunOutcome>& o) {
  if (!o.has_value()) return "-";
  if (o->out_of_memory()) return "OOM";
  if (!o->ok()) return harness::run_status_name(o->status);
  return TablePrinter::fmt(o->predicted_seconds(), 3);
}

inline std::string cell_err(const std::optional<harness::RunOutcome>& o,
                            const std::optional<harness::RunOutcome>& ref) {
  if (!o || !ref || !o->ok() || !ref->ok()) return "-";
  return TablePrinter::fmt_percent(
      relative_error(o->predicted_seconds(), ref->predicted_seconds()));
}

/// Standard validation table (Figs. 3-6): one row per process count.
inline void print_validation_table(const std::string& fig,
                                   const std::string& title,
                                   const std::vector<std::string>& notes,
                                   const std::vector<ValidationPoint>& points) {
  print_experiment_header(std::cout, fig, title, notes);
  TablePrinter t({"procs", "measured (s)", "MPI-SIM-DE (s)", "MPI-SIM-AM (s)",
                  "DE err", "AM err"});
  for (const auto& p : points) {
    t.add_row({TablePrinter::fmt_int(p.procs), cell_time(p.measured),
               cell_time(p.de), cell_time(p.am),
               cell_err(p.de, p.measured), cell_err(p.am, p.measured)});
  }
  std::cout << t.to_ascii();

  RunningStats am_err;
  for (const auto& p : points) {
    if (p.am && p.measured && p.am->ok() && p.measured->ok()) {
      am_err.add(abs_relative_error(p.am->predicted_seconds(),
                                    p.measured->predicted_seconds()));
    }
  }
  if (am_err.count() > 0) {
    std::cout << "AM |error| vs measured: mean "
              << TablePrinter::fmt_percent(am_err.mean()) << ", max "
              << TablePrinter::fmt_percent(am_err.max()) << "\n";
  }
}

}  // namespace stgsim::benchx
