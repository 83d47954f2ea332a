// Executing a RunSpec — the one place that turns a declarative run
// description into simulation work.
//
// The CLI (`stgsim run`, `stgsim calibrate`), the campaign runner, and the
// campaign-based benches all funnel through these functions instead
// of hand-rolling build-app / compile / calibrate / run_program pipelines.
// The split between resolve and execute exists for the cache: an
// analytical run's prediction depends on its w_i table, so the campaign
// resolves params first (cheap — one compile, no simulation), digests the
// resolved spec, and only executes on a cache miss.
#pragma once

#include <map>
#include <string>

#include "harness/config_json.hpp"
#include "ir/program.hpp"

namespace stgsim::campaign {

/// Runs the Figure-2 calibration a spec names: the app's
/// timer-instrumented program, measured at spec.calibrate_procs on
/// spec.config.machine with spec.config.seed. Throws (CheckError) when
/// the calibration run itself fails.
std::map<std::string, double> run_calibration(const harness::RunSpec& spec);

/// Resolves `spec` to the form whose digest is a pure content address.
/// For analytical runs this compiles the app and fills config.params from
/// `calib_params` (or the spec's inline params), zero-filling parameters
/// the calibration never measured; other modes pass through unchanged.
/// `calib_params` may be null when the spec carries inline params or is
/// not analytical.
harness::RunSpec resolve_spec(
    const harness::RunSpec& spec,
    const std::map<std::string, double>* calib_params);

/// The executable program of a *resolved* spec: the app itself, or under
/// am the compiler-simplified program that reads the inline w_i params.
/// Throws std::runtime_error when the app cannot be built at this size.
ir::Program program_for_spec(const harness::RunSpec& spec);

/// Executes a *resolved* spec and returns its outcome. `with_metrics`
/// attaches a metrics-only obs::Recorder (deterministic counters; never
/// changes digests). Configuration errors surfaced while building the
/// target program (e.g. nas_sp on a non-square process count) are
/// reported as kInternalError outcomes, not exceptions — a campaign must
/// outlive any misconfigured point.
harness::RunOutcome execute_spec(const harness::RunSpec& spec,
                                 bool with_metrics);

}  // namespace stgsim::campaign
