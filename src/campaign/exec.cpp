#include "campaign/exec.hpp"

#include <stdexcept>

#include "apps/registry.hpp"
#include "core/compiler.hpp"
#include "harness/runner.hpp"
#include "obs/obs.hpp"

namespace stgsim::campaign {

std::map<std::string, double> run_calibration(const harness::RunSpec& spec) {
  if (spec.calibrate_procs <= 0) {
    throw std::runtime_error("run spec has no calibration configuration");
  }
  // The calibration program must be built for the calibration size (apps
  // whose communication shape depends on the process grid).
  ir::Program calib_prog =
      apps::build_app(harness::app_spec_of(spec), spec.calibrate_procs);
  core::CompileResult compiled = core::compile(calib_prog);
  return harness::calibrate(compiled.timer_program, spec.calibrate_procs,
                            spec.config.machine, /*required_params=*/{},
                            spec.config.seed);
}

harness::RunSpec resolve_spec(
    const harness::RunSpec& spec,
    const std::map<std::string, double>* calib_params) {
  if (spec.config.mode != harness::Mode::kAnalytical) return spec;

  harness::RunSpec resolved = spec;
  if (calib_params != nullptr) {
    resolved.config.params = *calib_params;
  } else if (resolved.config.params.empty()) {
    throw std::runtime_error(
        "analytical run needs w_i parameters: either inline \"params\" or a "
        "\"calibrate\" process count");
  }
  // Zero-fill parameters the target program reads but the calibration run
  // never executed (paper §3.3: tasks inside branches not taken at the
  // calibration configuration contributed nothing to the measurement).
  ir::Program prog =
      apps::build_app(harness::app_spec_of(spec), spec.config.nprocs);
  core::CompileResult compiled = core::compile(prog);
  for (const auto& p : compiled.simplified.params) {
    resolved.config.params.emplace(p, 0.0);
  }
  return resolved;
}

ir::Program program_for_spec(const harness::RunSpec& spec) {
  ir::Program prog =
      apps::build_app(harness::app_spec_of(spec), spec.config.nprocs);
  if (spec.config.mode == harness::Mode::kAnalytical) {
    return std::move(core::compile(prog).simplified.program);
  }
  return prog;
}

harness::RunOutcome execute_spec(const harness::RunSpec& spec,
                                 bool with_metrics) {
  harness::RunConfig cfg = spec.config;
  obs::Recorder recorder(obs::Options{/*trace=*/false, /*metrics=*/true,
                                      /*comm_matrix=*/false},
                         cfg.nprocs);
  if (with_metrics) cfg.obs = &recorder;

  try {
    return harness::run_program(program_for_spec(spec), cfg);
  } catch (const std::exception& e) {
    // Misconfigured point (bad app shape for this process count, invalid
    // combination): a structured outcome so the campaign keeps going and
    // the report's taxonomy shows it.
    harness::RunOutcome out;
    out.status = harness::RunStatus::kInternalError;
    out.diagnostic = e.what();
    out.nprocs = cfg.nprocs;
    return out;
  }
}

}  // namespace stgsim::campaign
