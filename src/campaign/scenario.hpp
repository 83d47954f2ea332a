// Declarative sweep scenarios.
//
// A scenario file describes an experiment campaign the way the paper's
// evaluation is structured: sweeps over (app × nprocs × mode × machine ×
// seed × faults × ...), where analytical-model points depend on a
// calibration run whose w_i table feeds them (Figure 2). parse_scenario
// expands the sweeps into a flat, deterministically-ordered list of fully
// resolved RunSpecs plus the deduplicated calibration jobs they depend on
// — a two-level DAG the campaign runner executes.
//
// Schema (all run-spec keys from harness/config_json.hpp are accepted):
//
//   {
//     "name": "sweep3d-validation",
//     "defaults": { "machine": "ibm_sp", "seed": 1 },
//     "sweeps": [
//       {
//         "app": "sweep3d",
//         "options": {"kt": 36, "kb": 12},
//         "procs": [4, 8, 16],
//         "mode": ["measured", "de", "am"],
//         "calibrate": 16
//       }
//     ],
//     "runs": [ { ...single fully-specified run... } ]
//   }
//
// Inside a sweep, any run-spec value — including app option values — may
// be a JSON array; the sweep is the cross product of all array-valued
// axes. `defaults` supplies scalar fallbacks for every sweep and run.
// Expansion order is deterministic: sweeps in file order, axes in sorted
// key order, axis values in file order — so run ids, cache keys, and
// reports are stable across invocations of the same scenario.
#pragma once

#include <string>
#include <vector>

#include "harness/config_json.hpp"
#include "support/json.hpp"

namespace stgsim::campaign {

/// One expanded run of a campaign.
struct CampaignRun {
  std::string id;          ///< stable, unique within the scenario
  harness::RunSpec spec;   ///< params not yet resolved for analytical runs
  int calibration = -1;    ///< index into Scenario::calibrations, or -1
};

/// One deduplicated calibration job (several analytical runs typically
/// share it).
struct CalibrationJob {
  std::string id;
  harness::RunSpec spec;    ///< app/machine/seed/calibrate_procs define it
  std::string digest_hex;   ///< harness::calibration_digest_hex(spec)
};

struct Scenario {
  std::string name;
  std::vector<CalibrationJob> calibrations;
  std::vector<CampaignRun> runs;  ///< expansion order

  /// Digest of the scenario's canonical expansion (all run-spec dumps);
  /// recorded in the campaign manifest so a resumed campaign can detect
  /// that the scenario changed underneath it.
  std::string digest_hex;
};

/// Expands a scenario document. Throws std::runtime_error with context on
/// schema violations: unknown keys, unknown apps/machines/modes, analytical
/// sweeps with neither "calibrate" nor inline "params", measured runs with
/// workers > 1 (emulation needs one host worker).
Scenario parse_scenario(const json::Value& doc);

/// Convenience: parse text, then expand.
Scenario parse_scenario_text(const std::string& text);

}  // namespace stgsim::campaign
