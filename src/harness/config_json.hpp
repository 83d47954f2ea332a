// One JSON schema for a run, shared by every front end.
//
// A RunSpec is the serializable description of one simulation run: the
// target app (by registry name + options), the resolved RunConfig, and an
// optional calibration dependency for analytical-model runs. The same
// schema is read from three places — `stgsim run --config file.json`,
// campaign scenario files (where any field may be a sweep list), and the
// bench harness — so config plumbing lives here once instead of being
// re-implemented per consumer.
//
// Canonicalization contract:
//   * to_json(spec) emits every field with defaults resolved (app options
//     filled from the registry, machine rendered as its canonical spec
//     string, fault plan as its canonical clause string), keys sorted.
//   * from_json(to_json(spec)) reproduces the spec exactly (up to the
//     "calibrate" count, which is canonicalized to 0 when the run's
//     prediction cannot depend on it — see run_spec_to_json), and
//     to_json is idempotent: dump(to_json(from_json(j))) is a pure
//     function of the *meaning* of j, not its formatting.
//   * run_spec_digest() hashes that canonical dump plus the simulator
//     version — the campaign cache key. Any field that can change a
//     prediction (seed, machine override, fault plan, params, ...)
//     changes the digest; formatting of the input JSON never does.
//
// RunOutcome serialization round-trips everything the aggregate reports
// and the run digest need (per-rank clocks and stats, counters, metrics);
// host-side trace data is excluded.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "harness/runner.hpp"
#include "support/json.hpp"

namespace stgsim::harness {

/// Bumped whenever simulated predictions can legitimately change (machine
/// models, protocol costs, app kernels). Part of every cache key, so stale
/// campaign caches invalidate wholesale instead of serving results from an
/// older simulator.
inline constexpr const char kSimulatorVersion[] = "stgsim-11";

/// The RunSpec/RunOutcome JSON is a *public wire schema*: clients of the
/// serve daemon and config files on disk both speak it. Published versions,
/// oldest first; the last entry is always kSimulatorVersion. A document may
/// carry an explicit "schema" key naming its version — run_spec_from_json
/// accepts any published version (the schema has only ever grown
/// additively, so older documents parse under the current reader) and
/// rejects unknown/future versions with a structured error listing the
/// supported set, instead of misreading a document written for a newer
/// simulator.
const std::vector<std::string>& published_schema_versions();

/// True iff `name` appears in published_schema_versions().
bool schema_version_supported(const std::string& name);

/// JSON Schema documents for the public wire surface, printed by
/// `stgsim schema`. Ids: "<kSimulatorVersion>/run-spec" and
/// "<kSimulatorVersion>/run-outcome".
json::Value run_spec_schema_json();
json::Value run_outcome_schema_json();

/// Short mode keys used by the CLI and all JSON schemas:
/// "measured" / "de" / "am" (mode_name() stays the display form).
const char* mode_key(Mode m);
Mode parse_mode(const std::string& key);  ///< throws on unknown keys

/// One fully-described run: target app + resolved configuration.
struct RunSpec {
  std::string app;  ///< registry name (apps/registry.hpp)
  std::map<std::string, std::string> app_options;
  RunConfig config;
  /// For kAnalytical runs with no inline params: calibrate w_i at this
  /// process count first (on the same machine and seed). 0 = none.
  int calibrate_procs = 0;
};

/// One RunConfig field of the RunSpec schema. run_config_fields() is the
/// only place a field is declared: JSON emit and parse, the published
/// schema, the `stgsim run`/`check`/`compile` flag overrides and the
/// campaign comparison key are all loops over it.
struct RunConfigField {
  /// What the field means for a prediction.
  enum class Role {
    kExperiment,  ///< part of the simulated experiment
    kMethod,      ///< how the prediction is made (mode, comm model, w_i)
    kHostSide,    ///< host execution only: never changes a run digest
  };
  /// Values the JSON key rejects (with "<key> must be ...").
  enum class Bound { kAny, kNonNegative, kPositive };
  /// How the CLI flag spells the value.
  enum class Flag {
    kInteger,
    kNumber,
    kString,
    kBoolean,
    kSeconds,      ///< seconds on the command line, nanoseconds in JSON
    kCountOrNone,  ///< an integer, or "none" for 0
  };

  const char* key;  ///< JSON key
  Role role;
  const char* type;  ///< JSON Schema type
  const char* description;
  std::vector<std::string> choices = {};  ///< JSON Schema enum
  Bound bound = Bound::kAny;
  const char* flag = nullptr;  ///< CLI spelling without "--"; none if null
  Flag flag_kind = Flag::kString;
  /// Set when the flag, unlike the JSON key, must be positive: the
  /// requirement its error message states.
  const char* flag_positive = nullptr;
  json::Value (*write)(const RunConfig&);
  /// Stores a JSON value; throws std::runtime_error when it is invalid.
  void (*read)(const json::Value&, RunConfig*);
};

/// Every RunConfig field, in CLI flag-processing order.
const std::vector<RunConfigField>& run_config_fields();

/// The app part of a RunSpec, as the app registry takes it.
apps::AppSpec app_spec_of(const RunSpec& spec);

/// RunConfig <-> JSON (without the app — used inside RunSpec's schema).
json::Value run_config_to_json(const RunConfig& config);
RunConfig run_config_from_json(const json::Value& v);

/// RunSpec <-> JSON. from_json rejects unknown keys with a structured
/// error, and rejects measured mode with several workers or the
/// optimistic schedule (the engine cannot run it); to_json emits the
/// canonical (defaults-resolved, sorted) form.
json::Value run_spec_to_json(const RunSpec& spec);
RunSpec run_spec_from_json(const json::Value& v);

/// Content-address of a run: FNV-1a over the canonical spec dump and
/// kSimulatorVersion. Two specs digest equally iff they would simulate
/// the same thing on this simulator version.
std::uint64_t run_spec_digest(const RunSpec& spec);
std::string run_spec_digest_hex(const RunSpec& spec);

/// Cache key of the calibration run a RunSpec depends on: the same app /
/// machine / seed, measured at `calibrate_procs` ranks with timers on.
std::uint64_t calibration_digest(const RunSpec& spec);
std::string calibration_digest_hex(const RunSpec& spec);

/// RunOutcome <-> JSON. Everything reports and digests need round-trips;
/// the parallel protocol counters (host-timing dependent) are excluded.
json::Value outcome_to_json(const RunOutcome& outcome);
RunOutcome outcome_from_json(const json::Value& v);

/// Params table (w_i) <-> JSON object.
json::Value params_to_json(const std::map<std::string, double>& params);
std::map<std::string, double> params_from_json(const json::Value& v);

}  // namespace stgsim::harness
