#include "harness/config_json.hpp"

#include <stdexcept>
#include <type_traits>

#include "apps/registry.hpp"
#include "fault/fault.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "sim/partition.hpp"
#include "support/errors.hpp"

namespace stgsim::harness {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv64(const std::string& bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Stringifies a scenario/config option value the way it would be typed on
/// a command line: strings verbatim, numbers canonically, bools as 0/1.
std::string option_to_string(const std::string& key, const json::Value& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_number()) return json::format_double(v.as_number());
  if (v.is_bool()) return v.as_bool() ? "1" : "0";
  throw std::runtime_error("option '" + key +
                           "' must be a string, number or bool");
}

/// JSON <-> RunConfig for a member stored as its JSON value, or, with
/// `Scale`, in units of Scale (memory in MiB, fiber stack in KiB).
template <auto Member, double Scale = 1.0>
json::Value write_member(const RunConfig& c) {
  if constexpr (Scale == 1.0) {
    return json::Value(c.*Member);
  } else {
    return json::Value(static_cast<double>(c.*Member) / Scale);
  }
}

template <auto Member, double Scale = 1.0>
void read_member(const json::Value& v, RunConfig* c) {
  auto& field = c->*Member;
  using T = std::remove_reference_t<decltype(field)>;
  if constexpr (std::is_same_v<T, bool>) {
    field = v.as_bool();
  } else {
    field = static_cast<T>(v.as_number() * Scale);
  }
}

/// Applies one RunConfig schema key. Returns false when the key does not
/// belong to the RunConfig part of the schema (so RunSpec parsing can
/// route its own keys and reject true unknowns with a full key list).
bool apply_config_key(RunConfig* config, const std::string& key,
                      const json::Value& value) {
  using Bound = RunConfigField::Bound;
  for (const RunConfigField& f : run_config_fields()) {
    if (key != f.key) continue;
    if (std::string(f.type) == "integer") (void)value.as_int();
    if (f.bound == Bound::kPositive && value.as_number() <= 0) {
      throw std::runtime_error(key + " must be positive");
    }
    if (f.bound == Bound::kNonNegative && value.as_number() < 0) {
      throw std::runtime_error(key + " must be >= 0");
    }
    f.read(value, config);
    return true;
  }
  return false;
}

/// Sets "app" and its canonical "options" on `out`.
void set_canonical_app(json::Value* out, const RunSpec& spec) {
  const apps::AppSpec app = apps::canonical_app_spec(app_spec_of(spec));
  out->set("app", json::Value(app.name));
  json::Value opts = json::Value::object();
  for (const auto& [name, value] : app.options) {
    opts.set(name, json::Value(value));
  }
  out->set("options", opts);
}

}  // namespace

const std::vector<std::string>& published_schema_versions() {
  // Every tag kSimulatorVersion has ever carried. The schema only grows
  // additively (new optional keys with defaults), so a document written
  // for any published version parses under the current reader; the list
  // exists to *reject* documents from the future, not to branch readers.
  static const std::vector<std::string> kVersions = {
      "stgsim-5", "stgsim-6", "stgsim-7", "stgsim-8"};
  return kVersions;
}

bool schema_version_supported(const std::string& name) {
  for (const std::string& v : published_schema_versions()) {
    if (v == name) return true;
  }
  return false;
}

const char* mode_key(Mode m) {
  switch (m) {
    case Mode::kMeasured: return "measured";
    case Mode::kDirectExec: return "de";
    case Mode::kAnalytical: return "am";
  }
  return "?";
}

Mode parse_mode(const std::string& key) {
  for (const Mode m : {Mode::kMeasured, Mode::kDirectExec, Mode::kAnalytical}) {
    if (key == mode_key(m)) return m;
  }
  throw std::runtime_error("unknown mode '" + key +
                           "' (expected measured|de|am)");
}

json::Value params_to_json(const std::map<std::string, double>& params) {
  json::Value out = json::Value::object();
  for (const auto& [name, value] : params) out.set(name, json::Value(value));
  return out;
}

std::map<std::string, double> params_from_json(const json::Value& v) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : v.as_object()) {
    out[name] = value.as_number();
  }
  return out;
}

const std::vector<RunConfigField>& run_config_fields() {
  using Role = RunConfigField::Role;
  using Bound = RunConfigField::Bound;
  using Flag = RunConfigField::Flag;
  static const std::vector<RunConfigField> kFields = {
      {.key = "procs", .role = Role::kExperiment, .type = "integer",
       .description = "target process count (>= 1)",
       .bound = Bound::kPositive, .flag = "procs", .flag_kind = Flag::kInteger,
       .write = write_member<&RunConfig::nprocs>,
       .read = read_member<&RunConfig::nprocs>},
      {.key = "mode", .role = Role::kMethod, .type = "string",
       .description = "execution mode", .choices = {"measured", "de", "am"},
       .flag = "mode",
       .write = [](const RunConfig& c) {
         return json::Value(mode_key(c.mode));
       },
       .read = [](const json::Value& v, RunConfig* c) {
         c->mode = parse_mode(v.as_string());
       }},
      {.key = "machine", .role = Role::kExperiment, .type = "string",
       .description = "machine registry name or spec string, e.g. "
                      "ibm_sp[topo=fattree,radix=16,algo.bcast=binomial]",
       .flag = "machine",
       .write = [](const RunConfig& c) {
         return json::Value(machine_spec_string(c.machine));
       },
       .read = [](const json::Value& v, RunConfig* c) {
         c->machine = parse_machine_spec(v.as_string());
       }},
      {.key = "workers", .role = Role::kHostSide, .type = "integer",
       .description = "host worker threads (0 and 1 = one worker on the "
                      "calling thread)",
       .bound = Bound::kNonNegative, .flag = "workers",
       .flag_kind = Flag::kInteger,
       .write = write_member<&RunConfig::threads>,
       .read = read_member<&RunConfig::threads>},
      {.key = "partition", .role = Role::kHostSide, .type = "string",
       .description = "rank->worker placement policy",
       .choices = {"block", "interleave", "comm"}, .flag = "partition",
       .write = [](const RunConfig& c) {
         return json::Value(simk::partition_mode_name(c.partition));
       },
       .read = [](const json::Value& v, RunConfig* c) {
         if (!simk::parse_partition_mode(v.as_string(), &c->partition)) {
           throw std::runtime_error("unknown partition mode '" +
                                    v.as_string() +
                                    "' (expected block|interleave|comm)");
         }
       }},
      {.key = "schedule", .role = Role::kHostSide, .type = "string",
       .description = "synchronization protocol",
       .choices = {"conservative", "optimistic"}, .flag = "schedule",
       .write = [](const RunConfig& c) {
         return json::Value(schedule_name(c.schedule));
       },
       .read = [](const json::Value& v, RunConfig* c) {
         if (!parse_schedule(v.as_string(), &c->schedule)) {
           throw std::runtime_error("unknown schedule '" + v.as_string() +
                                    "' (expected conservative|optimistic)");
         }
       }},
      {.key = "gvt_interval", .role = Role::kHostSide, .type = "integer",
       .description = "committed events between GVT passes",
       .bound = Bound::kNonNegative, .flag = "gvt-interval",
       .flag_kind = Flag::kInteger, .flag_positive = "must be >= 1",
       .write = write_member<&RunConfig::gvt_interval>,
       .read = read_member<&RunConfig::gvt_interval>},
      {.key = "checkpoint_interval", .role = Role::kHostSide,
       .type = "integer",
       .description = "committed consumes between per-rank checkpoints "
                      "(0 disables checkpoints)",
       .bound = Bound::kNonNegative, .flag = "checkpoint-interval",
       .flag_kind = Flag::kCountOrNone,
       .flag_positive = "must be >= 1 or 'none'",
       .write = write_member<&RunConfig::checkpoint_interval>,
       .read = read_member<&RunConfig::checkpoint_interval>},
      {.key = "checkpoint_adaptive", .role = Role::kHostSide,
       .type = "boolean", .description = "auto-tune the checkpoint interval",
       .flag = "checkpoint-adaptive", .flag_kind = Flag::kBoolean,
       .write = write_member<&RunConfig::checkpoint_adaptive>,
       .read = read_member<&RunConfig::checkpoint_adaptive>},
      {.key = "speculation_window_sec", .role = Role::kHostSide,
       .type = "number",
       .description = "bounded-speculation window (0 = unbounded)",
       .bound = Bound::kNonNegative, .flag = "speculation-window",
       .flag_kind = Flag::kNumber,
       .flag_positive = "must be > 0 seconds of virtual time",
       .write = write_member<&RunConfig::speculation_window_sec>,
       .read = read_member<&RunConfig::speculation_window_sec>},
      {.key = "abstract_comm", .role = Role::kMethod, .type = "boolean",
       .description = "abstract communication model",
       .flag = "abstract-comm", .flag_kind = Flag::kBoolean,
       .write = write_member<&RunConfig::abstract_comm>,
       .read = read_member<&RunConfig::abstract_comm>},
      {.key = "memory_cap_mb", .role = Role::kExperiment, .type = "number",
       .description = "simulated-data cap", .bound = Bound::kNonNegative,
       .flag = "memory-cap-mb", .flag_kind = Flag::kNumber,
       .write = write_member<&RunConfig::memory_cap_bytes, 1024.0 * 1024.0>,
       .read = read_member<&RunConfig::memory_cap_bytes, 1024.0 * 1024.0>},
      {.key = "fiber_stack_kb", .role = Role::kExperiment, .type = "number",
       .description = "per-rank fiber stack", .bound = Bound::kNonNegative,
       .flag = "stack-kb", .flag_kind = Flag::kNumber,
       .write = write_member<&RunConfig::fiber_stack_bytes, 1024.0>,
       .read = read_member<&RunConfig::fiber_stack_bytes, 1024.0>},
      {.key = "seed", .role = Role::kExperiment, .type = "number",
       .description = "RNG seed", .bound = Bound::kNonNegative,
       .flag = "seed", .flag_kind = Flag::kInteger,
       .write = write_member<&RunConfig::seed>,
       .read = read_member<&RunConfig::seed>},
      {.key = "fault", .role = Role::kExperiment, .type = "string",
       .description = "fault-plan clause string (empty = none)",
       .flag = "fault",
       .write = [](const RunConfig& c) {
         return json::Value(c.faults.to_string());
       },
       .read = [](const json::Value& v, RunConfig* c) {
         c->faults = v.as_string().empty()
                         ? fault::FaultPlan{}
                         : fault::parse_fault_plan(v.as_string());
       }},
      {.key = "max_vtime_ns", .role = Role::kExperiment, .type = "number",
       .description = "virtual-time budget", .flag = "max-vtime-sec",
       .flag_kind = Flag::kSeconds,
       .write = write_member<&RunConfig::max_virtual_time>,
       .read = read_member<&RunConfig::max_virtual_time>},
      {.key = "max_messages", .role = Role::kExperiment, .type = "number",
       .description = "message-count budget", .bound = Bound::kNonNegative,
       .flag = "max-messages", .flag_kind = Flag::kInteger,
       .write = write_member<&RunConfig::max_messages>,
       .read = read_member<&RunConfig::max_messages>},
      {.key = "max_host_sec", .role = Role::kExperiment, .type = "number",
       .description = "host wall-clock watchdog budget",
       .flag = "max-host-sec", .flag_kind = Flag::kNumber,
       .write = write_member<&RunConfig::max_host_seconds>,
       .read = read_member<&RunConfig::max_host_seconds>},
      {.key = "params", .role = Role::kMethod, .type = "object",
       .description = "inline w_i table for analytical runs (name -> "
                      "sec/iter)",
       .write = [](const RunConfig& c) { return params_to_json(c.params); },
       .read = [](const json::Value& v, RunConfig* c) {
         c->params = params_from_json(v);
       }},
  };
  return kFields;
}

apps::AppSpec app_spec_of(const RunSpec& spec) {
  apps::AppSpec app;
  app.name = spec.app;
  app.options = spec.app_options;
  return app;
}

json::Value run_config_to_json(const RunConfig& config) {
  json::Value out = json::Value::object();
  for (const RunConfigField& f : run_config_fields()) {
    out.set(f.key, f.write(config));
  }
  return out;
}

RunConfig run_config_from_json(const json::Value& v) {
  RunConfig config;
  for (const auto& [key, value] : v.as_object()) {
    if (!apply_config_key(&config, key, value)) {
      throw std::runtime_error("unknown RunConfig key '" + key + "'");
    }
  }
  return config;
}

json::Value run_spec_to_json(const RunSpec& spec) {
  json::Value out = run_config_to_json(spec.config);
  set_canonical_app(&out, spec);
  // `calibrate` describes how w_i params get produced, so it only means
  // something for analytical runs that do not carry them inline. Emitting 0
  // otherwise keeps it out of the digest: a de run swept with
  // "calibrate": 16 must hit the same cache entry as one without, and a
  // resolved analytical run is fully determined by its params.
  const bool calibration_relevant =
      spec.config.mode == Mode::kAnalytical && spec.config.params.empty();
  out.set("calibrate",
          json::Value(calibration_relevant ? spec.calibrate_procs : 0));
  return out;
}

RunSpec run_spec_from_json(const json::Value& v) {
  RunSpec spec;
  for (const auto& [key, value] : v.as_object()) {
    if (key == "schema") {
      // Optional explicit version tag (the canonical dump omits it so
      // digests and cache keys are version-bump events, not per-document
      // bytes). Unknown or future versions are rejected with structure:
      // a newer simulator's document must not be silently misread.
      const std::string& name = value.as_string();
      if (!schema_version_supported(name)) {
        json::Value supported = json::Value::array();
        for (const std::string& s : published_schema_versions()) {
          supported.push_back(json::Value(s));
        }
        json::Value detail = json::Value::object();
        detail.set("requested", json::Value(name));
        detail.set("supported", supported);
        throw errors::StructuredError(
            "usage.unsupported_schema", errors::kCategoryUsage,
            "run-spec schema '" + name +
                "' is not supported by this build (current: " +
                kSimulatorVersion + ")",
            detail);
      }
    } else if (key == "app") {
      spec.app = value.as_string();
    } else if (key == "options") {
      for (const auto& [name, ov] : value.as_object()) {
        spec.app_options[name] = option_to_string(name, ov);
      }
    } else if (key == "calibrate") {
      spec.calibrate_procs = static_cast<int>(value.as_int());
    } else if (!apply_config_key(&spec.config, key, value)) {
      throw std::runtime_error("unknown run-spec key '" + key + "'");
    }
  }
  if (spec.app.empty()) {
    throw std::runtime_error("run spec is missing required key 'app'");
  }
  // Usage errors here, instead of the harness's internal checks later.
  if (spec.config.mode == Mode::kMeasured &&
      (spec.config.threads > 1 ||
       spec.config.schedule != Schedule::kConservative)) {
    throw std::runtime_error(
        "measured mode requires one host worker (workers 0 or 1) and the "
        "conservative schedule");
  }
  // Canonicalize eagerly so a bad app name / option / value fails at parse
  // time, and so to_json(from_json(x)) is already in canonical form.
  spec.app_options = apps::canonical_app_spec(app_spec_of(spec)).options;
  return spec;
}

std::uint64_t run_spec_digest(const RunSpec& spec) {
  return fnv64(run_spec_to_json(spec).dump() + "|" + kSimulatorVersion);
}

std::string run_spec_digest_hex(const RunSpec& spec) {
  return hex16(run_spec_digest(spec));
}

std::uint64_t calibration_digest(const RunSpec& spec) {
  // Only what the calibration run depends on: app (canonical options),
  // machine, seed, and the calibration process count. Target-run fields
  // (procs, workers, budgets, faults) deliberately excluded — every
  // analytical point of a sweep shares one calibration.
  json::Value key = json::Value::object();
  key.set("kind", json::Value("calibration"));
  set_canonical_app(&key, spec);
  key.set("machine", json::Value(machine_spec_string(spec.config.machine)));
  key.set("seed", json::Value(static_cast<double>(spec.config.seed)));
  key.set("procs", json::Value(spec.calibrate_procs));
  return fnv64(key.dump() + "|" + kSimulatorVersion);
}

std::string calibration_digest_hex(const RunSpec& spec) {
  return hex16(calibration_digest(spec));
}

// ---------------------------------------------------------------------------
// RunOutcome serialization

namespace {

json::Value rank_stats_to_json(const smpi::RankStats& s) {
  json::Value out = json::Value::object();
  out.set("compute_ns", json::Value(static_cast<double>(s.compute_time)));
  out.set("comm_ns", json::Value(static_cast<double>(s.comm_time)));
  out.set("sends", json::Value(static_cast<double>(s.sends)));
  out.set("recvs", json::Value(static_cast<double>(s.recvs)));
  out.set("collectives", json::Value(static_cast<double>(s.collectives)));
  out.set("delays", json::Value(static_cast<double>(s.delays)));
  out.set("bytes_sent", json::Value(static_cast<double>(s.bytes_sent)));
  return out;
}

smpi::RankStats rank_stats_from_json(const json::Value& v) {
  smpi::RankStats s;
  s.compute_time = static_cast<VTime>(v.at("compute_ns").as_number());
  s.comm_time = static_cast<VTime>(v.at("comm_ns").as_number());
  s.sends = static_cast<std::uint64_t>(v.at("sends").as_number());
  s.recvs = static_cast<std::uint64_t>(v.at("recvs").as_number());
  s.collectives =
      static_cast<std::uint64_t>(v.at("collectives").as_number());
  s.delays = static_cast<std::uint64_t>(v.at("delays").as_number());
  s.bytes_sent = static_cast<std::uint64_t>(v.at("bytes_sent").as_number());
  return s;
}

json::Value hist_to_json(const std::vector<std::uint64_t>& hist) {
  json::Value out = json::Value::array();
  for (const std::uint64_t v : hist) {
    out.push_back(json::Value(static_cast<double>(v)));
  }
  return out;
}

std::vector<std::uint64_t> hist_from_json(const json::Value& v) {
  std::vector<std::uint64_t> out;
  for (const auto& e : v.as_array()) {
    out.push_back(static_cast<std::uint64_t>(e.as_number()));
  }
  return out;
}

RunStatus parse_run_status(const std::string& name) {
  for (const RunStatus s :
       {RunStatus::kOk, RunStatus::kOutOfMemory, RunStatus::kDeadlock,
        RunStatus::kBudgetExceeded, RunStatus::kInternalError}) {
    if (name == run_status_name(s)) return s;
  }
  throw std::runtime_error("unknown run status '" + name + "'");
}

}  // namespace

json::Value outcome_to_json(const RunOutcome& outcome) {
  json::Value out = json::Value::object();
  out.set("status", json::Value(run_status_name(outcome.status)));
  out.set("diagnostic", json::Value(outcome.diagnostic));
  out.set("nprocs", json::Value(outcome.nprocs));
  out.set("predicted_ns",
          json::Value(static_cast<double>(outcome.predicted_time)));
  json::Value per_rank = json::Value::array();
  for (const VTime t : outcome.per_rank) {
    per_rank.push_back(json::Value(static_cast<double>(t)));
  }
  out.set("per_rank_ns", per_rank);
  out.set("messages", json::Value(static_cast<double>(outcome.messages)));
  out.set("slices", json::Value(static_cast<double>(outcome.slices)));
  out.set("peak_target_bytes",
          json::Value(static_cast<double>(outcome.peak_target_bytes)));
  out.set("sim_host_seconds", json::Value(outcome.sim_host_seconds));
  out.set("stats", rank_stats_to_json(outcome.stats));
  json::Value per_rank_stats = json::Value::array();
  for (const auto& s : outcome.per_rank_stats) {
    per_rank_stats.push_back(rank_stats_to_json(s));
  }
  out.set("per_rank_stats", per_rank_stats);

  json::Value metrics = json::Value::object();
  json::Value scalars = json::Value::object();
  for (const auto& [name, value] : outcome.metrics.scalars) {
    scalars.set(name, json::Value(value));
  }
  metrics.set("scalars", scalars);
  metrics.set("msg_size_hist", hist_to_json(outcome.metrics.msg_size_hist));
  metrics.set("window_advance_hist",
              hist_to_json(outcome.metrics.window_advance_hist));
  metrics.set("rollback_depth_hist",
              hist_to_json(outcome.metrics.rollback_depth_hist));
  metrics.set("hop_hist", hist_to_json(outcome.metrics.hop_hist));
  json::Value links = json::Value::array();
  for (const auto& l : outcome.metrics.links) {
    json::Value link = json::Value::object();
    link.set("name", json::Value(l.name));
    link.set("messages", json::Value(static_cast<double>(l.messages)));
    link.set("bytes", json::Value(static_cast<double>(l.bytes)));
    links.push_back(link);
  }
  metrics.set("links", links);
  out.set("metrics", metrics);

  out.set("digest", json::Value(run_digest_hex(outcome)));
  return out;
}

RunOutcome outcome_from_json(const json::Value& v) {
  RunOutcome out;
  out.status = parse_run_status(v.at("status").as_string());
  out.diagnostic = v.at("diagnostic").as_string();
  out.nprocs = static_cast<int>(v.at("nprocs").as_int());
  out.predicted_time = static_cast<VTime>(v.at("predicted_ns").as_number());
  for (const auto& t : v.at("per_rank_ns").as_array()) {
    out.per_rank.push_back(static_cast<VTime>(t.as_number()));
  }
  out.messages = static_cast<std::uint64_t>(v.at("messages").as_number());
  out.slices = static_cast<std::uint64_t>(v.at("slices").as_number());
  out.peak_target_bytes =
      static_cast<std::size_t>(v.at("peak_target_bytes").as_number());
  out.sim_host_seconds = v.at("sim_host_seconds").as_number();
  out.stats = rank_stats_from_json(v.at("stats"));
  for (const auto& s : v.at("per_rank_stats").as_array()) {
    out.per_rank_stats.push_back(rank_stats_from_json(s));
  }
  const json::Value& metrics = v.at("metrics");
  for (const auto& [name, value] : metrics.at("scalars").as_object()) {
    out.metrics.add(name, value.as_number());
  }
  out.metrics.msg_size_hist = hist_from_json(metrics.at("msg_size_hist"));
  out.metrics.window_advance_hist =
      hist_from_json(metrics.at("window_advance_hist"));
  if (const json::Value* h = metrics.find("rollback_depth_hist")) {
    out.metrics.rollback_depth_hist = hist_from_json(*h);
  }
  out.metrics.hop_hist = hist_from_json(metrics.at("hop_hist"));
  for (const auto& l : metrics.at("links").as_array()) {
    out.metrics.links.push_back(
        {l.at("name").as_string(),
         static_cast<std::uint64_t>(l.at("messages").as_number()),
         static_cast<std::uint64_t>(l.at("bytes").as_number())});
  }
  out.metrics.nranks = out.nprocs;
  return out;
}

// ---------------------------------------------------------------------------
// Published JSON Schemas (`stgsim schema`)

namespace {

json::Value schema_type(const char* type, const char* description = nullptr) {
  json::Value t = json::Value::object();
  t.set("type", json::Value(type));
  if (description != nullptr) t.set("description", json::Value(description));
  return t;
}

json::Value schema_enum(const std::vector<std::string>& values,
                        const char* description) {
  json::Value t = schema_type("string", description);
  json::Value e = json::Value::array();
  for (const std::string& v : values) e.push_back(json::Value(v));
  t.set("enum", e);
  return t;
}

json::Value schema_required(std::initializer_list<const char*> keys) {
  json::Value r = json::Value::array();
  for (const char* k : keys) r.push_back(json::Value(k));
  return r;
}

json::Value number_array_schema(const char* description) {
  json::Value t = schema_type("array", description);
  t.set("items", schema_type("number"));
  return t;
}

}  // namespace

json::Value run_spec_schema_json() {
  json::Value props = json::Value::object();
  props.set("schema",
            schema_enum(published_schema_versions(),
                        "optional explicit schema version; unknown versions "
                        "are rejected with a structured error"));
  props.set("app", schema_type("string", "app registry name"));
  {
    json::Value opts = schema_type(
        "object", "app options; values are strings, numbers or bools");
    opts.set("additionalProperties", json::Value(true));
    props.set("options", opts);
  }
  for (const RunConfigField& f : run_config_fields()) {
    json::Value t = f.choices.empty() ? schema_type(f.type, f.description)
                                      : schema_enum(f.choices, f.description);
    // The one object-typed field (params) maps names to numbers.
    if (std::string(f.type) == "object") {
      t.set("additionalProperties", schema_type("number"));
    }
    props.set(f.key, t);
  }
  props.set("calibrate",
            schema_type("integer",
                        "calibration process count for analytical runs "
                        "without inline params (0 = none)"));

  json::Value schema = json::Value::object();
  schema.set("$id", json::Value(std::string(kSimulatorVersion) + "/run-spec"));
  schema.set("title", json::Value("stgsim RunSpec"));
  schema.set("description",
             json::Value("One fully-described simulation run. Canonical form "
                         "(defaults resolved, keys sorted) plus "
                         "kSimulatorVersion digests to the campaign cache "
                         "key. Unknown keys are rejected."));
  schema.set("type", json::Value("object"));
  schema.set("properties", props);
  schema.set("required", schema_required({"app"}));
  schema.set("additionalProperties", json::Value(false));
  return schema;
}

json::Value run_outcome_schema_json() {
  json::Value rank_stats = json::Value::object();
  rank_stats.set("type", json::Value("object"));
  {
    json::Value sp = json::Value::object();
    for (const char* k : {"compute_ns", "comm_ns", "sends", "recvs",
                          "collectives", "delays", "bytes_sent"}) {
      sp.set(k, schema_type("number"));
    }
    rank_stats.set("properties", sp);
    rank_stats.set("required",
                   schema_required({"compute_ns", "comm_ns", "sends", "recvs",
                                    "collectives", "delays", "bytes_sent"}));
  }

  json::Value props = json::Value::object();
  props.set("status",
            schema_enum({"ok", "out_of_memory", "deadlock", "budget_exceeded",
                         "internal_error"},
                        "RunOutcome status taxonomy"));
  props.set("diagnostic",
            schema_type("string", "failure description (empty when ok)"));
  props.set("nprocs", schema_type("integer"));
  props.set("predicted_ns",
            schema_type("number", "predicted target execution time"));
  props.set("per_rank_ns", number_array_schema("final clock per rank"));
  props.set("messages", schema_type("number"));
  props.set("slices", schema_type("number"));
  props.set("peak_target_bytes", schema_type("number"));
  props.set("sim_host_seconds",
            schema_type("number",
                        "simulator wall-clock (host-dependent; excluded from "
                        "digests and deterministic reports)"));
  props.set("stats", rank_stats);
  {
    json::Value prs = schema_type("array", "per-rank protocol counters");
    prs.set("items", rank_stats);
    props.set("per_rank_stats", prs);
  }
  {
    json::Value metrics = schema_type(
        "object", "deterministic observability counters and histograms");
    json::Value mp = json::Value::object();
    json::Value scalars = schema_type("object");
    scalars.set("additionalProperties", schema_type("number"));
    mp.set("scalars", scalars);
    mp.set("msg_size_hist", number_array_schema("log2 message-size buckets"));
    mp.set("window_advance_hist", number_array_schema(nullptr));
    mp.set("rollback_depth_hist", number_array_schema(nullptr));
    mp.set("hop_hist", number_array_schema(nullptr));
    {
      json::Value link = json::Value::object();
      link.set("type", json::Value("object"));
      json::Value lp = json::Value::object();
      lp.set("name", schema_type("string"));
      lp.set("messages", schema_type("number"));
      lp.set("bytes", schema_type("number"));
      link.set("properties", lp);
      json::Value links = schema_type("array", "per-link utilization");
      links.set("items", link);
      mp.set("links", links);
    }
    metrics.set("properties", mp);
    props.set("metrics", metrics);
  }
  props.set("digest",
            schema_type("string",
                        "64-bit run digest (hex): bit-identity contract "
                        "across schedulers and hosts"));

  json::Value schema = json::Value::object();
  schema.set("$id",
             json::Value(std::string(kSimulatorVersion) + "/run-outcome"));
  schema.set("title", json::Value("stgsim RunOutcome"));
  schema.set("description",
             json::Value("How a run ended, in the form campaign reports and "
                         "serve responses embed. Round-trips everything "
                         "reports and digests need; host trace excluded."));
  schema.set("type", json::Value("object"));
  schema.set("properties", props);
  schema.set("required",
             schema_required({"status", "diagnostic", "nprocs", "predicted_ns",
                              "per_rank_ns", "messages", "slices",
                              "peak_target_bytes", "sim_host_seconds", "stats",
                              "per_rank_stats", "metrics", "digest"}));
  schema.set("additionalProperties", json::Value(false));
  return schema;
}

}  // namespace stgsim::harness
