#include "campaign/scenario.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

namespace stgsim::campaign {

namespace {

/// One sweep axis: the (possibly nested) key and its values in file order.
struct Axis {
  std::string key;       ///< run-spec key, or "options.<name>"
  json::Value::Array values;
};

/// Merges `overrides` on top of `base` (one level deep for "options").
json::Value merge_point(const json::Value& base, const json::Value& overrides) {
  json::Value out = base;
  for (const auto& [key, value] : overrides.as_object()) {
    if (key == "options" && out.has("options")) {
      json::Value opts = out.at("options");
      for (const auto& [name, ov] : value.as_object()) opts.set(name, ov);
      out.set("options", opts);
    } else {
      out.set(key, value);
    }
  }
  return out;
}

void set_nested(json::Value* point, const std::string& key,
                const json::Value& value) {
  if (key.rfind("options.", 0) == 0) {
    json::Value opts =
        point->has("options") ? point->at("options") : json::Value::object();
    opts.set(key.substr(8), value);
    point->set("options", opts);
  } else {
    point->set(key, value);
  }
}

/// Splits a sweep object into its scalar part and its array-valued axes.
/// Axes come out in sorted key order (json::Value objects are sorted), so
/// the cross product below is deterministic.
void split_axes(const json::Value& sweep, json::Value* scalars,
                std::vector<Axis>* axes) {
  *scalars = json::Value::object();
  for (const auto& [key, value] : sweep.as_object()) {
    if (value.is_array()) {
      if (value.as_array().empty()) {
        throw std::runtime_error("sweep axis '" + key + "' is empty");
      }
      axes->push_back(Axis{key, value.as_array()});
    } else if (key == "options") {
      json::Value scalar_opts = json::Value::object();
      for (const auto& [name, ov] : value.as_object()) {
        if (ov.is_array()) {
          if (ov.as_array().empty()) {
            throw std::runtime_error("sweep axis 'options." + name +
                                     "' is empty");
          }
          axes->push_back(Axis{"options." + name, ov.as_array()});
        } else {
          scalar_opts.set(name, ov);
        }
      }
      scalars->set("options", scalar_opts);
    } else {
      scalars->set(key, value);
    }
  }
}

/// Short tag for run ids: app, procs, mode — enough to make ids readable;
/// the numeric prefix makes them unique.
std::string run_tag(const harness::RunSpec& spec) {
  return spec.app + "-p" + std::to_string(spec.config.nprocs) + "-" +
         harness::mode_key(spec.config.mode);
}

void validate_spec(const harness::RunSpec& spec, const std::string& where) {
  const harness::RunConfig& c = spec.config;
  if (c.mode == harness::Mode::kMeasured && c.threads > 1) {
    throw std::runtime_error(
        where + ": measured mode requires one host worker (workers 0 or 1)");
  }
  if (c.mode == harness::Mode::kAnalytical && c.params.empty() &&
      spec.calibrate_procs <= 0) {
    throw std::runtime_error(
        where +
        ": analytical runs need either inline \"params\" or a \"calibrate\" "
        "process count");
  }
  if (c.threads < 0) {
    throw std::runtime_error(where + ": workers must be >= 0");
  }
}

}  // namespace

Scenario parse_scenario(const json::Value& doc) {
  Scenario out;
  json::Value defaults = json::Value::object();
  const json::Value* sweeps = nullptr;
  const json::Value* runs = nullptr;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "name") {
      out.name = value.as_string();
    } else if (key == "defaults") {
      defaults = value;
      (void)defaults.as_object();
    } else if (key == "sweeps") {
      sweeps = &value;
    } else if (key == "runs") {
      runs = &value;
    } else {
      throw std::runtime_error(
          "unknown scenario key '" + key +
          "' (expected name, defaults, sweeps, runs)");
    }
  }
  if (out.name.empty()) {
    throw std::runtime_error("scenario is missing required key 'name'");
  }
  if (sweeps == nullptr && runs == nullptr) {
    throw std::runtime_error("scenario has neither 'sweeps' nor 'runs'");
  }

  // Expand into point documents (deterministic order).
  std::vector<json::Value> points;
  if (runs != nullptr) {
    for (const auto& r : runs->as_array()) {
      points.push_back(merge_point(defaults, r));
    }
  }
  if (sweeps != nullptr) {
    for (const auto& sweep : sweeps->as_array()) {
      json::Value scalars = json::Value::object();
      std::vector<Axis> axes;
      split_axes(sweep, &scalars, &axes);
      const json::Value base = merge_point(defaults, scalars);
      // Odometer over the axes; the last (sorted) axis varies fastest.
      std::vector<std::size_t> idx(axes.size(), 0);
      bool done = false;
      while (!done) {
        json::Value point = base;
        for (std::size_t a = 0; a < axes.size(); ++a) {
          set_nested(&point, axes[a].key, axes[a].values[idx[a]]);
        }
        points.push_back(std::move(point));
        done = true;
        for (std::size_t a = axes.size(); a-- > 0;) {
          if (++idx[a] < axes[a].values.size()) {
            done = false;
            break;
          }
          idx[a] = 0;
        }
      }
    }
  }

  // Parse points into RunSpecs, wiring calibration dependencies.
  std::map<std::string, int> calib_by_digest;
  std::string expansion;  // canonical dumps, for the scenario digest
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string where = "run " + std::to_string(i);
    harness::RunSpec spec;
    try {
      spec = harness::run_spec_from_json(points[i]);
    } catch (const std::exception& e) {
      throw std::runtime_error(where + ": " + e.what());
    }
    validate_spec(spec, where);

    CampaignRun run;
    run.spec = spec;
    char prefix[24];
    std::snprintf(prefix, sizeof(prefix), "%03zu", i);
    run.id = std::string(prefix) + "-" + run_tag(spec);

    if (spec.config.mode == harness::Mode::kAnalytical &&
        spec.config.params.empty()) {
      const std::string digest = harness::calibration_digest_hex(spec);
      auto [it, inserted] =
          calib_by_digest.emplace(digest, out.calibrations.size());
      if (inserted) {
        CalibrationJob job;
        job.spec = spec;
        job.digest_hex = digest;
        job.id = "calib-" + spec.app + "-p" +
                 std::to_string(spec.calibrate_procs) + "-" +
                 std::to_string(out.calibrations.size());
        out.calibrations.push_back(std::move(job));
      }
      run.calibration = it->second;
    }

    expansion += harness::run_spec_to_json(spec).dump();
    expansion.push_back('\n');
    out.runs.push_back(std::move(run));
  }

  // FNV-1a over the canonical expansion + simulator version.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  mix(expansion);
  mix(harness::kSimulatorVersion);
  static const char* digits = "0123456789abcdef";
  out.digest_hex.assign(16, '0');
  for (int i = 15; i >= 0; --i) {
    out.digest_hex[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return out;
}

Scenario parse_scenario_text(const std::string& text) {
  return parse_scenario(json::Value::parse(text));
}

}  // namespace stgsim::campaign
