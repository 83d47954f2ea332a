#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "campaign/exec.hpp"
#include "campaign/executor.hpp"
#include "fault/fault.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "obs/obs.hpp"
#include "support/json.hpp"

namespace stgsim::campaign {

namespace {

/// Runs fn(0..n-1) on up to `jobs` host threads, pulling indices from a
/// shared counter. fn must not throw (every call site catches internally:
/// one bad run must not take the pool down).
void for_each_parallel(int jobs, std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(jobs, 1)), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  for (auto& t : pool) t.join();
}

harness::RunOutcome failure_outcome(const harness::RunSpec& spec,
                                    const std::string& diagnostic) {
  harness::RunOutcome out;
  out.status = harness::RunStatus::kInternalError;
  out.diagnostic = diagnostic;
  out.nprocs = spec.config.nprocs;
  return out;
}

/// RFC-4180 field quoting; only quotes when the field needs it so simple
/// rows stay grep-friendly.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string options_string(const std::map<std::string, std::string>& opts) {
  std::string out;
  for (const auto& [k, v] : opts) {
    if (!out.empty()) out += ";";
    out += k + "=" + v;
  }
  return out;
}

/// Grouping key for measured-vs-predicted comparisons: the canonical spec
/// without the prediction-method fields (and "calibrate", which feeds
/// params) and the host-side fields, which never change simulated results.
/// Runs sharing a key predict the same experiment by different methods.
std::string comparison_key(const harness::RunSpec& spec) {
  json::Value doc = harness::run_spec_to_json(spec);
  json::Value::Object& fields = doc.as_object();
  for (const harness::RunConfigField& f : harness::run_config_fields()) {
    if (f.role != harness::RunConfigField::Role::kExperiment) {
      fields.erase(f.key);
    }
  }
  fields.erase("calibrate");
  return doc.dump();
}

}  // namespace

CampaignResult run_campaign(const Scenario& scenario,
                            const CampaignOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();

  // Campaigns execute through a (possibly shared) Executor so the serve
  // daemon's concurrent campaigns dedup against each other; standalone
  // invocations build a private one with the same cache contract.
  std::unique_ptr<Executor> owned;
  Executor* exec = options.executor;
  if (exec == nullptr) {
    Executor::Options eo;
    eo.cache_dir = options.cache_dir;
    eo.with_metrics = options.with_metrics;
    owned = std::make_unique<Executor>(std::move(eo));
    exec = owned.get();
  }
  const ResultCache& cache = exec->cache();

  CampaignResult result;
  result.name = scenario.name;
  result.scenario_digest = scenario.digest_hex;
  result.runs.resize(scenario.runs.size());

  // Progress hook plumbing: one serialized callback per finalized run.
  std::mutex progress_mu;
  std::size_t progress_done = 0;
  auto notify_done = [&](const RunReport& report) {
    if (!options.on_run_done) return;
    std::lock_guard lk(progress_mu);
    options.on_run_done(report, ++progress_done, result.runs.size());
  };

  // ---- Phase 1: calibrations (deduplicated; most analytical runs share
  // one). A failed calibration poisons its dependents with a structured
  // kInternalError outcome instead of aborting the campaign.
  const std::size_t ncal = scenario.calibrations.size();
  std::vector<std::map<std::string, double>> calib_params(ncal);
  std::vector<std::string> calib_error(ncal);
  std::vector<Executor::Source> calib_source(ncal, Executor::Source::kExecuted);
  for_each_parallel(options.jobs, ncal, [&](std::size_t i) {
    try {
      calib_params[i] =
          exec->calibration(scenario.calibrations[i].spec, &calib_source[i]);
    } catch (const std::exception& e) {
      calib_error[i] = e.what();
    }
  });
  for (std::size_t i = 0; i < ncal; ++i) {
    if (!calib_error[i].empty()) continue;
    // A concurrent campaign's measurement (kDedupJoined) counts as cached:
    // this campaign did not run it.
    if (calib_source[i] == Executor::Source::kExecuted) {
      ++result.calibrations_run;
    } else {
      ++result.calibrations_cached;
    }
  }

  // ---- Phase 2a: resolve every run, digest it, and probe the cache.
  const std::size_t nruns = scenario.runs.size();
  std::vector<char> needs_exec(nruns, 0);
  for_each_parallel(options.jobs, nruns, [&](std::size_t i) {
    const CampaignRun& run = scenario.runs[i];
    RunReport& report = result.runs[i];
    report.id = run.id;
    report.resolved = run.spec;

    if (run.calibration >= 0 && !calib_error[run.calibration].empty()) {
      report.outcome = failure_outcome(
          run.spec, "calibration failed: " + calib_error[run.calibration]);
      notify_done(report);
      return;
    }
    try {
      const std::map<std::string, double>* params =
          run.calibration >= 0 ? &calib_params[run.calibration] : nullptr;
      report.resolved = resolve_spec(run.spec, params);
    } catch (const std::exception& e) {
      report.outcome = failure_outcome(run.spec, e.what());
      notify_done(report);
      return;
    }
    report.digest_hex = harness::run_spec_digest_hex(report.resolved);

    if (auto doc = cache.load(report.digest_hex)) {
      try {
        harness::RunOutcome cached =
            harness::outcome_from_json(doc->at("outcome"));
        if (!options.retry_failed || cached.ok()) {
          report.outcome = std::move(cached);
          report.cache_hit = true;
          notify_done(report);
          return;
        }
      } catch (const std::exception&) {
        // Malformed entry: treat as a miss.
      }
    }
    needs_exec[i] = 1;
  });

  // ---- Phase 2b: execute unique digests (duplicate sweep points simulate
  // once), in first-appearance order for a deterministic work list. The
  // Executor's in-flight map additionally dedups against runs another
  // campaign or serve client is executing right now.
  std::map<std::string, std::vector<std::size_t>> by_digest;
  std::vector<std::string> exec_order;
  for (std::size_t i = 0; i < nruns; ++i) {
    if (!needs_exec[i]) continue;
    auto [it, inserted] = by_digest.emplace(result.runs[i].digest_hex,
                                            std::vector<std::size_t>{});
    if (inserted) exec_order.push_back(result.runs[i].digest_hex);
    it->second.push_back(i);
  }
  std::vector<Executor::Result> exec_results(exec_order.size());
  std::atomic<std::size_t> we_executed{0};
  for_each_parallel(options.jobs, exec_order.size(), [&](std::size_t j) {
    const std::vector<std::size_t>& members = by_digest[exec_order[j]];
    const RunReport& lead = result.runs[members.front()];
    try {
      exec_results[j] = exec->run_resolved(lead.resolved, options.retry_failed);
    } catch (const std::exception& e) {
      exec_results[j].digest_hex = lead.digest_hex;
      exec_results[j].outcome = failure_outcome(lead.resolved, e.what());
      exec_results[j].source = Executor::Source::kExecuted;
    }
    if (exec_results[j].source == Executor::Source::kExecuted) {
      we_executed.fetch_add(1, std::memory_order_relaxed);
    }
    for (const std::size_t i : members) {
      result.runs[i].outcome = exec_results[j].outcome;
      notify_done(result.runs[i]);
    }
  });
  // Unique digests this campaign simulated itself; a digest served by a
  // concurrent execution (kDedupJoined) or stored between probe and
  // execute (kCacheHit) was not our work.
  result.executed = we_executed.load();
  for (const RunReport& r : result.runs) {
    if (r.cache_hit) ++result.cache_hits;
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

json::Value report_json(const CampaignResult& result) {
  json::Value doc = json::Value::object();
  doc.set("campaign", result.name);
  doc.set("scenario_digest", result.scenario_digest);
  doc.set("simulator_version", harness::kSimulatorVersion);

  // Per-run records, scenario order. Host wall-clock (sim_host_seconds) is
  // deliberately absent: the report must be a pure function of the
  // simulated results.
  json::Value runs = json::Value::array();
  std::map<std::string, std::int64_t> status_counts;
  obs::MetricsSnapshot rollup;
  for (const RunReport& r : result.runs) {
    json::Value entry = json::Value::object();
    entry.set("id", r.id);
    entry.set("digest", r.digest_hex);
    entry.set("spec", harness::run_spec_to_json(r.resolved));
    entry.set("status", harness::run_status_name(r.outcome.status));
    if (!r.outcome.diagnostic.empty()) {
      entry.set("diagnostic", r.outcome.diagnostic);
    }
    entry.set("predicted_ns", static_cast<std::int64_t>(r.outcome.predicted_time));
    entry.set("messages", r.outcome.messages);
    entry.set("slices", r.outcome.slices);
    entry.set("peak_target_bytes",
              static_cast<std::uint64_t>(r.outcome.peak_target_bytes));
    entry.set("run_digest", harness::run_digest_hex(r.outcome));
    runs.push_back(std::move(entry));

    ++status_counts[harness::run_status_name(r.outcome.status)];
    obs::merge_metrics(&rollup, r.outcome.metrics);
  }
  doc.set("runs", std::move(runs));

  json::Value counts = json::Value::object();
  for (const auto& [name, n] : status_counts) counts.set(name, n);
  doc.set("status_counts", std::move(counts));

  // Measured-vs-predicted comparisons (the paper's validation figures):
  // runs that share everything but the prediction method, grouped against
  // their measured baseline.
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::string> group_order;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const std::string key = comparison_key(result.runs[i].resolved);
    auto [it, inserted] = groups.emplace(key, std::vector<std::size_t>{});
    if (inserted) group_order.push_back(key);
    it->second.push_back(i);
  }
  json::Value comparisons = json::Value::array();
  for (const std::string& key : group_order) {
    const std::vector<std::size_t>& members = groups[key];
    const RunReport* baseline = nullptr;
    for (const std::size_t i : members) {
      const RunReport& r = result.runs[i];
      if (r.resolved.config.mode == harness::Mode::kMeasured &&
          r.outcome.ok()) {
        baseline = &r;
        break;
      }
    }
    if (baseline == nullptr || members.size() < 2) continue;
    json::Value group = json::Value::object();
    group.set("app", baseline->resolved.app);
    group.set("procs", baseline->resolved.config.nprocs);
    group.set("machine",
              harness::machine_spec_string(baseline->resolved.config.machine));
    group.set("measured_ns",
              static_cast<std::int64_t>(baseline->outcome.predicted_time));
    json::Value entries = json::Value::array();
    for (const std::size_t i : members) {
      const RunReport& r = result.runs[i];
      if (&r == baseline) continue;
      json::Value e = json::Value::object();
      e.set("id", r.id);
      e.set("mode", harness::mode_key(r.resolved.config.mode));
      e.set("workers", r.resolved.config.threads);
      if (r.resolved.config.abstract_comm) e.set("abstract_comm", true);
      if (r.resolved.config.schedule == harness::Schedule::kOptimistic) {
        e.set("schedule", harness::schedule_name(r.resolved.config.schedule));
      }
      e.set("status", harness::run_status_name(r.outcome.status));
      e.set("predicted_ns",
            static_cast<std::int64_t>(r.outcome.predicted_time));
      if (r.outcome.ok() && baseline->outcome.predicted_time > 0) {
        const double err =
            100.0 *
            (static_cast<double>(r.outcome.predicted_time) -
             static_cast<double>(baseline->outcome.predicted_time)) /
            static_cast<double>(baseline->outcome.predicted_time);
        e.set("error_pct", err);
      }
      entries.push_back(std::move(e));
    }
    group.set("predictions", std::move(entries));
    comparisons.push_back(std::move(group));
  }
  doc.set("comparisons", std::move(comparisons));

  // Campaign-wide metrics rollup (deterministic counters only).
  json::Value metrics = json::Value::object();
  json::Value scalars = json::Value::object();
  for (const auto& [name, value] : rollup.scalars) scalars.set(name, value);
  metrics.set("scalars", std::move(scalars));
  json::Value hist = json::Value::array();
  for (const std::uint64_t b : rollup.msg_size_hist) hist.push_back(b);
  metrics.set("msg_size_hist", std::move(hist));
  doc.set("metrics", std::move(metrics));
  return doc;
}

std::string report_csv(const CampaignResult& result) {
  // Baselines for the error column, same grouping as report_json.
  std::map<std::string, const RunReport*> baselines;
  for (const RunReport& r : result.runs) {
    if (r.resolved.config.mode != harness::Mode::kMeasured || !r.outcome.ok())
      continue;
    baselines.emplace(comparison_key(r.resolved), &r);
  }

  std::string out =
      "id,app,options,procs,mode,machine,workers,seed,fault,status,"
      "predicted_sec,error_vs_measured_pct,messages,slices,peak_mb,digest\n";
  for (const RunReport& r : result.runs) {
    const harness::RunConfig& c = r.resolved.config;
    out += csv_field(r.id);
    out += ',';
    out += csv_field(r.resolved.app);
    out += ',';
    out += csv_field(options_string(r.resolved.app_options));
    out += ',';
    out += std::to_string(c.nprocs);
    out += ',';
    out += harness::mode_key(c.mode);
    out += ',';
    out += csv_field(harness::machine_spec_string(c.machine));
    out += ',';
    out += std::to_string(c.threads);
    out += ',';
    out += std::to_string(c.seed);
    out += ',';
    out += csv_field(c.faults.to_string());
    out += ',';
    out += harness::run_status_name(r.outcome.status);
    out += ',';
    out += json::format_double(vtime_to_sec(r.outcome.predicted_time));
    out += ',';
    if (c.mode != harness::Mode::kMeasured && r.outcome.ok()) {
      auto it = baselines.find(comparison_key(r.resolved));
      if (it != baselines.end() && it->second->outcome.predicted_time > 0) {
        const double base =
            static_cast<double>(it->second->outcome.predicted_time);
        out += json::format_double(
            100.0 * (static_cast<double>(r.outcome.predicted_time) - base) /
            base);
      }
    }
    out += ',';
    out += std::to_string(r.outcome.messages);
    out += ',';
    out += std::to_string(r.outcome.slices);
    out += ',';
    out += json::format_double(static_cast<double>(r.outcome.peak_target_bytes) /
                               (1024.0 * 1024.0));
    out += ',';
    out += r.digest_hex;
    out += '\n';
  }
  return out;
}

json::Value manifest_json(const CampaignResult& result,
                          const CampaignOptions& options) {
  json::Value doc = json::Value::object();
  doc.set("campaign", result.name);
  doc.set("scenario_digest", result.scenario_digest);
  doc.set("simulator_version", harness::kSimulatorVersion);
  doc.set("jobs", options.jobs);
  doc.set("cache_dir", options.cache_dir);
  doc.set("wall_seconds", result.wall_seconds);
  doc.set("cache_hits", static_cast<std::int64_t>(result.cache_hits));
  doc.set("executed", static_cast<std::int64_t>(result.executed));
  doc.set("calibrations_run",
          static_cast<std::int64_t>(result.calibrations_run));
  doc.set("calibrations_cached",
          static_cast<std::int64_t>(result.calibrations_cached));
  json::Value runs = json::Value::array();
  for (const RunReport& r : result.runs) {
    json::Value e = json::Value::object();
    e.set("id", r.id);
    e.set("digest", r.digest_hex);
    e.set("cache_hit", r.cache_hit);
    runs.push_back(std::move(e));
  }
  doc.set("runs", std::move(runs));
  return doc;
}

void write_reports(const CampaignResult& result,
                   const CampaignOptions& options) {
  namespace fs = std::filesystem;
  if (options.out_dir.empty()) return;
  std::error_code ec;
  fs::create_directories(options.out_dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create output directory '" +
                             options.out_dir + "': " + ec.message());
  }
  auto write_file = [&](const char* name, const std::string& body) {
    const std::string path = (fs::path(options.out_dir) / name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
    out << body;
  };
  write_file("report.json", report_json(result).dump(2) + "\n");
  write_file("report.csv", report_csv(result));
  write_file("campaign.json", manifest_json(result, options).dump(2) + "\n");
}

}  // namespace stgsim::campaign
