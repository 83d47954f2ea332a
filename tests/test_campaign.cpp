// Tests for the campaign subsystem: scenario expansion, the
// content-addressed result cache (hit / miss / invalidation / resume), the
// determinism contract of the aggregate reports, and the equivalence of
// campaign-executed runs with direct harness runs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "campaign/cache.hpp"
#include "campaign/exec.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "core/compiler.hpp"
#include "harness/digest.hpp"
#include "harness/runner.hpp"

namespace stgsim {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("stgsim-test-" + tag + "-" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string sub(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

/// Small, fast scenario: sample app, measured + de + am across two sizes,
/// one shared calibration.
json::Value small_scenario() {
  return json::Value::parse(R"({
    "name": "test-campaign",
    "defaults": {"machine": "ibm_sp", "seed": 11},
    "sweeps": [
      {
        "app": "sample",
        "options": {"iters": 3, "work": 2000},
        "procs": [2, 4],
        "mode": ["measured", "de", "am"],
        "calibrate": 2
      }
    ]
  })");
}

// ---------------------------------------------------------------------------
// Scenario expansion
// ---------------------------------------------------------------------------

TEST(Scenario, ExpandsCrossProductDeterministically) {
  const campaign::Scenario s = campaign::parse_scenario(small_scenario());
  EXPECT_EQ(s.name, "test-campaign");
  ASSERT_EQ(s.runs.size(), 6u);
  // Axes iterate in sorted key order (mode before procs), values in file
  // order, so the expansion order is fixed.
  EXPECT_EQ(s.runs[0].id, "000-sample-p2-measured");
  EXPECT_EQ(s.runs[1].id, "001-sample-p4-measured");
  EXPECT_EQ(s.runs[2].id, "002-sample-p2-de");
  EXPECT_EQ(s.runs[5].id, "005-sample-p4-am");
  // One deduplicated calibration, referenced by both am runs.
  ASSERT_EQ(s.calibrations.size(), 1u);
  EXPECT_EQ(s.runs[4].calibration, 0);
  EXPECT_EQ(s.runs[5].calibration, 0);
  EXPECT_EQ(s.runs[0].calibration, -1);
  // Same document → same scenario digest.
  EXPECT_EQ(campaign::parse_scenario(small_scenario()).digest_hex,
            s.digest_hex);
}

TEST(Scenario, DefaultsMergeAndExplicitRunsJoinSweeps) {
  const json::Value doc = json::Value::parse(R"({
    "name": "mix",
    "defaults": {"app": "sample", "seed": 3, "options": {"work": 1000}},
    "runs": [ {"procs": 2, "mode": "de", "options": {"iters": 2}} ],
    "sweeps": [ {"procs": [2], "mode": ["de"]} ]
  })");
  const campaign::Scenario s = campaign::parse_scenario(doc);
  ASSERT_EQ(s.runs.size(), 2u);
  // Explicit runs come first; one-level option merge keeps the default.
  EXPECT_EQ(s.runs[0].spec.app_options.at("work"), "1000");
  EXPECT_EQ(s.runs[0].spec.app_options.at("iters"), "2");
  EXPECT_EQ(s.runs[0].spec.config.seed, 3u);
}

TEST(Scenario, SchemaViolationsAreStructuredErrors) {
  // Unknown top-level key.
  EXPECT_THROW(campaign::parse_scenario(json::Value::parse(
                   R"({"name":"x","swoops":[]})")),
               std::runtime_error);
  // Missing name.
  EXPECT_THROW(
      campaign::parse_scenario(json::Value::parse(R"({"sweeps":[]})")),
      std::runtime_error);
  // Empty sweep axis.
  EXPECT_THROW(campaign::parse_scenario(json::Value::parse(
                   R"({"name":"x","sweeps":[{"app":"sample","procs":[]}]})")),
               std::runtime_error);
  // Analytical sweep without calibrate or params.
  EXPECT_THROW(
      campaign::parse_scenario(json::Value::parse(
          R"({"name":"x","sweeps":[{"app":"sample","procs":[2],"mode":["am"]}]})")),
      std::runtime_error);
  // Measured mode needs one host worker.
  EXPECT_THROW(
      campaign::parse_scenario(json::Value::parse(
          R"({"name":"x","sweeps":[{"app":"sample","procs":[2],"mode":["measured"],"workers":2}]})")),
      std::runtime_error);
  // Unknown app surfaces with run context.
  EXPECT_THROW(campaign::parse_scenario(json::Value::parse(
                   R"({"name":"x","sweeps":[{"app":"nope","procs":[2]}]})")),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(ResultCache, StoresLoadsAndInvalidates) {
  ScratchDir dir("cache");
  campaign::ResultCache cache(dir.sub("c"));
  EXPECT_FALSE(cache.contains("00ff"));
  EXPECT_FALSE(cache.load("00ff").has_value());

  json::Value doc = json::Value::object();
  doc.set("k", json::Value(1));
  cache.store("00ff", doc);
  EXPECT_TRUE(cache.contains("00ff"));
  ASSERT_TRUE(cache.load("00ff").has_value());
  EXPECT_EQ(*cache.load("00ff"), doc);

  cache.remove("00ff");
  EXPECT_FALSE(cache.contains("00ff"));
}

TEST(ResultCache, CorruptEntriesReadAsMisses) {
  ScratchDir dir("corrupt");
  campaign::ResultCache cache(dir.sub("c"));
  cache.store("dead", json::Value::object());
  // Truncate the entry mid-document.
  std::ofstream(cache.path_for("dead"), std::ios::trunc) << "{\"torn\":";
  EXPECT_FALSE(cache.load("dead").has_value());
}

TEST(ResultCache, FailedFinalizeIsACacheSkipNotAnError) {
  ScratchDir dir("rename-fail");
  campaign::ResultCache cache(dir.sub("c"));
  // Occupy the entry's final path with a non-empty directory so the
  // finalize rename cannot succeed (mirrors a concurrent process or a
  // cache directory going bad mid-campaign).
  fs::create_directories(fs::path(cache.path_for("beef")) / "occupied");
  json::Value doc = json::Value::object();
  doc.set("k", json::Value(2));
  EXPECT_NO_THROW(cache.store("beef", doc));
  // The failed store reads as a miss, and no tmp litter is left behind.
  EXPECT_FALSE(cache.load("beef").has_value());
  for (const auto& e : fs::directory_iterator(cache.dir())) {
    EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
        << e.path();
  }
}

TEST(ResultCache, ConcurrentStoresOfOneKeyNeverTearTheEntry) {
  ScratchDir dir("concurrent");
  campaign::ResultCache cache(dir.sub("c"));
  json::Value doc = json::Value::object();
  doc.set("payload", json::Value(std::string(4096, 'x')));
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) cache.store("cafe", doc);
    });
  }
  for (auto& w : writers) w.join();
  // Every interleaving of pid+counter-suffixed tmp files must finalize to
  // a readable, checksum-valid entry.
  ASSERT_TRUE(cache.load("cafe").has_value());
  EXPECT_EQ(*cache.load("cafe"), doc);
}

// ---------------------------------------------------------------------------
// Campaign execution + caching
// ---------------------------------------------------------------------------

TEST(Campaign, SecondInvocationIsAllCacheHitsWithIdenticalReports) {
  ScratchDir dir("rerun");
  const campaign::Scenario s = campaign::parse_scenario(small_scenario());
  campaign::CampaignOptions opts;
  opts.cache_dir = dir.sub("cache");
  opts.jobs = 2;

  const campaign::CampaignResult first = campaign::run_campaign(s, opts);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.executed, 6u);
  EXPECT_EQ(first.calibrations_run, 1u);
  for (const auto& r : first.runs) {
    EXPECT_TRUE(r.outcome.ok()) << r.id << ": " << r.outcome.diagnostic;
  }

  const campaign::CampaignResult second = campaign::run_campaign(s, opts);
  EXPECT_EQ(second.cache_hits, 6u);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.calibrations_run, 0u);
  EXPECT_EQ(second.calibrations_cached, 1u);

  // The determinism contract: byte-identical aggregate reports.
  EXPECT_EQ(campaign::report_json(second).dump(2),
            campaign::report_json(first).dump(2));
  EXPECT_EQ(campaign::report_csv(second), campaign::report_csv(first));
}

TEST(Campaign, ParallelAndSerialExecutionProduceTheSameReport) {
  const campaign::Scenario s = campaign::parse_scenario(small_scenario());
  ScratchDir dir("par");
  campaign::CampaignOptions serial;
  serial.cache_dir = dir.sub("serial");
  serial.jobs = 1;
  campaign::CampaignOptions parallel;
  parallel.cache_dir = dir.sub("parallel");
  parallel.jobs = 4;

  const campaign::CampaignResult a = campaign::run_campaign(s, serial);
  const campaign::CampaignResult b = campaign::run_campaign(s, parallel);
  EXPECT_EQ(campaign::report_json(a).dump(2), campaign::report_json(b).dump(2));
  EXPECT_EQ(campaign::report_csv(a), campaign::report_csv(b));
}

TEST(Campaign, ChangedSeedMachineOrFaultMissesTheCache) {
  ScratchDir dir("invalidate");
  campaign::CampaignOptions opts;
  opts.cache_dir = dir.sub("cache");

  const campaign::Scenario base = campaign::parse_scenario(small_scenario());
  (void)campaign::run_campaign(base, opts);

  auto run_variant = [&](const char* key, const json::Value& value) {
    json::Value doc = small_scenario();
    json::Value defaults = doc.at("defaults");
    defaults.set(key, value);
    doc.set("defaults", defaults);
    return campaign::run_campaign(campaign::parse_scenario(doc), opts);
  };

  // Same scenario again: all hits.
  EXPECT_EQ(campaign::run_campaign(base, opts).cache_hits, 6u);
  // Different seed: every run (and the calibration) re-executes.
  const campaign::CampaignResult seed =
      run_variant("seed", json::Value(12));
  EXPECT_EQ(seed.cache_hits, 0u);
  EXPECT_EQ(seed.calibrations_run, 1u);
  // Different machine (an override counts): all misses.
  const campaign::CampaignResult machine =
      run_variant("machine", json::Value("ibm_sp[latency_us=200]"));
  EXPECT_EQ(machine.cache_hits, 0u);
  // A fault plan: all misses.
  const campaign::CampaignResult faulted =
      run_variant("fault", json::Value("straggler:rank=0,factor=2"));
  EXPECT_EQ(faulted.cache_hits, 0u);
  // And the original is still fully cached afterwards.
  EXPECT_EQ(campaign::run_campaign(base, opts).cache_hits, 6u);
}

TEST(Campaign, ResumeReExecutesOnlyMissingEntries) {
  ScratchDir dir("resume");
  campaign::CampaignOptions opts;
  opts.cache_dir = dir.sub("cache");
  const campaign::Scenario s = campaign::parse_scenario(small_scenario());
  const campaign::CampaignResult first = campaign::run_campaign(s, opts);

  // Simulate a campaign killed mid-way: two result entries never landed.
  campaign::ResultCache cache(opts.cache_dir);
  cache.remove(first.runs[1].digest_hex);
  cache.remove(first.runs[4].digest_hex);

  const campaign::CampaignResult resumed = campaign::run_campaign(s, opts);
  EXPECT_EQ(resumed.cache_hits, 4u);
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_EQ(resumed.calibrations_cached, 1u);
  // Re-executed runs reproduce the identical results.
  EXPECT_EQ(campaign::report_json(resumed).dump(2),
            campaign::report_json(first).dump(2));
}

TEST(Campaign, RunDigestsMatchDirectHarnessExecution) {
  ScratchDir dir("digest");
  campaign::CampaignOptions opts;
  opts.cache_dir = dir.sub("cache");
  const campaign::Scenario s = campaign::parse_scenario(small_scenario());
  const campaign::CampaignResult result = campaign::run_campaign(s, opts);

  for (const auto& r : result.runs) {
    // Re-run the resolved spec directly through the harness (no campaign,
    // no cache, no recorder): bit-identical simulated results.
    apps::AppSpec app;
    app.name = r.resolved.app;
    app.options = r.resolved.app_options;
    ir::Program prog = apps::build_app(app, r.resolved.config.nprocs);
    harness::RunOutcome direct;
    if (r.resolved.config.mode == harness::Mode::kAnalytical) {
      core::CompileResult compiled = core::compile(prog);
      direct =
          harness::run_program(compiled.simplified.program, r.resolved.config);
    } else {
      direct = harness::run_program(prog, r.resolved.config);
    }
    EXPECT_EQ(harness::run_digest_hex(direct),
              harness::run_digest_hex(r.outcome))
        << r.id;
  }
}

TEST(Campaign, MisconfiguredPointBecomesStructuredOutcome) {
  // nas_sp on a non-square process count: the campaign must keep going and
  // report internal_error for that point, not throw.
  const json::Value doc = json::Value::parse(R"({
    "name": "bad-point",
    "runs": [
      {"app": "nas_sp", "procs": 5, "mode": "de"},
      {"app": "sample", "procs": 2, "mode": "de",
       "options": {"iters": 2, "work": 1000}}
    ]
  })");
  ScratchDir dir("badpoint");
  campaign::CampaignOptions opts;
  opts.cache_dir = dir.sub("cache");
  const campaign::CampaignResult result =
      campaign::run_campaign(campaign::parse_scenario(doc), opts);
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_EQ(result.runs[0].outcome.status,
            harness::RunStatus::kInternalError);
  EXPECT_TRUE(result.runs[1].outcome.ok());
  // The failed point's diagnostic lands in the report.
  const json::Value report = campaign::report_json(result);
  EXPECT_EQ(report.at("status_counts").at("internal_error").as_int(), 1);
}

TEST(Campaign, ComparisonGroupsIgnoreTheSchedule) {
  // The schedule and the Time Warp settings never change a digest, so an
  // optimistic prediction belongs to the same comparison group as the
  // conservative ones and its entry names the schedule.
  const json::Value doc = json::Value::parse(R"({
    "name": "schedules",
    "defaults": {"app": "sample", "procs": 4, "seed": 11,
                 "options": {"iters": 2, "work": 1000}},
    "runs": [
      {"mode": "measured"},
      {"mode": "de"},
      {"mode": "de", "schedule": "optimistic", "gvt_interval": 8,
       "checkpoint_interval": 4, "checkpoint_adaptive": false,
       "speculation_window_sec": 0.5},
      {"mode": "am", "schedule": "optimistic", "calibrate": 2}
    ]
  })");
  ScratchDir dir("schedules");
  campaign::CampaignOptions opts;
  opts.cache_dir = dir.sub("cache");
  const campaign::CampaignResult result =
      campaign::run_campaign(campaign::parse_scenario(doc), opts);
  for (const auto& r : result.runs) {
    ASSERT_TRUE(r.outcome.ok()) << r.id << ": " << r.outcome.diagnostic;
  }

  const json::Value report = campaign::report_json(result);
  const json::Value::Array& groups = report.at("comparisons").as_array();
  ASSERT_EQ(groups.size(), 1u);
  const json::Value::Array& predictions =
      groups[0].at("predictions").as_array();
  ASSERT_EQ(predictions.size(), 3u);
  EXPECT_FALSE(predictions[0].has("schedule"));
  EXPECT_EQ(predictions[1].at("schedule").as_string(), "optimistic");
  EXPECT_EQ(predictions[2].at("schedule").as_string(), "optimistic");
  EXPECT_EQ(predictions[2].at("mode").as_string(), "am");
  // Every optimistic prediction also gets its error column in the CSV.
  std::istringstream csv(campaign::report_csv(result));
  std::string line;
  std::getline(csv, line);  // header
  int with_error = 0;
  while (std::getline(csv, line)) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      cells.push_back(cell);
    }
    ASSERT_GT(cells.size(), 11u) << line;
    if (!cells[11].empty()) ++with_error;  // error_vs_measured_pct
  }
  EXPECT_EQ(with_error, 3);
}

TEST(Campaign, WriteReportsEmitsAllThreeFiles) {
  ScratchDir dir("reports");
  campaign::CampaignOptions opts;
  opts.cache_dir = dir.sub("cache");
  opts.out_dir = dir.sub("out");
  const campaign::Scenario s = campaign::parse_scenario(small_scenario());
  const campaign::CampaignResult result = campaign::run_campaign(s, opts);
  campaign::write_reports(result, opts);
  EXPECT_TRUE(fs::exists(fs::path(opts.out_dir) / "report.json"));
  EXPECT_TRUE(fs::exists(fs::path(opts.out_dir) / "report.csv"));
  EXPECT_TRUE(fs::exists(fs::path(opts.out_dir) / "campaign.json"));
  // report.json parses and carries one comparison group per process count.
  std::ifstream in(fs::path(opts.out_dir) / "report.json");
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value report = json::Value::parse(buf.str());
  EXPECT_EQ(report.at("comparisons").as_array().size(), 2u);
  EXPECT_EQ(report.at("runs").as_array().size(), 6u);
}

}  // namespace
}  // namespace stgsim
