// Tests for the shared run-configuration surface: machine registry and
// spec-string parsing (harness/machines.hpp) and the RunSpec/RunOutcome
// JSON schema with its content-address digests (harness/config_json.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "harness/config_json.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "support/errors.hpp"
#include "support/json.hpp"

namespace stgsim {
namespace {

// ---------------------------------------------------------------------------
// Machine registry + spec strings
// ---------------------------------------------------------------------------

TEST(MachineSpecString, BaseMachinesRoundTrip) {
  for (const std::string& name : harness::machine_names()) {
    const harness::MachineSpec m = harness::base_machine(name);
    EXPECT_EQ(harness::machine_spec_string(m), name);
    const harness::MachineSpec again =
        harness::parse_machine_spec(harness::machine_spec_string(m));
    EXPECT_EQ(harness::machine_spec_string(again), name);
  }
}

TEST(MachineSpecString, LegacySpAliasMapsToIbmSp) {
  const harness::MachineSpec m = harness::parse_machine_spec("sp");
  EXPECT_EQ(m.key, "ibm_sp");
  EXPECT_EQ(harness::machine_spec_string(m), "ibm_sp");
}

TEST(MachineSpecString, OverridesApplyAndRoundTrip) {
  const harness::MachineSpec m =
      harness::parse_machine_spec("ibm_sp[latency_us=30,bw=120e6]");
  const harness::MachineSpec base = harness::base_machine("ibm_sp");
  EXPECT_EQ(m.net.latency, vtime_from_us(30));
  EXPECT_EQ(m.net.bytes_per_sec, 120e6);
  // Untouched fields stay at the base values.
  EXPECT_EQ(m.net.send_overhead, base.net.send_overhead);
  EXPECT_EQ(m.compute.flop_time_ns, base.compute.flop_time_ns);

  // Canonical string mentions exactly the overridden fields and parses
  // back to the same machine.
  const std::string spec = harness::machine_spec_string(m);
  EXPECT_EQ(spec, "ibm_sp[latency_us=30,bw=120000000]");
  EXPECT_EQ(harness::machine_spec_string(harness::parse_machine_spec(spec)),
            spec);
}

TEST(MachineSpecString, OverrideEqualToBaseIsCanonicallyAbsent) {
  const double base_bw = harness::base_machine("origin2000").net.bytes_per_sec;
  const harness::MachineSpec m = harness::parse_machine_spec(
      "origin2000[bw=" + json::format_double(base_bw) + "]");
  EXPECT_EQ(harness::machine_spec_string(m), "origin2000");
}

TEST(MachineSpecString, StructuredErrors) {
  // Unknown machine: error lists registered names.
  try {
    (void)harness::parse_machine_spec("cray_t3e");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ibm_sp"), std::string::npos);
  }
  // Unknown override key: error lists accepted keys.
  try {
    (void)harness::parse_machine_spec("ibm_sp[warp_factor=9]");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("latency_us"), std::string::npos);
  }
  for (const char* bad :
       {"ibm_sp[", "ibm_sp[latency_us]", "ibm_sp[latency_us=]",
        "ibm_sp[latency_us=fast]", "ibm_sp[]x", "ibm_sp[latency_us=1"}) {
    EXPECT_THROW((void)harness::parse_machine_spec(bad), std::runtime_error)
        << bad;
  }
}

TEST(MachineSpecString, WhitespaceTolerantBetweenOverrides) {
  const harness::MachineSpec m =
      harness::parse_machine_spec("ibm_sp[latency_us=30, bw=120e6]");
  EXPECT_EQ(m.net.bytes_per_sec, 120e6);
}

// ---------------------------------------------------------------------------
// RunSpec JSON schema
// ---------------------------------------------------------------------------

harness::RunSpec sample_spec() {
  harness::RunSpec spec;
  spec.app = "sample";
  spec.app_options = {{"iters", "3"}, {"work", "2000"}};
  spec.config.nprocs = 4;
  spec.config.mode = harness::Mode::kDirectExec;
  spec.config.seed = 7;
  return spec;
}

TEST(RunSpecJson, RoundTripsExactly) {
  harness::RunSpec spec = sample_spec();
  spec.config.machine = harness::parse_machine_spec("ibm_sp[latency_us=30]");
  spec.config.threads = 2;
  spec.config.partition = simk::PartitionMode::kInterleave;
  spec.config.memory_cap_bytes = 64 << 20;
  spec.config.faults = fault::parse_fault_plan(
      "link:src=0,dst=1,latency=4,bandwidth=0.25;straggler:rank=2,factor=2");
  spec.config.max_virtual_time = vtime_from_sec(1.5);

  const json::Value doc = harness::run_spec_to_json(spec);
  const harness::RunSpec back = harness::run_spec_from_json(doc);
  // to_json of the parsed spec reproduces the document byte-for-byte.
  EXPECT_EQ(harness::run_spec_to_json(back).dump(), doc.dump());
  EXPECT_EQ(back.config.nprocs, 4);
  EXPECT_EQ(back.config.threads, 2);
  EXPECT_EQ(back.config.memory_cap_bytes, std::size_t{64} << 20);
  EXPECT_EQ(back.config.faults.to_string(), spec.config.faults.to_string());
  EXPECT_EQ(harness::machine_spec_string(back.config.machine),
            "ibm_sp[latency_us=30]");
}

TEST(RunSpecJson, CanonicalFormFillsAppOptionDefaults) {
  const json::Value doc = harness::run_spec_to_json(sample_spec());
  // All four sample options appear even though only two were given.
  const json::Value& opts = doc.at("options");
  EXPECT_TRUE(opts.has("iters"));
  EXPECT_TRUE(opts.has("pattern"));
  EXPECT_TRUE(opts.has("msg-doubles"));
  EXPECT_TRUE(opts.has("work"));
  EXPECT_EQ(opts.at("pattern").as_string(), "nn");
}

TEST(RunSpecJson, UnknownKeysAreStructuredErrors) {
  json::Value doc = harness::run_spec_to_json(sample_spec());
  doc.set("turbo", json::Value(true));
  EXPECT_THROW((void)harness::run_spec_from_json(doc), std::runtime_error);

  json::Value doc2 = harness::run_spec_to_json(sample_spec());
  json::Value opts = doc2.at("options");
  opts.set("bogus_option", json::Value(1));
  doc2.set("options", opts);
  EXPECT_THROW((void)harness::run_spec_from_json(doc2), std::runtime_error);
}

TEST(RunSpecJson, FormattingDoesNotChangeTheDigest) {
  const json::Value doc = harness::run_spec_to_json(sample_spec());
  // Re-parse from pretty-printed text: same digest.
  const harness::RunSpec a = harness::run_spec_from_json(doc);
  const harness::RunSpec b =
      harness::run_spec_from_json(json::Value::parse(doc.dump(4)));
  EXPECT_EQ(harness::run_spec_digest(a), harness::run_spec_digest(b));
}

TEST(RunSpecJson, DigestIsSensitiveToSeedMachineAndFault) {
  const harness::RunSpec base = sample_spec();
  const std::uint64_t d0 = harness::run_spec_digest(base);

  harness::RunSpec seed = base;
  seed.config.seed = 8;
  EXPECT_NE(harness::run_spec_digest(seed), d0);

  harness::RunSpec machine = base;
  machine.config.machine = harness::parse_machine_spec("ibm_sp[latency_us=1]");
  EXPECT_NE(harness::run_spec_digest(machine), d0);

  harness::RunSpec faulted = base;
  faulted.config.faults =
      fault::parse_fault_plan("straggler:rank=0,factor=2");
  EXPECT_NE(harness::run_spec_digest(faulted), d0);

  harness::RunSpec procs = base;
  procs.config.nprocs = 8;
  EXPECT_NE(harness::run_spec_digest(procs), d0);
}

TEST(RunSpecJson, IrrelevantCalibrateCountIsCanonicalizedOut) {
  // A de-mode run swept with "calibrate" digests the same as one without:
  // calibration cannot affect its prediction.
  harness::RunSpec with = sample_spec();
  with.calibrate_procs = 16;
  EXPECT_EQ(harness::run_spec_digest(with),
            harness::run_spec_digest(sample_spec()));

  // For analytical runs without inline params it IS part of the address...
  harness::RunSpec am = sample_spec();
  am.config.mode = harness::Mode::kAnalytical;
  am.calibrate_procs = 16;
  harness::RunSpec am8 = am;
  am8.calibrate_procs = 8;
  EXPECT_NE(harness::run_spec_digest(am), harness::run_spec_digest(am8));

  // ...but once params are resolved inline, they alone define the run.
  am.config.params = {{"w_x", 1e-6}};
  am8.config.params = {{"w_x", 1e-6}};
  EXPECT_EQ(harness::run_spec_digest(am), harness::run_spec_digest(am8));
}

TEST(RunSpecJson, FaultPlanStringRoundTripsLossslessly) {
  const std::string spec =
      "link:src=0,dst=1,latency=4,bandwidth=0.25,from=0.001;"
      "straggler:rank=2,factor=1.5";
  const fault::FaultPlan plan = fault::parse_fault_plan(spec);
  const fault::FaultPlan again = fault::parse_fault_plan(plan.to_string());
  EXPECT_EQ(plan.to_string(), again.to_string());
}

// ---------------------------------------------------------------------------
// RunOutcome serialization
// ---------------------------------------------------------------------------

TEST(RunSpecJson, EveryPublishedSchemaVersionRoundTrips) {
  // A spec document may carry an explicit "schema" key naming any
  // published version; parsing accepts it, and the canonical form (which
  // omits the key) is identical across versions — the digest never
  // depends on which accepted version the document claimed.
  json::Value base = json::Value::parse(R"({
    "app": "sample", "procs": 2, "mode": "de", "seed": 9,
    "options": {"iters": "2", "work": "1000"}
  })");
  const harness::RunSpec plain = harness::run_spec_from_json(base);
  const std::string canonical = harness::run_spec_to_json(plain).dump();
  ASSERT_FALSE(harness::published_schema_versions().empty());
  EXPECT_EQ(harness::published_schema_versions().back(),
            harness::kSimulatorVersion);
  for (const std::string& version : harness::published_schema_versions()) {
    EXPECT_TRUE(harness::schema_version_supported(version)) << version;
    json::Value doc = base;
    doc.set("schema", version);
    const harness::RunSpec spec = harness::run_spec_from_json(doc);
    EXPECT_EQ(harness::run_spec_to_json(spec).dump(), canonical) << version;
    EXPECT_EQ(harness::run_spec_digest_hex(spec),
              harness::run_spec_digest_hex(plain))
        << version;
  }
}

TEST(RunSpecJson, UnknownSchemaVersionIsAStructuredRejection) {
  json::Value doc = json::Value::parse(R"({
    "schema": "stgsim-99", "app": "sample", "procs": 2, "mode": "de"
  })");
  try {
    harness::run_spec_from_json(doc);
    FAIL() << "unknown schema version must be rejected";
  } catch (const errors::StructuredError& e) {
    EXPECT_EQ(e.code(), "usage.unsupported_schema");
    EXPECT_EQ(e.category(), errors::kCategoryUsage);
    // The rejection lists what IS supported.
    const auto& supported = e.detail().at("supported").as_array();
    ASSERT_FALSE(supported.empty());
    EXPECT_EQ(supported.back().as_string(), harness::kSimulatorVersion);
  }
  EXPECT_FALSE(harness::schema_version_supported("stgsim-99"));
}

TEST(RunSpecJson, PublishedJsonSchemasNameTheCurrentVersion) {
  const json::Value spec_schema = harness::run_spec_schema_json();
  EXPECT_EQ(spec_schema.at("$id").as_string(), "stgsim-8/run-spec");
  EXPECT_TRUE(spec_schema.at("properties").has("max_host_sec"));
  const json::Value outcome_schema = harness::run_outcome_schema_json();
  EXPECT_EQ(outcome_schema.at("$id").as_string(), "stgsim-8/run-outcome");
  EXPECT_TRUE(outcome_schema.at("properties").has("digest"));
}

// Every RunConfig field at a non-default value. The pins below hold the
// canonical bytes, the cache key, the published schema and the rejection
// messages: a refactor of the emit/parse/schema code must leave them as
// they are, so never re-capture them to make a change pass.
harness::RunSpec every_field_spec() {
  harness::RunSpec spec = sample_spec();
  harness::RunConfig& c = spec.config;
  c.nprocs = 6;
  c.mode = harness::Mode::kAnalytical;
  c.machine = harness::parse_machine_spec("origin2000[latency_us=7]");
  c.threads = 3;
  c.partition = simk::PartitionMode::kComm;
  c.schedule = harness::Schedule::kOptimistic;
  c.gvt_interval = 100;
  c.checkpoint_interval = 32;
  c.checkpoint_adaptive = false;
  c.speculation_window_sec = 0.5;
  c.abstract_comm = true;
  c.memory_cap_bytes = std::size_t{96} << 20;
  c.fiber_stack_bytes = 512 * 1024;
  c.seed = 99;
  c.faults = fault::parse_fault_plan("straggler:rank=1,factor=3");
  c.max_virtual_time = vtime_from_sec(2.5);
  c.max_messages = 12345;
  c.max_host_seconds = 30.0;
  c.params = {{"w_sample_work", 1.25e-6}};
  spec.calibrate_procs = 4;
  return spec;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(RunSpecJson, EveryFieldPinnedAtParent) {
  const harness::RunSpec spec = every_field_spec();
  const std::string dump = harness::run_spec_to_json(spec).dump();
  EXPECT_EQ(dump,
            R"({"abstract_comm":true,"app":"sample","calibrate":0,)"
            R"("checkpoint_adaptive":false,"checkpoint_interval":32,)"
            R"("fault":"straggler:rank=1,factor=3","fiber_stack_kb":512,)"
            R"("gvt_interval":100,"machine":"origin2000[latency_us=7]",)"
            R"("max_host_sec":30,"max_messages":12345,)"
            R"("max_vtime_ns":2500000000,"memory_cap_mb":96,"mode":"am",)"
            R"("options":{"iters":"3","msg-doubles":"1024","pattern":"nn",)"
            R"("work":"2000"},"params":{"w_sample_work":1.25e-06},)"
            R"("partition":"comm","procs":6,"schedule":"optimistic",)"
            R"("seed":99,"speculation_window_sec":0.5,"workers":3})");
  EXPECT_EQ(harness::run_spec_digest_hex(spec), "1de2cf0f0bebc892");
  EXPECT_EQ(fnv1a_hex(harness::run_spec_schema_json().dump()),
            "2bb31b50a6d557b9");
  // Every field survives the round trip.
  EXPECT_EQ(harness::run_spec_to_json(
                harness::run_spec_from_json(json::Value::parse(dump)))
                .dump(),
            dump);

  // The exact rejection message for each invalid value.
  const std::pair<const char*, const char*> rejected[] = {
      {R"({"procs": 0})",
       "procs must be positive"},
      {R"({"mode": "fast"})",
       "unknown mode 'fast' (expected measured|de|am)"},
      {R"({"partition": "random"})",
       "unknown partition mode 'random' (expected block|interleave|comm)"},
      {R"({"schedule": "eager"})",
       "unknown schedule 'eager' (expected conservative|optimistic)"},
      {R"({"gvt_interval": -1})",
       "gvt_interval must be >= 0"},
      {R"({"checkpoint_interval": -1})",
       "checkpoint_interval must be >= 0"},
      {R"({"speculation_window_sec": -1})",
       "speculation_window_sec must be >= 0"},
      {R"({"turbo": true})",
       "unknown run-spec key 'turbo'"},
  };
  for (const auto& [patch, message] : rejected) {
    json::Value doc = harness::run_spec_to_json(sample_spec());
    const json::Value overrides = json::Value::parse(patch);
    for (const auto& [key, value] : overrides.as_object()) {
      doc.set(key, value);
    }
    try {
      (void)harness::run_spec_from_json(doc);
      ADD_FAILURE() << patch << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), message) << patch;
    }
  }
}

TEST(RunSpecJson, CountsAndSizesRejectNegativeValues) {
  // Stored unsigned (or, for workers, a host thread count): a negative
  // value is a usage error, never a wrapped or undefined conversion.
  for (const char* key : {"workers", "seed", "max_messages", "memory_cap_mb",
                          "fiber_stack_kb"}) {
    json::Value doc = harness::run_spec_to_json(sample_spec());
    doc.set(key, json::Value(-1));
    try {
      (void)harness::run_spec_from_json(doc);
      ADD_FAILURE() << key << " = -1 was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), std::string(key) + " must be >= 0");
    }
  }
}

TEST(OutcomeJson, RoundTripPreservesDigest) {
  harness::RunOutcome out;
  out.status = harness::RunStatus::kOk;
  out.nprocs = 2;
  out.predicted_time = 123456789;
  out.per_rank = {123456789, 123450000};
  out.messages = 42;
  out.slices = 17;
  out.peak_target_bytes = 1 << 20;
  out.sim_host_seconds = 0.25;
  smpi::RankStats s;
  s.compute_time = 1000;
  s.comm_time = 2000;
  s.sends = 3;
  s.recvs = 4;
  s.collectives = 5;
  s.delays = 6;
  s.bytes_sent = 7;
  out.per_rank_stats = {s, s};
  out.stats = s;
  out.metrics.add("engine.slices", 17.0);
  out.metrics.msg_size_hist = {0, 2, 1};

  const json::Value doc = harness::outcome_to_json(out);
  const harness::RunOutcome back = harness::outcome_from_json(doc);
  EXPECT_EQ(harness::run_digest(back), harness::run_digest(out));
  EXPECT_EQ(doc.at("digest").as_string(), harness::run_digest_hex(back));
  EXPECT_EQ(back.messages, 42u);
  EXPECT_EQ(back.per_rank_stats.size(), 2u);
  EXPECT_EQ(back.metrics.msg_size_hist.size(), 3u);
  // Serialization is stable through a round trip.
  EXPECT_EQ(harness::outcome_to_json(back).dump(), doc.dump());
}

}  // namespace
}  // namespace stgsim
