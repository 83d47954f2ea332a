// Tests for the model-checking subsystem behind `stgsim check`.
//
// Covers: digest invariance across exhaustively explored schedules, the
// injected pre-safety-bound wildcard race (a divergence must be found,
// serialized, and deterministically replayable), deadlock-report
// invariance across schedules AND across threaded worker counts, the
// DPOR reduction's equivalence with full exploration, and exploration
// pinned choice for choice on the CI gate configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "harness/digest.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"
#include "mc/checker.hpp"
#include "mc/oracles.hpp"
#include "mc/schedule.hpp"
#include "sim/partition.hpp"

namespace stgsim {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

/// The anysource SAMPLE pattern: every nonzero rank computes a
/// rank-dependent amount and sends to rank 0; rank 0 collects with
/// wildcard receives. The classic shape where an unsafe wildcard commit
/// changes which message matches first.
ir::Program anysource_program(int nprocs) {
  apps::AppSpec spec;
  spec.name = "sample";
  spec.options = {{"pattern", "anysource"}, {"iters", "1"},
                  {"work", "2000"}, {"msg-doubles", "64"}};
  return apps::build_app(spec, nprocs);
}

harness::RunConfig base_config(int nprocs) {
  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.mode = harness::Mode::kDirectExec;
  return cfg;
}

/// Three ranks, guaranteed deadlock with a parked wildcard: rank 2 posts
/// two wildcard receives but only one message (from rank 0) ever arrives,
/// and rank 1 waits on a send rank 2 never issues.
ir::Program deadlock_program() {
  ir::ProgramBuilder b("mc_deadlock");
  Expr myid = b.get_rank("myid");
  Expr msg = b.decl_int("MSG", I(16));
  b.decl_array("buf", {msg});
  b.if_then(sym::eq(myid, I(0)), [&] { b.send("buf", I(2), msg, I(0), 5); });
  b.if_then(sym::eq(myid, I(1)), [&] { b.recv("buf", I(2), msg, I(0), 5); });
  b.if_then(sym::eq(myid, I(2)), [&] {
    b.recv("buf", I(-1), msg, I(0), 5);
    b.recv("buf", I(-1), msg, I(0), 5);
  });
  return b.take();
}

// ---------------------------------------------------------------------------
// Digest invariance
// ---------------------------------------------------------------------------

TEST(McCheck, WildcardProgramIsDigestInvariantAcrossAllSchedules) {
  const ir::Program prog = anysource_program(2);
  mc::CheckOptions opts;
  opts.base = base_config(2);
  const mc::CheckReport rep = mc::check_program(prog, opts);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.used_wildcard_recv);
  EXPECT_TRUE(rep.stats.complete);
  // More than one schedule must actually have been explored — a checker
  // that only ever sees the canonical order proves nothing.
  EXPECT_GT(rep.stats.schedules, 1u);
  EXPECT_EQ(rep.distinct_schedule_digests, 1u);
  EXPECT_GT(rep.threaded_trials_run, 0);
}

TEST(McCheck, RejectsMeasuredModeAndLargeRankCounts) {
  const ir::Program prog = anysource_program(2);
  mc::CheckOptions opts;
  opts.base = base_config(2);
  opts.base.mode = harness::Mode::kMeasured;
  EXPECT_FALSE(mc::check_program(prog, opts).error.empty());
  opts.base = base_config(9);
  EXPECT_FALSE(mc::check_program(prog, opts).error.empty());
}

// ---------------------------------------------------------------------------
// Injected wildcard race: find, serialize, replay
// ---------------------------------------------------------------------------

TEST(McCheck, InjectedUnsafeWildcardYieldsReplayableCounterexample) {
  const ir::Program prog = anysource_program(3);
  mc::CheckOptions opts;
  opts.base = base_config(3);
  opts.base.inject = simk::Inject::kUnsafeWildcard;
  const mc::CheckReport rep = mc::check_program(prog, opts);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  ASSERT_FALSE(rep.divergences.empty())
      << "the pre-safety-bound wildcard race must be rediscovered";
  const mc::Divergence& d = rep.divergences.front();
  EXPECT_EQ(d.kind, mc::Divergence::Kind::kDigest) << d.description;
  ASSERT_FALSE(d.schedule.empty());

  // The schedule must survive a serialization round trip...
  const json::Value wire = mc::schedule_to_json(d.schedule);
  const std::vector<simk::ChoiceOption> parsed =
      mc::schedule_from_json(json::Value::parse(wire.dump()));
  ASSERT_EQ(parsed, d.schedule);

  // ...and replaying it must reproduce the divergent digest, twice.
  std::set<std::uint64_t> replayed;
  for (int i = 0; i < 2; ++i) {
    mc::ReplayOracle oracle(parsed);
    harness::RunConfig rc = base_config(3);
    rc.inject = simk::Inject::kUnsafeWildcard;
    rc.oracle = &oracle;
    const harness::RunOutcome out = harness::run_program(prog, rc);
    ASSERT_TRUE(out.ok()) << out.diagnostic;
    replayed.insert(harness::run_digest(out));
  }
  ASSERT_EQ(replayed.size(), 1u) << "replay must be deterministic";
  EXPECT_EQ(*replayed.begin(), harness::run_digest(d.observed));
  EXPECT_NE(harness::run_digest_hex(d.observed), rep.canonical_digest);
}

// ---------------------------------------------------------------------------
// The latency floor feeding the wildcard-park bound
// ---------------------------------------------------------------------------

/// A wildcard race only an unsound floor can lose: rank 1 sends a large
/// message immediately (long serialization => late arrival), rank 2 sits
/// idle past the floor and then sends a tiny message that overtakes it on
/// the wire. The sound bound keeps rank 0 parked until rank 2's earlier
/// arrival is queued; an inflated floor commits rank 1's candidate on
/// sight. In anysource_program arrival order always equals send order
/// (uniform sizes), so it cannot distinguish the two — this shape can.
ir::Program overtaking_sender_program() {
  ir::ProgramBuilder b("mc_floor_race");
  Expr myid = b.get_rank("myid");
  Expr big = b.decl_int("BIG", I(1024));  // 8 KiB: ~91us serialization
  b.decl_array("buf", {big});
  b.if_then(sym::eq(myid, I(0)), [&] {
    b.recv("buf", I(-1), big, I(0), 5);
    b.recv("buf", I(-1), big, I(0), 5);
  });
  b.if_then(sym::eq(myid, I(1)), [&] { b.send("buf", I(0), big, I(0), 5); });
  b.if_then(sym::eq(myid, I(2)), [&] {
    b.delay(Expr::real(50e-6));  // idle past the 25us floor, then overtake
    b.send("buf", I(0), I(1), I(0), 5);
  });
  return b.take();
}

TEST(McCheck, InflatedLatencyFloorTripsTheWildcardParkInvariant) {
  // The wildcard safe bound is (slowest other clock + advertised floor):
  // a floor tightened past the platform's true minimum path latency lets
  // a receiver commit a queued candidate while a slower sender could
  // still produce an earlier arrival. unsafe_floor_slack (test-only)
  // inflates the advertised floor without touching the platform, and the
  // checker must rediscover the resulting race — this is the regression
  // gate behind Platform::verify_floor().
  const ir::Program prog = overtaking_sender_program();
  mc::CheckOptions opts;
  opts.base = base_config(3);
  opts.base.unsafe_floor_slack = vtime_from_ms(1000);
  const mc::CheckReport rep = mc::check_program(prog, opts);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_FALSE(rep.divergences.empty())
      << "an overstated latency floor must produce a schedule divergence";

  // The same configuration with the sound (platform-derived) floor is
  // schedule-invariant.
  opts.base.unsafe_floor_slack = 0;
  const mc::CheckReport sound = mc::check_program(prog, opts);
  ASSERT_TRUE(sound.error.empty()) << sound.error;
  EXPECT_TRUE(sound.ok());
}

// ---------------------------------------------------------------------------
// Deadlock determinism
// ---------------------------------------------------------------------------

TEST(McCheck, DeadlockReportsAreScheduleInvariant) {
  const ir::Program prog = deadlock_program();
  mc::CheckOptions opts;
  opts.base = base_config(3);
  const mc::CheckReport rep = mc::check_program(prog, opts);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_EQ(rep.canonical.status, harness::RunStatus::kDeadlock);
  EXPECT_TRUE(rep.ok()) << (rep.divergences.empty()
                                ? ""
                                : rep.divergences.front().description);
  EXPECT_TRUE(rep.stats.complete);
  // Rank 0 finishes; ranks 1 and 2 are the blocked set, rank 2 on a
  // parked wildcard.
  ASSERT_EQ(rep.canonical.blocked_ranks.size(), 2u);
}

TEST(ThreadedDeadlock, BlockedRankReportsInvariantAcrossWorkerCounts) {
  const ir::Program prog = deadlock_program();

  harness::RunConfig seq = base_config(3);
  const harness::RunOutcome ref = harness::run_program(prog, seq);
  ASSERT_EQ(ref.status, harness::RunStatus::kDeadlock) << ref.diagnostic;
  ASSERT_EQ(ref.blocked_ranks.size(), 2u);
  const std::uint64_t ref_key = harness::deadlock_report_key(ref.blocked_ranks);

  for (const int workers : {1, 2, 4}) {
    harness::RunConfig cfg = base_config(3);
    cfg.threads = workers;
    const harness::RunOutcome out = harness::run_program(prog, cfg);
    ASSERT_EQ(out.status, harness::RunStatus::kDeadlock)
        << "workers=" << workers << ": " << out.diagnostic;
    // The *report* (ranks, clocks, what they wait on) is scheduler
    // infrastructure-independent; deadlock_report_key excludes
    // home_worker exactly so this comparison is meaningful.
    EXPECT_EQ(harness::deadlock_report_key(out.blocked_ranks), ref_key)
        << "workers=" << workers;
    // home_worker grouping must match the block partition in force.
    const std::vector<int> part = simk::block_partition(3, workers);
    for (const auto& b : out.blocked_ranks) {
      EXPECT_EQ(b.home_worker, part[static_cast<std::size_t>(b.rank)])
          << "workers=" << workers << " rank=" << b.rank;
    }
  }
}

// ---------------------------------------------------------------------------
// DPOR reduction
// ---------------------------------------------------------------------------

TEST(McExplore, DporExploresSameDigestsAsFullExploration) {
  const ir::Program prog = anysource_program(3);
  mc::CheckOptions dpor_opts;
  dpor_opts.base = base_config(3);
  dpor_opts.threaded_workers = 0;  // isolate the exploration under test
  mc::CheckOptions full_opts = dpor_opts;
  full_opts.use_dpor = false;
  full_opts.max_schedules = 4096;

  const mc::CheckReport dpor = mc::check_program(prog, dpor_opts);
  const mc::CheckReport full = mc::check_program(prog, full_opts);
  ASSERT_TRUE(dpor.error.empty()) << dpor.error;
  ASSERT_TRUE(full.error.empty()) << full.error;
  EXPECT_TRUE(dpor.ok());
  EXPECT_TRUE(full.ok());
  ASSERT_TRUE(dpor.stats.complete);
  ASSERT_TRUE(full.stats.complete);
  // Sleep sets only prune redundant interleavings: same digest coverage,
  // never more runs than the unreduced search.
  EXPECT_EQ(dpor.distinct_schedule_digests, full.distinct_schedule_digests);
  EXPECT_LE(dpor.stats.schedules, full.stats.schedules);
  EXPECT_GT(full.stats.schedules, 1u);
}

/// FNV-1a over every logged choice point: the option list in engine order,
/// then the chosen option.
std::uint64_t choice_log_hash(const std::vector<mc::StepLog>& log) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_option = [&](const simk::ChoiceOption& o) {
    mix(static_cast<std::int64_t>(o.kind));
    mix(o.rank);
    mix(o.src);
    mix(o.dst);
    mix(o.tag);
  };
  for (const mc::StepLog& step : log) {
    mix(static_cast<std::int64_t>(step.options.size()));
    for (const simk::ChoiceOption& o : step.options) mix_option(o);
    mix_option(step.chosen);
  }
  return h;
}

TEST(McExplore, ExplorationPinnedAtParent) {
  // Exploration is choice-for-choice reproducible: the same option lists
  // in the same order, the same schedule counts and the same digests. Any
  // change to how the engine enumerates or applies oracle choices moves
  // one of these values; never re-capture them to make an engine change
  // pass.
  struct Pin {
    const char* name;
    apps::AppSpec app;
    int nprocs;
    harness::Schedule schedule;
    simk::Inject inject;
    std::uint64_t max_schedules;
    std::uint64_t schedules, pruned;
    std::size_t max_depth_seen;
    bool complete;
    const char* digest;
    std::uint64_t first_log_hash;
  };
  // The CI protocol-gate configurations (`stgsim check` defaults).
  const apps::AppSpec sample{
      "sample", {{"pattern", "anysource"}, {"iters", "1"}, {"work", "2000"}}};
  const apps::AppSpec tomcatv{"tomcatv", {{"n", "64"}, {"iters", "1"}}};
  const apps::AppSpec sweep3d{"sweep3d", {{"kt", "8"}, {"kb", "4"}}};
  constexpr auto kCons = harness::Schedule::kConservative;
  constexpr auto kNoInject = simk::Inject::kNone;
  const std::vector<Pin> pins = {
      {"sample-3", sample, 3, kCons, kNoInject, 256, 6, 4, 7, true,
       "3c8be893359a1bcf", 0xc5e20b4fe96ba1a7ULL},
      {"sample-3-optimistic", sample, 3, harness::Schedule::kOptimistic,
       kNoInject, 256, 8, 4, 7, true, "3c8be893359a1bcf",
       0x8010579f406aa8f8ULL},
      // Stops at the first divergence: one schedule, incomplete.
      {"sample-3-unsafe-wildcard", sample, 3, kCons,
       simk::Inject::kUnsafeWildcard, 256, 1, 0, 7, false, "3c8be893359a1bcf",
       0x8010579f406aa8f8ULL},
      {"tomcatv-2", tomcatv, 2, kCons, kNoInject, 256, 22, 19, 14, true,
       "82eea5e9d223a9a5", 0x83abb5d1732c7190ULL},
      {"sweep3d-4", sweep3d, 4, kCons, kNoInject, 32, 32, 76, 235, false,
       "b3a589a6a893e5ef", 0x24830229c54dacc1ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const ir::Program prog = apps::build_app(pin.app, pin.nprocs);
    mc::CheckOptions opts;
    opts.base = base_config(pin.nprocs);
    opts.base.schedule = pin.schedule;
    opts.base.inject = pin.inject;
    opts.max_schedules = pin.max_schedules;
    opts.max_host_seconds = 0.0;  // pins must not depend on host speed
    opts.threaded_workers = 0;    // isolate the oracle-driven exploration
    const mc::CheckReport rep = mc::check_program(prog, opts);
    ASSERT_TRUE(rep.error.empty()) << rep.error;

    // The first explored run: empty prefix, empty sleep set.
    harness::RunConfig rc = opts.base;
    mc::RecordingOracle oracle({}, {},
                               mc::make_independence(rep.used_wildcard_recv));
    rc.oracle = &oracle;
    const harness::RunOutcome first = harness::run_program(prog, rc);
    ASSERT_TRUE(first.ok()) << first.diagnostic;

    EXPECT_EQ(rep.stats.schedules, pin.schedules);
    EXPECT_EQ(rep.stats.pruned, pin.pruned);
    EXPECT_EQ(rep.stats.max_depth_seen, pin.max_depth_seen);
    EXPECT_EQ(rep.stats.complete, pin.complete);
    EXPECT_EQ(rep.canonical_digest, pin.digest);
    EXPECT_EQ(choice_log_hash(oracle.log()), pin.first_log_hash);
  }
}

// ---------------------------------------------------------------------------
// The optimistic (Time Warp) path under the protocol gate
// ---------------------------------------------------------------------------

TEST(McCheck, OptimisticScheduleIsDigestInvariantAcrossAllSchedules) {
  // Every explored delivery order may trigger different speculative
  // commits and rollbacks; all of them must still commit the *canonical
  // conservative* digest. The canonical run drops the optimistic
  // schedule — that asymmetry is the contract under test.
  const ir::Program prog = anysource_program(3);
  mc::CheckOptions opts;
  opts.base = base_config(3);
  opts.base.schedule = harness::Schedule::kOptimistic;
  const mc::CheckReport rep = mc::check_program(prog, opts);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_TRUE(rep.ok()) << (rep.divergences.empty()
                                ? ""
                                : rep.divergences.front().description);
  EXPECT_TRUE(rep.used_wildcard_recv);
  EXPECT_GT(rep.stats.schedules, 1u);
  EXPECT_EQ(rep.distinct_schedule_digests, 1u);
  EXPECT_GT(rep.threaded_trials_run, 0);
}

TEST(McCheck, InjectedCommitBeforeGvtIsRediscoveredOnTheOptimisticPath) {
  const ir::Program prog = anysource_program(3);
  mc::CheckOptions opts;
  opts.base = base_config(3);
  opts.base.schedule = harness::Schedule::kOptimistic;
  opts.base.inject = simk::Inject::kCommitBeforeGvt;
  const mc::CheckReport rep = mc::check_program(prog, opts);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  ASSERT_FALSE(rep.divergences.empty())
      << "committing speculative state before GVT passes it must "
         "reintroduce the wildcard race";
  EXPECT_EQ(rep.divergences.front().kind, mc::Divergence::Kind::kDigest)
      << rep.divergences.front().description;
}

}  // namespace
}  // namespace stgsim
