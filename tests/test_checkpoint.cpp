// Tests for the optimistic scheduler's state-saving layer (DESIGN.md §15):
// periodic per-rank checkpoints, coast-forward restore, GVT-gated
// consumption-log pruning, and the checkpoint-interval knob. The contract
// under test throughout: none of these mechanisms may change committed
// results — digests stay bit-identical to the sequential conservative
// scheduler at every checkpoint interval, including runs whose fault
// plans force real rollbacks through the restore path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/nas_sp.hpp"
#include "apps/registry.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "core/compiler.hpp"
#include "fault/fault.hpp"
#include "harness/config_json.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "ir/plan.hpp"
#include "mc/checker.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "smpi/smpi.hpp"
#include "support/blob.hpp"
#include "testutil.hpp"

namespace stgsim {
namespace {

harness::RunConfig base_config(int nprocs) {
  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.mode = harness::Mode::kDirectExec;
  return cfg;
}

std::uint64_t digest_of(const ir::Program& prog, harness::RunConfig cfg) {
  harness::RunOutcome out = harness::run_program(prog, cfg);
  EXPECT_TRUE(out.ok()) << out.diagnostic;
  return harness::run_digest(out);
}

struct AppCase {
  const char* name;
  ir::Program prog;
  int nprocs;
};

std::vector<AppCase> small_apps() {
  std::vector<AppCase> cases;
  {
    apps::TomcatvConfig c;
    c.n = 128;
    c.iterations = 2;
    cases.push_back({"tomcatv", apps::make_tomcatv(c), 8});
  }
  {
    apps::Sweep3DConfig c;
    c.it = 2;
    c.jt = 2;
    c.kt = 12;
    c.kb = 4;
    c.mm = 2;
    c.mmi = 1;
    c.npe_i = 2;
    c.npe_j = 4;
    cases.push_back({"sweep3d", apps::make_sweep3d(c), 8});
  }
  { cases.push_back({"nas_sp", apps::make_nas_sp(apps::sp_class('A', 2, 2)), 4}); }
  {
    apps::SampleConfig c;
    c.pattern = apps::SamplePattern::kAnySource;
    c.iterations = 2;
    c.msg_doubles = 64;
    c.work_iters = 2000;
    cases.push_back({"sample", apps::make_sample(c), 8});
  }
  return cases;
}

/// Fixed intervals exercised everywhere: every-consume, small, the
/// default, and 0 = checkpoints off (replay-from-zero, unpruned log).
const std::uint64_t kIntervals[] = {1, 4, 64, 0};

// ---------------------------------------------------------------------------
// Digest identity across intervals, drivers and worker counts
// ---------------------------------------------------------------------------

TEST(Checkpoint, DigestsBitIdenticalAcrossIntervalsAndWorkers) {
  for (const AppCase& app : small_apps()) {
    const std::uint64_t want = digest_of(app.prog, base_config(app.nprocs));
    for (const std::uint64_t interval : kIntervals) {
      for (int workers : {0, 2, 4, 8}) {
        harness::RunConfig cfg = base_config(app.nprocs);
        cfg.schedule = harness::Schedule::kOptimistic;
        cfg.threads = workers;
        cfg.checkpoint_interval = interval;
        EXPECT_EQ(digest_of(app.prog, cfg), want)
            << app.name << " interval=" << interval << " workers=" << workers;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rollback through the restore path (deterministic, via the MC engine)
// ---------------------------------------------------------------------------

/// Same straggler machinery as test_optimistic.cpp: deliver rank 1's
/// fault-delayed message first so the wildcard root commits it
/// prematurely, then let earlier traffic land and force the rollback.
class StragglerFirstOracle : public simk::ScheduleOracle {
 public:
  std::size_t choose(const std::vector<simk::ChoiceOption>& options) override {
    using K = simk::ChoiceOption::Kind;
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].kind == K::kDeliver && options[i].src == 1 &&
          options[i].dst == 0) {
        return i;
      }
    }
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].kind == K::kResume && options[i].rank <= 1) return i;
    }
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].kind == K::kDeliver) return i;
    }
    std::size_t best = 0;
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].rank >= options[best].rank) best = i;
    }
    return best;
  }
};

ir::Program anysource_program(int nprocs, int iters) {
  apps::AppSpec spec;
  spec.name = "sample";
  spec.options = {{"pattern", "anysource"},
                  {"iters", std::to_string(iters)},
                  {"work", "2000"},
                  {"msg-doubles", "64"}};
  return apps::build_app(spec, nprocs);
}

const char* kStragglerPlan = "link:src=1,dst=0,latency=8";

TEST(Checkpoint, StragglerRollbackRestoresCorrectlyAtEveryInterval) {
  // Several wildcard iterations so the violation lands well past the
  // first checkpoint and coast-forward actually replays from a restore
  // point instead of degenerating to replay-from-zero.
  const ir::Program prog = anysource_program(3, 4);

  harness::RunConfig ref = base_config(3);
  ref.faults = fault::parse_fault_plan(kStragglerPlan);
  const std::uint64_t want = digest_of(prog, ref);

  std::uint64_t replayed_with_checkpoints = 0;
  std::uint64_t replayed_without = 0;
  for (const std::uint64_t interval : kIntervals) {
    StragglerFirstOracle oracle;
    obs::Recorder rec(obs::Options{}, 3);
    harness::RunConfig opt = ref;
    opt.schedule = harness::Schedule::kOptimistic;
    opt.checkpoint_interval = interval;
    opt.oracle = &oracle;
    opt.obs = &rec;
    harness::RunOutcome out = harness::run_program(prog, opt);
    ASSERT_TRUE(out.ok()) << out.diagnostic;

    EXPECT_EQ(harness::run_digest(out), want)
        << "interval=" << interval
        << ": restore-path rollback must recover the conservative order";
    EXPECT_GE(out.parallel.rollbacks, 1u) << "interval=" << interval;
    if (interval == 1) {
      EXPECT_GE(out.parallel.checkpoints_taken, 1u);
      replayed_with_checkpoints = out.parallel.replayed_events;
    }
    if (interval == 0) {
      EXPECT_EQ(out.parallel.checkpoints_taken, 0u);
      replayed_without = out.parallel.replayed_events;
    }

    // The new counters surface through the obs metrics contract.
    auto metric = [&out](const char* name) {
      for (const auto& [n, v] : out.metrics.scalars) {
        if (n == std::string(name)) return v;
      }
      return -1.0;
    };
    EXPECT_EQ(metric("parallel.checkpoints_taken"),
              static_cast<double>(out.parallel.checkpoints_taken));
    EXPECT_EQ(metric("parallel.replayed_events"),
              static_cast<double>(out.parallel.replayed_events));
    EXPECT_EQ(metric("parallel.log_bytes_peak"),
              static_cast<double>(out.parallel.log_bytes_peak));
  }
  // Checkpointing every consume must not replay more than replay-from-zero
  // does; that saving is the whole point of coast-forward restore.
  EXPECT_LE(replayed_with_checkpoints, replayed_without);
}

TEST(Checkpoint, RollbackDepthHistogramAccountsForEveryRollback) {
  const ir::Program prog = anysource_program(3, 4);
  StragglerFirstOracle oracle;
  obs::Recorder rec(obs::Options{}, 3);
  harness::RunConfig opt = base_config(3);
  opt.faults = fault::parse_fault_plan(kStragglerPlan);
  opt.schedule = harness::Schedule::kOptimistic;
  opt.checkpoint_interval = 4;
  opt.oracle = &oracle;
  opt.obs = &rec;
  harness::RunOutcome out = harness::run_program(prog, opt);
  ASSERT_TRUE(out.ok()) << out.diagnostic;
  ASSERT_GE(out.parallel.rollbacks, 1u);

  std::uint64_t histogram_total = 0;
  for (const std::uint64_t c : out.metrics.rollback_depth_hist) {
    histogram_total += c;
  }
  EXPECT_EQ(histogram_total, out.parallel.rollbacks)
      << "every rollback lands in exactly one depth bucket";
}

TEST(Checkpoint, TimeWarpPinnedAtParent) {
  // Every Time Warp counter of the deterministic shapes, captured before
  // the adaptive checkpoint interval and the MC-only exact GVT pass were
  // removed (at the fixed interval those builds ran when asked to). The
  // fixed countdown and the one GVT fold must reproduce them exactly; never
  // re-capture them to make an engine change pass.
  struct Pin {
    std::string shape;
    std::uint64_t digest, rollbacks, antis, replayed, checkpoints, fossil,
        gvt_passes, log_bytes_peak;
  };
  auto measure = [](const std::string& shape, const ir::Program& prog,
                    harness::RunConfig cfg) {
    harness::RunOutcome out = harness::run_program(prog, cfg);
    EXPECT_TRUE(out.ok()) << shape << ": " << out.diagnostic;
    const simk::ParallelStats& s = out.parallel;
    return Pin{shape, harness::run_digest(out), s.rollbacks,
               s.anti_messages, s.replayed_events, s.checkpoints_taken,
               s.fossil_finalized, s.gvt_passes, s.log_bytes_peak};
  };
  std::vector<Pin> got;
  // The MC straggler-first rollback fixture (DESIGN.md §15.6).
  const ir::Program straggler = anysource_program(3, 4);
  for (const std::uint64_t interval : kIntervals) {
    StragglerFirstOracle oracle;
    harness::RunConfig cfg = base_config(3);
    cfg.faults = fault::parse_fault_plan(kStragglerPlan);
    cfg.schedule = harness::Schedule::kOptimistic;
    cfg.checkpoint_interval = interval;
    cfg.oracle = &oracle;
    got.push_back(measure("mc-straggler@" + std::to_string(interval),
                          straggler, cfg));
  }
  // Long enough for the MC fold to advance GVT (its word covers the
  // in-flight lanes) and finalize records.
  {
    StragglerFirstOracle oracle;
    harness::RunConfig cfg = base_config(3);
    cfg.faults = fault::parse_fault_plan(kStragglerPlan);
    cfg.schedule = harness::Schedule::kOptimistic;
    cfg.checkpoint_interval = 4;
    cfg.oracle = &oracle;
    got.push_back(
        measure("mc-straggler-200@4", anysource_program(3, 200), cfg));
  }
  // One worker, mid-pass folds without a wildcard.
  {
    apps::AppSpec sp;
    sp.name = "nas_sp";
    sp.options = {{"steps", "8"}};
    harness::RunConfig cfg = base_config(16);
    cfg.schedule = harness::Schedule::kOptimistic;
    got.push_back(measure("nas_sp-16", apps::build_app(sp, 16), cfg));
  }
  // One worker, rendezvous: a wildcard receive of an RTS rolls back
  // without an oracle.
  {
    apps::SampleConfig c;
    c.pattern = apps::SamplePattern::kAnySource;
    c.iterations = 5;
    c.msg_doubles = 256;
    c.work_iters = 1000;
    harness::RunConfig cfg = base_config(8);
    cfg.machine = harness::parse_machine_spec("ibm_sp[eager_threshold=0]");
    cfg.schedule = harness::Schedule::kOptimistic;
    got.push_back(measure("anysource-8-rndv", apps::make_sample(c), cfg));
  }
  // One worker, 64 ranks: the root takes 1,260 rollback-free wildcard
  // consumptions, enough for the removed controller to have stretched
  // its interval.
  apps::AppSpec gather;
  gather.name = "sample";
  gather.options = {{"pattern", "anysource"},
                    {"iters", "20"},
                    {"work", "10"},
                    {"msg-doubles", "64"}};
  const ir::Program wide = apps::build_app(gather, 64);
  for (const int workers : {0, 1}) {
    harness::RunConfig cfg = base_config(64);
    cfg.schedule = harness::Schedule::kOptimistic;
    cfg.threads = workers;
    got.push_back(
        measure("anysource-64@w" + std::to_string(workers), wide, cfg));
  }

  // shape, digest, rollbacks, anti-messages, replayed events, checkpoints,
  // fossil-finalized, gvt_passes, log_bytes_peak.
  const std::vector<Pin> want = {
      {"mc-straggler@1", 0x414862bf5bdb39c9ULL, 4, 0, 0, 24, 0, 0, 4864},
      {"mc-straggler@4", 0x414862bf5bdb39c9ULL, 4, 0, 6, 6, 0, 0, 4864},
      {"mc-straggler@64", 0x414862bf5bdb39c9ULL, 4, 0, 6, 0, 0, 0, 4864},
      {"mc-straggler@0", 0x414862bf5bdb39c9ULL, 4, 0, 6, 0, 0, 0, 4864},
      {"mc-straggler-200@4", 0x4b3432b1c4ec8783ULL, 200, 0, 299, 7565, 232,
       2, 243200},
      // nas_sp has no wildcard, so no rank saves state: its 20 checkpoints
      // and 22,262,368-byte log peak at the parent are gone.
      {"nas_sp-16", 0x626e98bfcb8dba2dULL, 0, 0, 0, 0, 0, 3, 0},
      {"anysource-8-rndv", 0xc71a6bf209973dd4ULL, 5, 8, 92, 0, 0, 0, 78400},
      {"anysource-64@w0", 0x6ef770885bcd4208ULL, 0, 0, 0, 19, 0, 0, 766080},
      {"anysource-64@w1", 0x6ef770885bcd4208ULL, 0, 0, 0, 19, 0, 0, 766080},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Pin& g = got[i];
    const Pin& w = want[i];
    ASSERT_EQ(g.shape, w.shape);
    EXPECT_EQ(g.digest, w.digest) << g.shape;
    EXPECT_EQ(g.rollbacks, w.rollbacks) << g.shape;
    EXPECT_EQ(g.antis, w.antis) << g.shape;
    EXPECT_EQ(g.replayed, w.replayed) << g.shape;
    EXPECT_EQ(g.checkpoints, w.checkpoints) << g.shape;
    EXPECT_EQ(g.fossil, w.fossil) << g.shape;
    EXPECT_EQ(g.gvt_passes, w.gvt_passes) << g.shape;
    EXPECT_EQ(g.log_bytes_peak, w.log_bytes_peak) << g.shape;
  }
}

// ---------------------------------------------------------------------------
// Payload-free arrays in checkpoint blobs
// ---------------------------------------------------------------------------

TEST(Checkpoint, PayloadFreeArrayCarriesNoBytes) {
  // The AM form of the anysource gather: both of its arrays are dead, so
  // every transfer goes through the dummy buffer, a payload-free array of
  // kDummyBytes per rank that blobs describe but do not copy.
  constexpr std::size_t kDummyBytes = 4096 * sizeof(double);
  apps::AppSpec spec;
  spec.name = "sample";
  spec.options = {{"pattern", "anysource"},
                  {"iters", "4"},
                  {"work", "2000"},
                  {"msg-doubles", "4096"}};
  const core::CompileResult compiled =
      core::compile(apps::build_app(spec, 3));
  const ir::Program& prog = compiled.simplified.program;
  harness::RunConfig am = base_config(3);
  am.mode = harness::Mode::kAnalytical;
  for (const auto& name : compiled.simplified.params) am.params[name] = 1e-9;
  const harness::RunOutcome ref = harness::run_program(prog, am);
  ASSERT_TRUE(ref.ok()) << ref.diagnostic;
  const std::uint64_t want = harness::run_digest(ref);

  harness::RunConfig tw = am;
  tw.schedule = harness::Schedule::kOptimistic;
  tw.checkpoint_interval = 1;
  {
    tw.threads = 2;
    const harness::RunOutcome out = harness::run_program(prog, tw);
    ASSERT_TRUE(out.ok()) << out.diagnostic;
    EXPECT_EQ(harness::run_digest(out), want)
        << harness::describe_run_divergence(ref, out);
    EXPECT_GE(out.parallel.checkpoints_taken, 1u);
    EXPECT_EQ(out.peak_target_bytes, ref.peak_target_bytes);
  }
  {
    // A forced straggler: the rollback restores a blob holding the dummy's
    // sizes only and rebuilds its ledger charge.
    StragglerFirstOracle oracle;
    harness::RunConfig opt = tw;
    opt.threads = 0;
    opt.faults = fault::parse_fault_plan(kStragglerPlan);
    opt.oracle = &oracle;
    harness::RunConfig opt_ref = am;
    opt_ref.faults = opt.faults;
    const harness::RunOutcome out = harness::run_program(prog, opt);
    ASSERT_TRUE(out.ok()) << out.diagnostic;
    EXPECT_GE(out.parallel.rollbacks, 1u);
    EXPECT_EQ(harness::run_digest(out), digest_of(prog, opt_ref));
  }

  // The same 2-worker run on a bare engine, whose retained checkpoints
  // show the blob sizes.
  const ir::Plan plan(prog);
  smpi::World world(smpi::World::Options{}, 3);
  for (const auto& [name, value] : am.params) world.set_param(name, value);
  simk::EngineConfig ec;
  ec.num_processes = 3;
  ec.host_workers = 2;
  ec.optimistic = true;
  ec.checkpoint_interval = 1;
  simk::Engine engine(ec);
  engine.set_wildcard_min_latency(world.wildcard_latency_floor());
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    ir::execute(plan, comm);
  });
  engine.run();
  std::size_t blobs = 0;
  for (int r = 0; r < 3; ++r) {
    for (const std::size_t bytes : engine.opt_debug(r).checkpoint_blob_bytes) {
      ++blobs;
      EXPECT_LT(bytes, kDummyBytes) << "rank " << r;
    }
  }
  EXPECT_GE(blobs, 1u);
}

// ---------------------------------------------------------------------------
// Log-memory bound
// ---------------------------------------------------------------------------

TEST(Checkpoint, CheckpointsBoundConsumptionLogMemory) {
  // The rendezvous anysource gather: its root commits wildcards from its
  // first consumption on, so it saves state (DESIGN.md §15.1), and every
  // sender waits for its clear-to-send, so GVT advances mid-run.
  apps::SampleConfig c;
  c.pattern = apps::SamplePattern::kAnySource;
  c.iterations = 300;
  c.msg_doubles = 256;
  c.work_iters = 1000;
  const ir::Program prog = apps::make_sample(c);

  auto peak_at = [&prog](std::uint64_t interval) {
    harness::RunConfig cfg = base_config(8);
    cfg.machine = harness::parse_machine_spec("ibm_sp[eager_threshold=0]");
    cfg.schedule = harness::Schedule::kOptimistic;
    cfg.checkpoint_interval = interval;
    harness::RunOutcome out = harness::run_program(prog, cfg);
    EXPECT_TRUE(out.ok()) << out.diagnostic;
    EXPECT_EQ(out.parallel.checkpoints_taken > 0, interval != 0);
    return out.parallel.log_bytes_peak;
  };

  const std::uint64_t peak_tight = peak_at(1);
  const std::uint64_t peak_unpruned = peak_at(0);
  EXPECT_GT(peak_tight, 0u);
  EXPECT_LT(peak_tight, peak_unpruned)
      << "with checkpoints every consume, GVT pruning must keep the "
         "retained log strictly below the full-history footprint";
}

// ---------------------------------------------------------------------------
// Engine-level fossil-pruning invariants
// ---------------------------------------------------------------------------

TEST(Checkpoint, FossilCollectionPrunesBehindCommittedCheckpoints) {
  constexpr int kProcs = 4;
  constexpr std::int64_t kIters = 1024;
  simk::EngineConfig cfg;
  cfg.num_processes = kProcs;
  cfg.optimistic = true;
  cfg.checkpoint_interval = 4;
  simk::Engine e(cfg);
  e.set_body([](simk::Process& p) {
    const int r = p.rank();
    const int next = (r + 1) % kProcs;
    std::int64_t start = 0;
    if (const std::vector<std::uint8_t>* blob = p.pending_restore()) {
      BlobReader br(*blob);
      start = br.i64();
      p.clear_pending_restore();
    }
    for (std::int64_t i = start; i < kIters; ++i) {
      p.advance(vtime_from_us(1));
      simk::Message m;
      m.src = r;
      m.dst = next;
      m.tag = 5;
      m.sent_at = p.now();
      m.arrival = p.now() + vtime_from_us(2);
      p.send(std::move(m));
      // ANY_SOURCE although only rank r - 1 sends tag 5: a wildcard commit
      // is the first consumption, so every rank saves state from rank
      // start.
      simk::MatchSpec spec;
      spec.tag = 5;
      simk::Message got = p.blocking_match(spec);
      p.lift_clock(got.arrival);
      if (p.checkpoint_due()) {
        std::vector<std::uint8_t> blob;
        BlobWriter w(blob);
        w.i64(i + 1);  // resume after this iteration
        p.take_checkpoint(std::move(blob));
      }
    }
  });
  e.run();

  for (int r = 0; r < kProcs; ++r) {
    const simk::Engine::OptDebug d = e.opt_debug(r);
    // Absolute accounting: base + retained = total committed consumes.
    EXPECT_EQ(d.consumed_base + d.consumed_size,
              static_cast<std::uint64_t>(kIters))
        << "rank " << r;
    // GVT passed checkpoints mid-run, so the log must actually have been
    // pruned — peak memory O(interval), not O(history).
    EXPECT_GT(d.consumed_base, 0u) << "rank " << r;
    EXPECT_GE(d.fossil_cursor, d.consumed_base) << "rank " << r;
    // Pruning may only advance the base to a committed checkpoint's
    // cursor, keeping that checkpoint as the oldest restore point: no
    // surviving checkpoint sits below the base, and the oldest one marks
    // exactly where the retained log begins.
    ASSERT_FALSE(d.checkpoint_cursors.empty()) << "rank " << r;
    EXPECT_EQ(d.checkpoint_cursors.front(), d.consumed_base) << "rank " << r;
    for (const std::uint64_t cur : d.checkpoint_cursors) {
      EXPECT_GE(cur, d.consumed_base) << "rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Mid-round GVT on several workers
// ---------------------------------------------------------------------------

/// Whether some rank's log lost its oldest entries, and the consumption-log
/// bytes left at the run's end. A clean rank's consumed_base only counts its
/// consumptions; the saving ranks of these shapes all save from rank start.
bool pruned(const testutil::TimeWarpRun& run) {
  for (const simk::Engine::OptDebug& d : run.ranks) {
    if (d.saving && d.consumed_base > 0) return true;
  }
  return false;
}
std::uint64_t retained_bytes(const testutil::TimeWarpRun& run) {
  std::uint64_t n = 0;
  for (const simk::Engine::OptDebug& d : run.ranks) n += d.log_bytes;
  return n;
}

/// The rendezvous anysource gather at 16 ranks (32 KiB messages): its root
/// and every sender save state (DESIGN.md §15.1), and every send waits for
/// the root's clear-to-send, so the run takes many slices.
std::vector<AppCase> gvt_apps() {
  apps::AppSpec spec;
  spec.name = "sample";
  spec.options = {{"pattern", "anysource"},
                  {"iters", "20"},
                  {"work", "10"},
                  {"msg-doubles", "4096"}};
  std::vector<AppCase> cases;
  cases.push_back({"anysource-rndv", apps::build_app(spec, 16), 16});
  return cases;
}

TEST(Checkpoint, ThreadedGvtAdvancesWithinOneRound) {
  // A threaded run is one round (two when a stuck wildcard ends it), so a
  // GVT that advanced only at barriers would never let fossil collection
  // prune a log before the run ends. The published floor words drop each
  // lane message from their in-transit term once it is delivered, so the
  // mid-round fold keeps advancing.
  for (const AppCase& app : gvt_apps()) {
    const std::vector<VTime> want =
        testutil::run_time_warp(app.prog, app.nprocs, 1).per_rank;
    for (int workers : {2, 4}) {
      const testutil::TimeWarpRun run =
          testutil::run_time_warp(app.prog, app.nprocs, workers);
      EXPECT_EQ(run.per_rank, want) << app.name << " @" << workers;
      EXPECT_LE(run.stats.rounds, 2u) << app.name << " @" << workers;
      EXPECT_GT(run.stats.gvt_passes, 1u) << app.name << " @" << workers;
      EXPECT_TRUE(pruned(run))
          << app.name << " @" << workers << ": no rank's log was pruned";
    }
  }
}

TEST(Checkpoint, ThreadedLogPeakCoversRetainedLog) {
  // Workers prune their own ranks' logs mid-round, each at its own time;
  // the reported peak sums each worker's own peak, so it can never fall
  // below what the run still holds at its end.
  const std::vector<AppCase> apps = gvt_apps();
  const AppCase& app = apps.front();
  for (int workers : {2, 4}) {
    const testutil::TimeWarpRun run =
        testutil::run_time_warp(app.prog, app.nprocs, workers);
    ASSERT_TRUE(pruned(run)) << "@" << workers;
    EXPECT_GT(retained_bytes(run), 0u) << "@" << workers;
    EXPECT_GE(run.stats.log_bytes_peak, retained_bytes(run)) << "@" << workers;
  }
}

// ---------------------------------------------------------------------------
// State saving only where a rollback can reach (DESIGN.md §15.1)
// ---------------------------------------------------------------------------

TEST(Checkpoint, StateSavingOnlyWhereRollbackCanReach) {
  // No rollback can reach a rank that never commits a wildcard and never
  // consumes a message whose sender saves state: on these wildcard-free
  // programs Time Warp logs nothing and takes no checkpoint.
  std::vector<AppCase> cases = small_apps();
  cases.pop_back();  // the anysource gather, checked below
  apps::SampleConfig nn;
  nn.iterations = 2;
  nn.msg_doubles = 64;
  nn.work_iters = 2000;
  cases.push_back({"sample-nn", apps::make_sample(nn), 8});
  for (const AppCase& app : cases) {
    const std::uint64_t want = digest_of(app.prog, base_config(app.nprocs));
    for (int workers : {0, 2, 4}) {
      harness::RunConfig cfg = base_config(app.nprocs);
      cfg.schedule = harness::Schedule::kOptimistic;
      cfg.threads = workers;
      const harness::RunOutcome out = harness::run_program(app.prog, cfg);
      ASSERT_TRUE(out.ok()) << out.diagnostic;
      EXPECT_EQ(harness::run_digest(out), want)
          << app.name << " workers=" << workers;
      EXPECT_EQ(out.parallel.checkpoints_taken, 0u)
          << app.name << " workers=" << workers;
      EXPECT_EQ(out.parallel.log_bytes_peak, 0u)
          << app.name << " workers=" << workers;
    }
  }
  // The anysource gather: only its root commits wildcards. With rendezvous
  // messages every sender's first consumption is the root's clear-to-send,
  // so every rank saves from rank start.
  for (const char* doubles : {"64", "4096"}) {
    const bool rendezvous = std::string(doubles) == "4096";
    apps::AppSpec spec;
    spec.name = "sample";
    spec.options = {{"pattern", "anysource"},
                    {"iters", "4"},
                    {"work", "10"},
                    {"msg-doubles", doubles}};
    const ir::Program prog = apps::build_app(spec, 8);
    for (int workers : {1, 2, 4}) {
      const testutil::TimeWarpRun run = testutil::run_time_warp(prog, 8, workers);
      for (int r = 0; r < 8; ++r) {
        const simk::Engine::OptDebug& d = run.ranks[static_cast<std::size_t>(r)];
        EXPECT_EQ(d.saving, r == 0 || rendezvous)
            << "msg-doubles=" << doubles << " workers=" << workers
            << " rank " << r;
        if (!d.saving) {
          EXPECT_EQ(d.consumed_size, 0u) << "rank " << r;
          EXPECT_TRUE(d.checkpoint_cursors.empty()) << "rank " << r;
        }
      }
      EXPECT_EQ(run.deferred_admissions, 0u);
    }
  }
}

/// Two clean ranks consume an untainted message first, so their speculative
/// step has no restore point and must wait for the bound:
///  * rank 1 receives from rank 2 (fixed source), then wildcard-receives
///    twice (rank 0's message, then rank 3's);
///  * rank 3 shifts with rank 2 (sends, then receives), then receives from
///    rank 0, a wildcard root whose sends are tainted.
/// Rank 0 wildcard-receives rank 1's early message or rank 2's late one,
/// sends, then receives the other: a delivery order that commits rank 2's
/// first rolls rank 0 back and cancels the tainted messages ranks 1 and 3
/// may be waiting on.
ir::Program deferred_steps_program() {
  using sym::Expr;
  auto I = [](std::int64_t v) { return Expr::integer(v); };
  ir::ProgramBuilder b("deferred_steps");
  const Expr myid = b.get_rank("myid");
  const Expr msg = b.decl_int("MSG", I(4));
  b.decl_array("buf", {msg});
  b.if_then(sym::eq(myid, I(0)), [&] {
    b.recv("buf", I(-1), msg, I(0), 3);
    b.delay(Expr::real(20e-6));
    b.send("buf", I(3), msg, I(0), 4);
    b.send("buf", I(1), msg, I(0), 2);
    b.recv("buf", I(-1), msg, I(0), 3);
  });
  b.if_then(sym::eq(myid, I(1)), [&] {
    b.send("buf", I(0), msg, I(0), 3);
    b.recv("buf", I(2), msg, I(0), 1);
    b.recv("buf", I(-1), msg, I(0), 2);
    b.delay(Expr::real(5e-6));
    b.recv("buf", I(-1), msg, I(0), 2);
  });
  b.if_then(sym::eq(myid, I(2)), [&] {
    b.delay(Expr::real(10e-6));
    b.send("buf", I(0), msg, I(0), 3);
    b.send("buf", I(1), msg, I(0), 1);
    b.send("buf", I(3), msg, I(0), 5);
    b.recv("buf", I(3), msg, I(0), 5);
  });
  b.if_then(sym::eq(myid, I(3)), [&] {
    b.send("buf", I(2), msg, I(0), 5);
    b.recv("buf", I(2), msg, I(0), 5);
    b.recv("buf", I(0), msg, I(0), 4);
    b.send("buf", I(1), msg, I(0), 2);
  });
  return b.take();
}

TEST(Checkpoint, CleanRankPastItsFirstConsumptionWaitsForTheBound) {
  const ir::Program prog = deferred_steps_program();
  const std::uint64_t want = digest_of(prog, base_config(4));
  for (int workers : {1, 2, 4}) {
    harness::RunConfig cfg = base_config(4);
    cfg.schedule = harness::Schedule::kOptimistic;
    cfg.threads = workers;
    EXPECT_EQ(digest_of(prog, cfg), want) << "workers=" << workers;
    // Each step was admitted once and armed the checkpoint that starts its
    // rank's saving; rank 1's second wildcard then commits on sight.
    const testutil::TimeWarpRun run = testutil::run_time_warp(prog, 4, workers);
    EXPECT_EQ(run.deferred_admissions, 2u) << "workers=" << workers;
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(run.ranks[static_cast<std::size_t>(r)].saving, r != 2)
          << "workers=" << workers << " rank " << r;
    }
  }
  // Every explored delivery order commits the conservative digest.
  mc::CheckOptions opts;
  opts.base = base_config(4);
  opts.base.schedule = harness::Schedule::kOptimistic;
  const mc::CheckReport rep = mc::check_program(prog, opts);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_TRUE(rep.ok()) << (rep.divergences.empty()
                                ? ""
                                : rep.divergences.front().description);
  EXPECT_GT(rep.stats.schedules, 1u);
}

// ---------------------------------------------------------------------------
// Config surface
// ---------------------------------------------------------------------------

TEST(Checkpoint, TuningKnobsRoundTripThroughConfigJson) {
  harness::RunConfig cfg;
  cfg.checkpoint_interval = 7;
  const json::Value j = harness::run_config_to_json(cfg);
  const harness::RunConfig back = harness::run_config_from_json(j);
  EXPECT_EQ(back.checkpoint_interval, 7u);

  // "checkpoint_interval": 0 is the canonical spelling of "off".
  harness::RunConfig off;
  off.checkpoint_interval = 0;
  EXPECT_EQ(harness::run_config_from_json(harness::run_config_to_json(off))
                .checkpoint_interval,
            0u);
}

}  // namespace
}  // namespace stgsim
