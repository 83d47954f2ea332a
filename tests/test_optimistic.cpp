// Tests for the optimistic (Time Warp) scheduler: committed digests must
// be bit-identical to the sequential conservative scheduler across apps,
// worker counts and topologies; a straggler fault plan must force real
// rollbacks (observable through parallel.rollbacks); rollback must undo
// speculative sends with anti-messages (cascading into downstream ranks);
// and the commit-before-GVT injection must reintroduce the race the
// protocol exists to fix.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/nas_sp.hpp"
#include "apps/registry.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "fault/fault.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace stgsim {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

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

// ---------------------------------------------------------------------------
// Digest identity: all four apps x workers x topologies
// ---------------------------------------------------------------------------

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

TEST(Optimistic, DigestsMatchSequentialAcrossWorkersAndTopologies) {
  const std::vector<std::string> machines = {
      "ibm_sp", "ibm_sp[topo=torus]"};
  for (const AppCase& app : small_apps()) {
    for (const std::string& mspec : machines) {
      harness::RunConfig ref = base_config(app.nprocs);
      ref.machine = harness::parse_machine_spec(mspec);
      const std::uint64_t want = digest_of(app.prog, ref);

      // Sequential-hosted optimistic (threads == 0).
      harness::RunConfig seq_opt = ref;
      seq_opt.schedule = harness::Schedule::kOptimistic;
      EXPECT_EQ(digest_of(app.prog, seq_opt), want)
          << app.name << " seq-optimistic on " << mspec;

      // Threaded optimistic: workers free-run with no lookahead window;
      // GVT + rollback must still commit the sequential digest.
      for (int workers : {2, 4, 8}) {
        harness::RunConfig thr = ref;
        thr.schedule = harness::Schedule::kOptimistic;
        thr.threads = workers;
        EXPECT_EQ(digest_of(app.prog, thr), want)
            << app.name << " x " << workers << " workers on " << mspec;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Straggler-forced rollback (deterministic, via the MC-mode engine)
// ---------------------------------------------------------------------------

/// Delivery order chosen so the straggler's (rank 1's) fault-degraded
/// message reaches the wildcard root and is speculatively committed
/// before any other sender's earlier-arriving traffic lands — the
/// canonical Time Warp causality violation, forced deterministically.
class StragglerFirstOracle : public simk::ScheduleOracle {
 public:
  std::size_t choose(const std::vector<simk::ChoiceOption>& options) override {
    using K = simk::ChoiceOption::Kind;
    // 1. Ship the straggler's messages into rank 0 first.
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].kind == K::kDeliver && options[i].src == 1 &&
          options[i].dst == 0) {
        return i;
      }
    }
    // 2. Let rank 0 run (and commit the straggler's message on sight).
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].kind == K::kResume && options[i].rank <= 1) return i;
    }
    // 3. Only then release everyone else's earlier-arriving messages.
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].kind == K::kDeliver) return i;
    }
    // 4. Resume the highest-numbered ready rank (downstream consumers
    //    before remaining senders, to maximize speculative damage).
    std::size_t best = 0;
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i].rank >= options[best].rank) best = i;
    }
    return best;
  }
};

ir::Program anysource_program(int nprocs) {
  apps::AppSpec spec;
  spec.name = "sample";
  spec.options = {{"pattern", "anysource"},
                  {"iters", "1"},
                  {"work", "2000"},
                  {"msg-doubles", "64"}};
  return apps::build_app(spec, nprocs);
}

/// Degrading the 1->0 link makes rank 1 the straggler: its message is in
/// flight the longest, so a commit-on-sight of it is provably premature.
const char* kStragglerPlan = "link:src=1,dst=0,latency=8";

TEST(Optimistic, StragglerFaultPlanForcesRollbackAndDigestStillMatches) {
  const ir::Program prog = anysource_program(3);

  harness::RunConfig ref = base_config(3);
  ref.faults = fault::parse_fault_plan(kStragglerPlan);
  const std::uint64_t want = digest_of(prog, ref);

  StragglerFirstOracle oracle;
  obs::Recorder rec(obs::Options{}, 3);
  harness::RunConfig opt = ref;
  opt.schedule = harness::Schedule::kOptimistic;
  opt.oracle = &oracle;
  opt.obs = &rec;
  harness::RunOutcome out = harness::run_program(prog, opt);
  ASSERT_TRUE(out.ok()) << out.diagnostic;

  EXPECT_EQ(harness::run_digest(out), want)
      << "rollback must recover the conservative commit order";
  EXPECT_GE(out.parallel.rollbacks, 1u)
      << "the straggler plan must actually force a rollback";

  // The counter also surfaces through the obs metrics contract.
  double metric = -1.0;
  for (const auto& [name, value] : out.metrics.scalars) {
    if (name == "parallel.rollbacks") metric = value;
  }
  EXPECT_EQ(metric, static_cast<double>(out.parallel.rollbacks));
}

// ---------------------------------------------------------------------------
// Anti-messages: rollback undoes speculative sends, cascading downstream
// ---------------------------------------------------------------------------

/// Rank 0 wildcard-gathers two messages and forwards to rank 3 after the
/// first: a premature first commit means the forward itself was
/// speculative and must be annihilated (cascading into rank 3) when the
/// earlier message finally lands.
ir::Program forwarding_program() {
  ir::ProgramBuilder b("optimistic_forward");
  Expr myid = b.get_rank("myid");
  Expr msg = b.decl_int("MSG", I(16));
  b.decl_array("buf", {msg});
  b.if_then(sym::eq(myid, I(0)), [&] {
    b.recv("buf", I(-1), msg, I(0), 7);
    b.send("buf", I(3), msg, I(0), 9);
    b.recv("buf", I(-1), msg, I(0), 7);
  });
  b.if_then(sym::eq(myid, I(1)), [&] { b.send("buf", I(0), msg, I(0), 7); });
  b.if_then(sym::eq(myid, I(2)), [&] { b.send("buf", I(0), msg, I(0), 7); });
  b.if_then(sym::eq(myid, I(3)), [&] { b.recv("buf", I(0), msg, I(0), 9); });
  return b.take();
}

TEST(Optimistic, RollbackCancelsSpeculativeSendsWithAntiMessages) {
  const ir::Program prog = forwarding_program();

  harness::RunConfig ref = base_config(4);
  ref.faults = fault::parse_fault_plan(kStragglerPlan);
  harness::RunOutcome ref_out = harness::run_program(prog, ref);
  ASSERT_TRUE(ref_out.ok()) << ref_out.diagnostic;
  const std::uint64_t want = harness::run_digest(ref_out);

  StragglerFirstOracle oracle;
  harness::RunConfig opt = ref;
  opt.schedule = harness::Schedule::kOptimistic;
  opt.oracle = &oracle;
  harness::RunOutcome out = harness::run_program(prog, opt);
  ASSERT_TRUE(out.ok()) << out.diagnostic;

  EXPECT_EQ(harness::run_digest(out), want)
      << harness::describe_run_divergence(ref_out, out);
  EXPECT_GE(out.parallel.rollbacks, 1u);
  EXPECT_GE(out.parallel.anti_messages, 1u)
      << "the speculative 0->3 forward must be cancelled by an anti-message";
}

// ---------------------------------------------------------------------------
// Injected commit-before-GVT race
// ---------------------------------------------------------------------------

TEST(Optimistic, CommitBeforeGvtInjectionDivergesDeterministically) {
  const ir::Program prog = anysource_program(3);

  harness::RunConfig ref = base_config(3);
  ref.faults = fault::parse_fault_plan(kStragglerPlan);
  const std::uint64_t want = digest_of(prog, ref);

  // With records and straggler detection disabled, the premature commit
  // of the straggler's message becomes permanent: the run completes but
  // commits a different receive order than the conservative scheduler.
  StragglerFirstOracle oracle;
  harness::RunConfig bad = ref;
  bad.schedule = harness::Schedule::kOptimistic;
  bad.inject = simk::Inject::kCommitBeforeGvt;
  bad.oracle = &oracle;
  harness::RunOutcome out = harness::run_program(prog, bad);
  ASSERT_TRUE(out.ok()) << out.diagnostic;
  EXPECT_NE(harness::run_digest(out), want)
      << "the injection must reintroduce the wildcard race";
  EXPECT_EQ(out.parallel.rollbacks, 0u)
      << "with the injection active nothing is ever detected or rolled back";
}

// ---------------------------------------------------------------------------
// Config surface
// ---------------------------------------------------------------------------

TEST(Optimistic, ScheduleNamesRoundTrip) {
  EXPECT_STREQ(harness::schedule_name(harness::Schedule::kConservative),
               "conservative");
  EXPECT_STREQ(harness::schedule_name(harness::Schedule::kOptimistic),
               "optimistic");
  harness::Schedule s = harness::Schedule::kConservative;
  EXPECT_TRUE(harness::parse_schedule("optimistic", &s));
  EXPECT_EQ(s, harness::Schedule::kOptimistic);
  EXPECT_TRUE(harness::parse_schedule("conservative", &s));
  EXPECT_EQ(s, harness::Schedule::kConservative);
  EXPECT_FALSE(harness::parse_schedule("timewarp", &s));
}

}  // namespace
}  // namespace stgsim
