// Unit tests for the IR interpreter: scalar semantics, control flow,
// arrays, kernels (cost model coupling, declared-access enforcement,
// data-dependent branches), timers and profilers.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "smpi/smpi.hpp"

namespace stgsim::ir {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

struct RunResult {
  simk::RunResult engine;
  smpi::RankStats stats;
};

RunResult run(const Program& prog, int nprocs = 1,
              const ExecOptions& opts = {},
              smpi::World::Options wopts = {}) {
  smpi::World world(wopts, nprocs);
  simk::EngineConfig ec;
  ec.num_processes = nprocs;
  const Plan plan(prog);
  simk::Engine engine(ec);
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    execute(plan, comm, opts);
  });
  auto r = engine.run();
  return {r, world.stats(0)};
}

TEST(Interp, ScalarDeclAssignAndArithmetic) {
  ProgramBuilder b("t");
  b.get_size("P");
  b.get_rank("myid");
  Expr x = b.decl_int("x", I(3));
  b.assign("x", x * 2 + 1);
  Expr y = b.decl_real("y", Expr::real(0.5));
  b.assign("y", y + x);  // x = 7 by now
  KernelSpec probe;
  probe.task = "probe";
  probe.iters = I(1);
  probe.reads = {"x", "y"};
  probe.writes = {"ok"};
  probe.body = [](KernelCtx& ctx) {
    EXPECT_EQ(ctx.scalar("x").as_int(), 7);
    EXPECT_DOUBLE_EQ(ctx.scalar("y").as_real(), 7.5);
    ctx.set_scalar("ok", sym::Value(std::int64_t{1}));
  };
  b.decl_int("ok", I(0));
  b.compute(std::move(probe));
  run(b.take());
}

TEST(Interp, IntegerScalarsStayIntegral) {
  ProgramBuilder b("t");
  b.decl_int("x", I(5));
  b.assign("x", Expr::real(2.0));  // real value into integer scalar
  b.decl_int("ok", I(0));
  KernelSpec probe;
  probe.task = "p";
  probe.iters = I(1);
  probe.reads = {"x"};
  probe.writes = {"ok"};
  probe.body = [](KernelCtx& ctx) {
    EXPECT_TRUE(ctx.scalar("x").is_int());
    ctx.set_scalar("ok", sym::Value(std::int64_t{1}));
  };
  b.compute(std::move(probe));
  run(b.take());
}

TEST(Interp, AssignToUndeclaredScalarFails) {
  ProgramBuilder b("t");
  b.assign("ghost", I(1));
  Program p = b.take();
  EXPECT_THROW(run(p), CheckError);
}

TEST(Interp, ForLoopInclusiveAndEmpty) {
  ProgramBuilder b("t");
  b.decl_int("sum", I(0));
  b.for_loop("i", I(1), I(4), [&](Expr i) {
    b.assign("sum", Expr::var("sum") + i);
  });
  b.for_loop("j", I(5), I(2), [&](Expr j) {  // empty range
    b.assign("sum", Expr::var("sum") + j * 1000);
  });
  b.decl_int("ok", I(0));
  KernelSpec probe;
  probe.task = "p";
  probe.iters = I(1);
  probe.reads = {"sum"};
  probe.writes = {"ok"};
  probe.body = [](KernelCtx& ctx) {
    EXPECT_EQ(ctx.scalar("sum").as_int(), 10);
    ctx.set_scalar("ok", sym::Value(std::int64_t{1}));
  };
  b.compute(std::move(probe));
  run(b.take());
}

TEST(Interp, IfElseTakesCorrectBranch) {
  ProgramBuilder b("t");
  Expr myid = b.get_rank("myid");
  b.decl_int("path", I(0));
  b.if_then_else(sym::eq(myid, I(0)), [&] { b.assign("path", I(1)); },
                 [&] { b.assign("path", I(2)); });
  Program p = b.take();
  // Rank 0 takes then-branch; verified via branch profiler.
  BranchProfiler profiler;
  ExecOptions opts;
  opts.branches = &profiler;
  run(p, 1, opts);
  const auto probs = profiler.probabilities();
  ASSERT_EQ(probs.size(), 1u);
  EXPECT_DOUBLE_EQ(probs.begin()->second, 1.0);
}

TEST(Interp, BranchProfilerCountsFractions) {
  ProgramBuilder b("t");
  b.decl_int("x", I(0));
  b.for_loop("i", I(1), I(10), [&](Expr i) {
    b.if_then(sym::eq(sym::imod(i, I(5)), I(0)),
              [&] { b.assign("x", Expr::var("x") + 1); });
  });
  BranchProfiler profiler;
  ExecOptions opts;
  opts.branches = &profiler;
  run(b.take(), 1, opts);
  const auto probs = profiler.probabilities();
  ASSERT_EQ(probs.size(), 1u);
  EXPECT_DOUBLE_EQ(probs.begin()->second, 0.2);  // i = 5, 10 of 10
}

TEST(Interp, KernelCostUsesIterationCountAndFlops) {
  auto time_for = [](std::int64_t iters, double flops) {
    ProgramBuilder b("t");
    b.decl_array("A", {I(8)});
    KernelSpec k;
    k.task = "k";
    k.iters = I(iters);
    k.flops_per_iter = flops;
    k.writes = {"A"};
    b.compute(std::move(k));
    return run(b.take()).engine.completion;
  };
  const VTime t1 = time_for(1000, 2.0);
  const VTime t2 = time_for(2000, 2.0);
  const VTime t3 = time_for(1000, 4.0);
  EXPECT_NEAR(static_cast<double>(t2), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
  EXPECT_NEAR(static_cast<double>(t3), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
}

TEST(Interp, KernelCostGrowsWithWorkingSet) {
  auto time_for = [](std::int64_t elems) {
    ProgramBuilder b("t");
    b.decl_array("A", {I(elems)});
    KernelSpec k;
    k.task = "k";
    k.iters = I(100000);
    k.flops_per_iter = 1.0;
    k.writes = {"A"};
    b.compute(std::move(k));
    return run(b.take()).engine.completion;
  };
  // Same iteration count; bigger working set -> worse cache factor.
  EXPECT_GT(time_for(4 * 1024 * 1024), time_for(1024));
}

TEST(Interp, DataDependentBranchChargesExtraFlops) {
  auto time_with_fraction = [](double fraction) {
    ProgramBuilder b("t");
    b.decl_array("A", {I(64)});
    KernelSpec k;
    k.task = "k";
    k.iters = I(100000);
    k.flops_per_iter = 10.0;
    k.extra_flops_per_iter = 10.0;
    k.writes = {"A"};
    k.branch_fraction = [fraction](KernelCtx&) { return fraction; };
    b.compute(std::move(k));
    return run(b.take()).engine.completion;
  };
  const auto t0 = static_cast<double>(time_with_fraction(0.0));
  const auto t1 = static_cast<double>(time_with_fraction(1.0));
  EXPECT_NEAR(t1 / t0, 2.0, 0.01);
}

TEST(Interp, NegativeIterationCountIsRejected) {
  ProgramBuilder b("t");
  KernelSpec k;
  k.task = "k";
  k.iters = I(-5);
  b.compute(std::move(k));
  Program p = b.take();
  EXPECT_THROW(run(p), CheckError);
}

TEST(Interp, KernelAccessOutsideDeclaredSetsFails) {
  ProgramBuilder b("t");
  b.decl_array("A", {I(8)});
  b.decl_array("B", {I(8)});
  KernelSpec k;
  k.task = "k";
  k.iters = I(1);
  k.reads = {"A"};
  k.writes = {"A"};
  k.body = [](KernelCtx& ctx) {
    ctx.array("B");  // not declared in reads/writes
  };
  b.compute(std::move(k));
  Program p = b.take();
  EXPECT_THROW(run(p), CheckError);
}

TEST(Interp, ArrayExtentsEvaluateSymbolically) {
  ProgramBuilder b("t");
  Expr n = b.decl_int("n", I(6));
  b.decl_array("A", {n, n + 2});
  b.decl_int("ok", I(0));
  KernelSpec k;
  k.task = "k";
  k.iters = I(1);
  k.reads = {"A"};
  k.writes = {"ok"};
  k.body = [](KernelCtx& ctx) {
    EXPECT_EQ(ctx.array_elems("A"), 48u);
    EXPECT_EQ(ctx.array_extent("A", 0), 6);
    EXPECT_EQ(ctx.array_extent("A", 1), 8);
    ctx.set_scalar("ok", sym::Value(std::int64_t{1}));
  };
  b.compute(std::move(k));
  run(b.take());
}

TEST(Interp, CommSliceOutOfBoundsFails) {
  ProgramBuilder b("t");
  b.get_rank("myid");
  b.decl_array("A", {I(10)});
  b.if_then(sym::eq(Expr::var("myid"), I(0)),
            [&] { b.send("A", I(1), I(8), I(5), 0); });  // 5 + 8 > 10
  Program p = b.take();
  EXPECT_THROW(run(p, 2), CheckError);
}

TEST(Interp, TrackedMemoryMatchesDeclarations) {
  ProgramBuilder b("t");
  b.decl_array("A", {I(100)});            // 800 B
  b.decl_array("B", {I(10), I(10)}, 4);   // 400 B
  auto r = run(b.take());
  EXPECT_EQ(r.engine.peak_target_bytes, 1200u);
}

TEST(Interp, DelayStatementForwardsClock) {
  ProgramBuilder b("t");
  b.decl_real("w", Expr::real(1e-6));
  b.delay(Expr::var("w") * 1000);
  auto r = run(b.take());
  EXPECT_EQ(r.engine.completion, vtime_from_ms(1));
  EXPECT_EQ(r.stats.delays, 1u);
}

TEST(Interp, TimerStartStopFeedsRecorder) {
  Program prog("timer_test");
  {
    // Hand-build: timer around a delay.
    auto start = prog.make_stmt(StmtKind::kTimerStart);
    start->name = "task";
    auto delay = prog.make_stmt(StmtKind::kDelay);
    delay->e1 = Expr::real(2e-3);
    auto stop = prog.make_stmt(StmtKind::kTimerStop);
    stop->name = "task";
    stop->e1 = I(1000);
    prog.main().push_back(std::move(start));
    prog.main().push_back(std::move(delay));
    prog.main().push_back(std::move(stop));
  }
  TimerRecorder timers;
  ExecOptions opts;
  opts.timers = &timers;
  run(prog, 1, opts);
  const auto params = timers.to_params();
  ASSERT_TRUE(params.contains("w_task"));
  EXPECT_NEAR(params.at("w_task"), 2e-6, 1e-12);
}

TEST(Interp, TimerStopWithoutStartFails) {
  Program prog("bad_timer");
  auto stop = prog.make_stmt(StmtKind::kTimerStop);
  stop->name = "task";
  stop->e1 = I(1);
  prog.main().push_back(std::move(stop));
  EXPECT_THROW(run(prog), CheckError);
}

TEST(Interp, ProceduresShareTheCallersFrame) {
  ProgramBuilder b("t");
  b.decl_int("x", I(1));
  b.procedure("bump", [&] { b.assign("x", Expr::var("x") * 10); });
  b.call("bump");
  b.call("bump");
  b.decl_int("ok", I(0));
  KernelSpec probe;
  probe.task = "p";
  probe.iters = I(1);
  probe.reads = {"x"};
  probe.writes = {"ok"};
  probe.body = [](KernelCtx& ctx) {
    EXPECT_EQ(ctx.scalar("x").as_int(), 100);
    ctx.set_scalar("ok", sym::Value(std::int64_t{1}));
  };
  b.compute(std::move(probe));
  run(b.take());
}

TEST(Interp, ProgramPrintingIsStable) {
  ProgramBuilder b("t");
  Expr n = b.decl_int("n", I(4));
  b.decl_array("A", {n});
  b.for_loop("i", I(1), n, [&](Expr) {});
  const std::string text = b.take().to_string();
  EXPECT_NE(text.find("int n = 4"), std::string::npos);
  EXPECT_NE(text.find("for i = 1 .. n"), std::string::npos);
  EXPECT_NE(text.find("array<8B> A[n]"), std::string::npos);
}

}  // namespace
}  // namespace stgsim::ir
