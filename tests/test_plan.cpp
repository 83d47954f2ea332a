// Tests for the execution plan (ir::Plan): the program is compiled once per
// run, whatever the rank count, and the one shared scalar layout keeps the
// per-rank semantics of rank-dependent declarations, including across a
// Time Warp restore from a checkpoint blob that carries no names. A
// payload-free array (the simplified program's dummy buffer) is charged in
// full but has no storage, and the plan refuses any statement that would
// read or write its bytes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "apps/sample.hpp"
#include "core/compiler.hpp"
#include "harness/digest.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"
#include "ir/plan.hpp"
#include "support/check.hpp"
#include "symexpr/compiled.hpp"

namespace stgsim {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

harness::RunConfig de_config(int nprocs) {
  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.mode = harness::Mode::kDirectExec;
  return cfg;
}

/// CompiledExpr::compile calls made by one run_program call.
unsigned long long compiles_in_run(const ir::Program& prog,
                                   const harness::RunConfig& cfg) {
  const unsigned long long before = sym::CompiledExpr::compile_count();
  const harness::RunOutcome out = harness::run_program(prog, cfg);
  EXPECT_TRUE(out.ok()) << out.diagnostic;
  return sym::CompiledExpr::compile_count() - before;
}

TEST(Plan, CompileCountIndependentOfRankCount) {
  apps::SampleConfig c;
  c.iterations = 3;
  c.msg_doubles = 16;
  c.work_iters = 100;
  const ir::Program original = apps::make_sample(c);
  const core::CompileResult compiled = core::compile(original);
  harness::RunConfig am = de_config(4);
  am.mode = harness::Mode::kAnalytical;
  for (const auto& name : compiled.simplified.params) am.params[name] = 1e-9;

  struct Case {
    const char* name;
    const ir::Program& prog;
    harness::RunConfig cfg;
  };
  for (const Case& k : {Case{"original", original, de_config(4)},
                        Case{"simplified", compiled.simplified.program, am}}) {
    harness::RunConfig wide = k.cfg;
    wide.nprocs = 64;
    const unsigned long long narrow_compiles = compiles_in_run(k.prog, k.cfg);
    EXPECT_GT(narrow_compiles, 0u) << k.name;
    EXPECT_EQ(compiles_in_run(k.prog, wide), narrow_compiles)
        << k.name << ": compile work must not grow with the rank count";
    // And it is exactly the plan's: one tape per compound operand.
    const unsigned long long before = sym::CompiledExpr::compile_count();
    const ir::Plan plan(k.prog);
    EXPECT_EQ(sym::CompiledExpr::compile_count() - before, narrow_compiles)
        << k.name;
  }
}

/// Appends statements that may read `z` to a program under construction.
using Tail = std::function<void(ir::ProgramBuilder&, const Expr& z)>;

/// `z` is declared only on odd ranks. Every rank then runs `tail`.
ir::Program odd_declaration_program(const Tail& tail) {
  ir::ProgramBuilder b("odd_decl");
  const Expr myid = b.get_rank("myid");
  Expr z = Expr::var("z");
  b.if_then(sym::imod(myid, I(2)), [&] {
    z = b.decl_int("z", myid * 10);
    b.delay(z * Expr::real(1e-6));  // declared here: reads normally
  });
  tail(b, z);
  return b.take();
}

TEST(Plan, RankDependentDeclarationReadsOnlyWhereDeclared) {
  const ir::Program fine = odd_declaration_program(
      [](ir::ProgramBuilder& b, const Expr&) { b.delay(Expr::real(1e-6)); });
  const harness::RunOutcome ok = harness::run_program(fine, de_config(4));
  ASSERT_TRUE(ok.ok()) << ok.diagnostic;
  // Odd ranks delayed z = 10 * myid microseconds more than even ones.
  EXPECT_EQ(ok.per_rank[0], ok.per_rank[2]);
  EXPECT_GT(ok.per_rank[1], ok.per_rank[0]);
  EXPECT_GT(ok.per_rank[3], ok.per_rank[1]);

  // Reading z where it was never declared fails the run with the
  // interpreter's unbound-variable error, through every operand shape:
  // a single load, a compiled tape, and a declaration initializer.
  const Tail reads[] = {
      [](ir::ProgramBuilder& b, const Expr& z) { b.delay(z); },
      [](ir::ProgramBuilder& b, const Expr& z) {
        b.delay(z * Expr::real(1e-6));
      },
      [](ir::ProgramBuilder& b, const Expr& z) { b.decl_int("w", z + 1); },
  };
  for (const auto& read : reads) {
    const harness::RunOutcome out =
        harness::run_program(odd_declaration_program(read), de_config(4));
    EXPECT_EQ(out.status, harness::RunStatus::kInternalError);
    EXPECT_EQ(out.diagnostic, "unbound variable 'z'");
  }
}

/// Rank 1 (odd, so it holds z) wildcard-receives rank 0's first message,
/// the only tag-1 message, so it saves state from rank start (DESIGN.md
/// §15.1) and that consumption arms a checkpoint; then it wildcard-receives
/// twice. Rank 0's second message is ready at once in host time but
/// arrives 100 us late in virtual time; rank 2's is early in virtual time
/// but held back in host time by a sleeping kernel, so on two workers it is
/// a straggler that rolls rank 1 back into the checkpoint. After the
/// restore rank 1 reads z again.
ir::Program straggler_program() {
  ir::ProgramBuilder b("odd_decl_straggler");
  const Expr myid = b.get_rank("myid");
  const Expr msg = b.decl_int("MSG", I(4));
  b.decl_array("buf", {msg});
  Expr z = Expr::var("z");
  b.if_then(sym::imod(myid, I(2)), [&] { z = b.decl_int("z", myid * 10); });
  b.if_then(sym::eq(myid, I(0)), [&] {
    b.send("buf", I(1), msg, I(0), 1);
    b.delay(Expr::real(100e-6));
    b.send("buf", I(1), msg, I(0), 2);
  });
  b.if_then(sym::eq(myid, I(1)), [&] {
    b.recv("buf", I(-1), msg, I(0), 1);
    b.recv("buf", I(-1), msg, I(0), 2);
    b.delay(z * Expr::real(1e-6));
    b.recv("buf", I(-1), msg, I(0), 2);
    b.delay(z * Expr::real(1e-6));
  });
  b.if_then(sym::eq(myid, I(2)), [&] {
    ir::KernelSpec hold;
    hold.task = "hold";
    hold.iters = I(1);
    hold.body = [](ir::KernelCtx&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    b.compute(std::move(hold));
    b.send("buf", I(1), msg, I(0), 2);
  });
  b.if_then(sym::eq(myid, I(3)), [&] { b.delay(z * Expr::real(1e-6)); });
  return b.take();
}

TEST(Checkpoint, RankDependentDeclarationSurvivesThreadedRestore) {
  const ir::Program prog = straggler_program();
  const harness::RunOutcome ref = harness::run_program(prog, de_config(4));
  ASSERT_TRUE(ref.ok()) << ref.diagnostic;
  const std::uint64_t want = harness::run_digest(ref);

  harness::RunConfig tw = de_config(4);
  tw.schedule = harness::Schedule::kOptimistic;
  tw.threads = 2;  // block partition: ranks {0, 1} and {2, 3}
  tw.checkpoint_interval = 1;
  // Whether the straggler beats the wildcard is host timing; a few tries
  // make a run without any rollback vanishingly unlikely.
  bool rolled_back = false;
  for (int attempt = 0; attempt < 5 && !rolled_back; ++attempt) {
    const harness::RunOutcome out = harness::run_program(prog, tw);
    ASSERT_TRUE(out.ok()) << out.diagnostic;
    EXPECT_EQ(harness::run_digest(out), want)
        << harness::describe_run_divergence(ref, out);
    EXPECT_GE(out.parallel.checkpoints_taken, 1u);
    rolled_back = out.parallel.rollbacks > 0;
  }
  EXPECT_TRUE(rolled_back) << "the straggler never forced a rollback";
}

// ---------------------------------------------------------------------------
// Payload-free arrays
// ---------------------------------------------------------------------------

/// A program declaring an 8-double array `dummy` payload-free, followed by
/// `use`; `free_uses` marks its transfers payload-free too.
ir::Program ledger_program(const std::function<void(ir::ProgramBuilder&)>& use,
                           bool free_uses) {
  ir::ProgramBuilder b("ledger_only");
  b.decl_array("dummy", {I(8)});
  use(b);
  ir::Program prog = b.take();
  for (auto& s : prog.main()) {
    if (s->name == "dummy") {
      s->payload_free = s->kind == ir::StmtKind::kDeclArray || free_uses;
    }
  }
  return prog;
}

/// The CheckError message of building a plan for `prog`, "" if none.
std::string plan_error(const ir::Program& prog) {
  try {
    const ir::Plan plan(prog);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Plan, RejectsNonPayloadFreeUseOfPayloadFreeArray) {
  auto kernel = [](const char* task, bool write) {
    return [task, write](ir::ProgramBuilder& b) {
      ir::KernelSpec k;
      k.task = task;
      k.iters = I(1);
      (write ? k.writes : k.reads).push_back("dummy");
      b.compute(std::move(k));
    };
  };
  auto send = [](ir::ProgramBuilder& b) {
    b.send("dummy", I(0), I(8), I(0), 1);
  };
  auto redeclare = [](ir::ProgramBuilder& b) {
    b.decl_array("dummy", {I(8)});
  };

  auto expect_rejected = [](const char* what, const ir::Program& prog) {
    const std::string err = plan_error(prog);
    EXPECT_NE(err.find("payload-free array 'dummy'"), std::string::npos)
        << what << ": " << err;
  };

  EXPECT_EQ(plan_error(ledger_program(send, /*free_uses=*/true)), "");
  expect_rejected("kernel read", ledger_program(kernel("peek", false), true));
  expect_rejected("kernel write", ledger_program(kernel("poke", true), true));
  expect_rejected("byte-moving send", ledger_program(send, false));
  // A second declaration with storage would give the array two natures.
  ir::Program mixed = ledger_program(redeclare, true);
  mixed.main().back()->payload_free = false;
  EXPECT_NE(plan_error(mixed).find("array 'dummy' is declared both"),
            std::string::npos);
}

TEST(Plan, PayloadFreeDummyIsChargedInFull) {
  // The values an interpreter that allocated the dummy reported: the
  // ledger charge, and with it peak_target_bytes and memory caps, is the
  // same whether or not the bytes exist.
  apps::SampleConfig c;
  c.pattern = apps::SamplePattern::kAnySource;
  c.iterations = 3;
  c.msg_doubles = 1024;
  c.work_iters = 2000;
  const core::CompileResult compiled = core::compile(apps::make_sample(c));
  harness::RunConfig am = de_config(3);
  am.mode = harness::Mode::kAnalytical;
  for (const auto& name : compiled.simplified.params) am.params[name] = 1e-9;
  const harness::RunOutcome out =
      harness::run_program(compiled.simplified.program, am);
  ASSERT_TRUE(out.ok()) << out.diagnostic;
  EXPECT_EQ(out.peak_target_bytes, 16384u);

  // One byte under the peak, the allocation that reaches it fails.
  am.memory_cap_bytes = out.peak_target_bytes - 1;
  EXPECT_EQ(harness::run_program(compiled.simplified.program, am).status,
            harness::RunStatus::kOutOfMemory);
}

}  // namespace
}  // namespace stgsim
