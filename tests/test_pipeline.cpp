// End-to-end tests of the full compile-and-simulate pipeline on the
// paper's Figure-1 example: a shift communication plus a computational
// loop nest, compiled into a simplified program with a delay call.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"

namespace stgsim {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

/// Figure 1(a): every process sends its boundary column to its left
/// neighbour, then runs a stencil loop nest whose bounds depend on the
/// block size b = ceil(N/P).
ir::Program make_shift_program(std::int64_t n) {
  ir::ProgramBuilder b("fig1_shift");
  Expr P = b.get_size("P");
  Expr myid = b.get_rank("myid");
  Expr N = b.decl_int("N", I(n));
  Expr blk = b.decl_int("b", sym::ceil_div(N, P));

  b.decl_array("A", {N, blk + 1});
  b.decl_array("D", {N, blk + 1});

  {
    ir::KernelSpec init;
    init.task = "init";
    init.iters = N * (blk + 1);
    init.flops_per_iter = 1.0;
    init.writes = {"D"};
    init.body = [](ir::KernelCtx& ctx) {
      double* d = ctx.array("D");
      const std::size_t n_elems = ctx.array_elems("D");
      for (std::size_t i = 0; i < n_elems; ++i) {
        d[i] = static_cast<double>(i % 17) * 0.25;
      }
    };
    b.compute(std::move(init));
  }

  b.if_then(sym::gt(myid, I(0)), [&] {
    b.send("D", myid - 1, N - 2, I(0), /*tag=*/5);
  });
  b.if_then(sym::lt(myid, P - 1), [&] {
    b.recv("D", myid + 1, N - 2, blk * N, /*tag=*/5);
  });

  {
    ir::KernelSpec stencil;
    stencil.task = "stencil";
    stencil.iters = (N - 2) * sym::max(sym::min(N, myid * blk + blk) -
                                           sym::max(I(2), myid * blk + 1) + 1,
                                       I(0));
    stencil.flops_per_iter = 2.0;
    stencil.reads = {"D"};
    stencil.writes = {"A"};
    stencil.body = [](ir::KernelCtx& ctx) {
      double* a = ctx.array("A");
      const double* d = ctx.array("D");
      const std::size_t n_elems = ctx.array_elems("A");
      for (std::size_t i = 1; i < n_elems; ++i) {
        a[i] = (d[i] + d[i - 1]) * 0.5;
      }
    };
    b.compute(std::move(stencil));
  }

  return b.take();
}

class PipelineTest : public ::testing::Test {
 protected:
  // Large enough that the w_i read_param prologue of the simplified
  // program (a real cost the paper's version also pays) is negligible
  // next to the modeled computation.
  static constexpr std::int64_t kN = 2048;
  ir::Program prog_ = make_shift_program(kN);
  core::CompileResult compiled_ = core::compile(prog_);
};

TEST_F(PipelineTest, SliceEliminatesArraysButKeepsStructure) {
  EXPECT_FALSE(compiled_.slice.array_is_live("A"));
  EXPECT_FALSE(compiled_.slice.array_is_live("D"));
  EXPECT_TRUE(compiled_.slice.needed_vars.contains("N"));
  EXPECT_TRUE(compiled_.slice.needed_vars.contains("b"));
  EXPECT_TRUE(compiled_.slice.needed_vars.contains("myid"));
  EXPECT_TRUE(compiled_.slice.needed_vars.contains("P"));
}

TEST_F(PipelineTest, SimplifiedProgramHasDelaysAndParams) {
  EXPECT_EQ(compiled_.simplified.condensed.size(), 2u);  // init + stencil
  EXPECT_TRUE(compiled_.simplified.params.contains("w_init"));
  EXPECT_TRUE(compiled_.simplified.params.contains("w_stencil"));
  EXPECT_EQ(compiled_.simplified.dummy_buffer_comms, 2u);  // send + recv

  bool has_dummy_decl = false;
  ir::for_each_stmt(compiled_.simplified.program, [&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::kDeclArray && s.name == "__dummy_buf") {
      has_dummy_decl = true;
    }
    // No compute kernels survive in the simplified program.
    EXPECT_NE(s.kind, ir::StmtKind::kCompute);
  });
  EXPECT_TRUE(has_dummy_decl);
}

TEST_F(PipelineTest, StgCapturesStructure) {
  EXPECT_EQ(compiled_.stg.count(core::StgNodeKind::kCompute), 2u);
  EXPECT_EQ(compiled_.stg.count(core::StgNodeKind::kComm), 2u);
  ASSERT_EQ(compiled_.stg.comm_edges.size(), 1u);
  // The mapping is q = myid - 1, matching Fig. 1(b).
  sym::MapEnv env;
  env.set("myid", sym::Value(std::int64_t{4}));
  env.set("P", sym::Value(std::int64_t{8}));
  env.set("N", sym::Value(kN));
  env.set("b", sym::Value(kN / 8));
  EXPECT_EQ(compiled_.stg.comm_edges[0].mapping.eval_int(env), 3);
}

TEST_F(PipelineTest, TimerProgramWrapsEveryKernel) {
  std::size_t starts = 0, stops = 0, kernels = 0;
  ir::for_each_stmt(compiled_.timer_program, [&](const ir::Stmt& s) {
    starts += s.kind == ir::StmtKind::kTimerStart;
    stops += s.kind == ir::StmtKind::kTimerStop;
    kernels += s.kind == ir::StmtKind::kCompute;
  });
  EXPECT_EQ(kernels, 2u);
  EXPECT_EQ(starts, 2u);
  EXPECT_EQ(stops, 2u);
}

TEST_F(PipelineTest, CommunicationTraceEquivalence) {
  const int nprocs = 8;
  const auto machine = harness::ibm_sp_machine();
  const auto params =
      harness::calibrate(compiled_.timer_program, nprocs, machine);

  // Run original under DE and simplified under AM, recording comm traces.
  smpi::CommTrace trace_de(nprocs), trace_am(nprocs);
  for (auto [program, trace, params_in] :
       {std::tuple{&prog_, &trace_de, std::map<std::string, double>{}},
        std::tuple{&compiled_.simplified.program, &trace_am, params}}) {
    harness::RunConfig cfg;
    cfg.nprocs = nprocs;
    cfg.machine = machine;
    cfg.mode = harness::Mode::kDirectExec;
    cfg.params = params_in;

    smpi::World::Options wopts;
    wopts.net = cfg.machine.net;
    wopts.compute = cfg.machine.compute;
    wopts.trace = trace;
    smpi::World world(wopts, nprocs);
    for (const auto& [k, v] : cfg.params) world.set_param(k, v);

    simk::EngineConfig ec;
    ec.num_processes = nprocs;
    const ir::Plan plan(*program);
    simk::Engine engine(ec);
    engine.set_body([&](simk::Process& p) {
      smpi::Comm comm(world, p);
      ir::execute(plan, comm);
    });
    engine.run();
  }

  // The simplified program performs exactly the same user-level
  // communication as the original — modulo the read_param prologue, which
  // appears as bcasts at the head of each rank's trace.
  for (int r = 0; r < nprocs; ++r) {
    auto am = trace_am.per_rank()[static_cast<std::size_t>(r)];
    const auto& de = trace_de.per_rank()[static_cast<std::size_t>(r)];
    ASSERT_GE(am.size(), params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(am[i].kind, smpi::CommEvent::Kind::kBcast)
          << "rank " << r << " prologue op " << i;
    }
    am.erase(am.begin(), am.begin() + static_cast<std::ptrdiff_t>(params.size()));
    ASSERT_EQ(am.size(), de.size()) << "rank " << r;
    for (std::size_t i = 0; i < am.size(); ++i) {
      EXPECT_EQ(am[i].kind, de[i].kind) << "rank " << r << " op " << i;
      EXPECT_EQ(am[i].peer, de[i].peer) << "rank " << r << " op " << i;
      EXPECT_EQ(am[i].tag, de[i].tag) << "rank " << r << " op " << i;
      EXPECT_EQ(am[i].bytes, de[i].bytes) << "rank " << r << " op " << i;
    }
  }
}

TEST_F(PipelineTest, AnalyticalModelPredictsCloseToDirectExecution) {
  const int nprocs = 8;
  const auto machine = harness::ibm_sp_machine();
  const auto params =
      harness::calibrate(compiled_.timer_program, nprocs, machine);

  harness::RunConfig de_cfg;
  de_cfg.nprocs = nprocs;
  de_cfg.machine = machine;
  de_cfg.mode = harness::Mode::kDirectExec;
  const auto de = harness::run_program(prog_, de_cfg);

  harness::RunConfig am_cfg = de_cfg;
  am_cfg.mode = harness::Mode::kAnalytical;
  am_cfg.params = params;
  const auto am = harness::run_program(compiled_.simplified.program, am_cfg);

  ASSERT_TRUE(de.ok());
  ASSERT_TRUE(am.ok());
  EXPECT_GT(de.predicted_seconds(), 0.0);
  // Calibration at the same process count: AM should track DE tightly.
  EXPECT_NEAR(am.predicted_seconds(), de.predicted_seconds(),
              0.10 * de.predicted_seconds());
}

TEST_F(PipelineTest, AnalyticalModelUsesFarLessMemory) {
  const int nprocs = 8;
  const auto machine = harness::ibm_sp_machine();
  const auto params =
      harness::calibrate(compiled_.timer_program, nprocs, machine);

  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.machine = machine;
  cfg.mode = harness::Mode::kDirectExec;
  const auto de = harness::run_program(prog_, cfg);

  cfg.mode = harness::Mode::kAnalytical;
  cfg.params = params;
  const auto am = harness::run_program(compiled_.simplified.program, cfg);

  EXPECT_GT(de.peak_target_bytes, 10 * am.peak_target_bytes)
      << "DE " << de.peak_target_bytes << " vs AM " << am.peak_target_bytes;
}

TEST_F(PipelineTest, MemoryCapReportsOutOfMemory) {
  harness::RunConfig cfg;
  cfg.nprocs = 8;
  cfg.mode = harness::Mode::kDirectExec;
  cfg.memory_cap_bytes = 4096;  // far below the arrays' footprint
  const auto out = harness::run_program(prog_, cfg);
  EXPECT_TRUE(out.out_of_memory());
}

TEST_F(PipelineTest, CompileReportMentionsKeyFacts) {
  const std::string report = compiled_.report(prog_);
  EXPECT_NE(report.find("delay("), std::string::npos);
  EXPECT_NE(report.find("w_stencil"), std::string::npos);
  EXPECT_NE(report.find("slice"), std::string::npos);
}

}  // namespace
}  // namespace stgsim
