// Tests for the experiment harness: the three execution modes, memory-cap
// reporting, calibration (measured and compiler-estimated), and the
// abstract communication fidelity.
#include <gtest/gtest.h>

#include "apps/tomcatv.hpp"
#include "core/compiler.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"

namespace stgsim::harness {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

ir::Program small_tomcatv() {
  apps::TomcatvConfig cfg;
  cfg.n = 128;
  cfg.iterations = 2;
  return apps::make_tomcatv(cfg);
}

TEST(Harness, ModeNamesAreStable) {
  EXPECT_STREQ(mode_name(Mode::kMeasured), "measured");
  EXPECT_STREQ(mode_name(Mode::kDirectExec), "MPI-SIM-DE");
  EXPECT_STREQ(mode_name(Mode::kAnalytical), "MPI-SIM-AM");
}

TEST(Harness, MeasuredDiffersFromDEButStaysClose) {
  ir::Program prog = small_tomcatv();
  RunConfig cfg;
  cfg.nprocs = 4;
  cfg.mode = Mode::kMeasured;
  const auto measured = run_program(prog, cfg);
  cfg.mode = Mode::kDirectExec;
  const auto de = run_program(prog, cfg);
  EXPECT_NE(measured.predicted_time, de.predicted_time);  // noise/contention
  EXPECT_NEAR(de.predicted_seconds(), measured.predicted_seconds(),
              0.15 * measured.predicted_seconds());
}

TEST(Harness, MeasuredRunsAreSeedDeterministic) {
  ir::Program prog = small_tomcatv();
  RunConfig cfg;
  cfg.nprocs = 4;
  cfg.mode = Mode::kMeasured;
  cfg.seed = 7;
  const auto a = run_program(prog, cfg);
  const auto b = run_program(prog, cfg);
  EXPECT_EQ(a.predicted_time, b.predicted_time);
  cfg.seed = 8;
  const auto c = run_program(prog, cfg);
  EXPECT_NE(a.predicted_time, c.predicted_time);
}

TEST(Harness, MemoryCapReportsInsteadOfThrowing) {
  ir::Program prog = small_tomcatv();
  RunConfig cfg;
  cfg.nprocs = 4;
  cfg.memory_cap_bytes = 1024;
  const auto out = run_program(prog, cfg);
  EXPECT_TRUE(out.out_of_memory());
  EXPECT_EQ(out.status, RunStatus::kOutOfMemory);
  EXPECT_FALSE(out.diagnostic.empty());
  EXPECT_EQ(out.predicted_time, 0);
}

TEST(Harness, CalibrateFillsRequiredParamsForUnexecutedTasks) {
  // A branch never taken at the calibration configuration leaves its
  // kernel unmeasured; the simplified program still reads its w_i.
  ir::ProgramBuilder b("partial");
  b.get_rank("myid");
  Expr P = b.get_size("P");
  b.decl_array("A", {I(64)});
  b.if_then(sym::gt(P, I(1000)), [&] {  // false at any test size
    ir::KernelSpec k;
    k.task = "never";
    k.iters = I(10);
    k.writes = {"A"};
    b.compute(std::move(k));
  });
  b.barrier();
  ir::Program prog = b.take();
  core::CompileResult compiled = core::compile(prog);
  ASSERT_TRUE(compiled.simplified.params.contains("w_never"));

  const auto params = calibrate(compiled.timer_program, 4, ibm_sp_machine(),
                                compiled.simplified.params);
  ASSERT_TRUE(params.contains("w_never"));
  EXPECT_DOUBLE_EQ(params.at("w_never"), 0.0);

  // And the simplified program runs with them.
  RunConfig cfg;
  cfg.nprocs = 4;
  cfg.mode = Mode::kAnalytical;
  cfg.params = params;
  const auto out = run_program(compiled.simplified.program, cfg);
  EXPECT_TRUE(out.ok());
}

TEST(Harness, EstimatedParamsTrackMeasuredOnes) {
  ir::Program prog = small_tomcatv();
  core::CompileResult compiled = core::compile(prog);
  const auto machine = ibm_sp_machine();
  const auto measured = calibrate(compiled.timer_program, 4, machine,
                                  compiled.simplified.params);
  const auto estimated =
      estimate_params(prog, 4, machine, compiled.simplified.params);
  ASSERT_EQ(measured.size(), estimated.size());
  for (const auto& [name, w] : measured) {
    if (w == 0.0) continue;
    // Same machine model minus the emulation's noise: within a few %.
    EXPECT_NEAR(estimated.at(name), w, 0.05 * w) << name;
  }
}

TEST(Harness, AbstractCommPreservesValuesAndReducesMessages) {
  // SP-like pattern: rendezvous-size messages plus collectives.
  ir::ProgramBuilder b("abs");
  Expr myid = b.get_rank("myid");
  Expr P = b.get_size("P");
  b.decl_real("acc", Expr::real(1.0));
  b.decl_array("A", {I(8192)});  // 64 KB: rendezvous territory
  b.if_then(sym::lt(myid, P - 1),
            [&] { b.send("A", myid + 1, I(8192), I(0), 0); });
  b.if_then(sym::gt(myid, I(0)),
            [&] { b.recv("A", myid - 1, I(8192), I(0), 0); });
  b.allreduce_sum("acc");
  b.bcast("A", I(0), I(128), I(0));
  ir::Program prog = b.take();

  RunConfig cfg;
  cfg.nprocs = 8;
  cfg.mode = Mode::kDirectExec;
  const auto detailed = run_program(prog, cfg);
  cfg.abstract_comm = true;
  const auto abstract_run = run_program(prog, cfg);

  EXPECT_LT(abstract_run.messages, detailed.messages);
  // Predictions in the same ballpark (both dominated by the transfers).
  EXPECT_NEAR(abstract_run.predicted_seconds(), detailed.predicted_seconds(),
              0.5 * detailed.predicted_seconds());
}

TEST(Harness, AbstractAllreduceStillSumsCorrectly) {
  smpi::World::Options wopts;
  wopts.comm_fidelity = smpi::World::Options::CommFidelity::kAbstract;
  smpi::World world(wopts, 7);
  simk::EngineConfig ec;
  ec.num_processes = 7;
  simk::Engine engine(ec);
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    const double total = comm.allreduce_sum(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(total, 21.0);
    double mx = static_cast<double>(comm.rank() % 3);
    comm.allreduce_max(&mx, 1);
    EXPECT_DOUBLE_EQ(mx, 2.0);
    comm.barrier();
  });
  engine.run();
}

TEST(Harness, AbstractBarrierStillSynchronizes) {
  smpi::World::Options wopts;
  wopts.comm_fidelity = smpi::World::Options::CommFidelity::kAbstract;
  smpi::World world(wopts, 5);
  simk::EngineConfig ec;
  ec.num_processes = 5;
  simk::Engine engine(ec);
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    comm.delay(vtime_from_us(100 * (comm.rank() + 1)));
    comm.barrier();
    EXPECT_GE(comm.now(), vtime_from_us(500));
  });
  engine.run();
}

TEST(Harness, AbstractRendezvousSizedSendDoesNotBlock) {
  smpi::World::Options wopts;
  wopts.comm_fidelity = smpi::World::Options::CommFidelity::kAbstract;
  smpi::World world(wopts, 2);
  simk::EngineConfig ec;
  ec.num_processes = 2;
  simk::Engine engine(ec);
  const std::size_t big = wopts.net.eager_threshold * 4;
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    std::vector<std::uint8_t> buf(big, 7);
    if (comm.rank() == 0) {
      comm.send(1, 0, buf.data(), big);
      // Abstract: buffered semantics even above the eager threshold.
      EXPECT_LT(comm.now(), vtime_from_ms(1));
    } else {
      comm.delay(vtime_from_ms(5));  // receiver is late; sender unaffected
      comm.recv(0, 0, buf.data(), big);
      EXPECT_EQ(buf[big / 2], 7);
    }
  });
  engine.run();
}

TEST(Harness, ThreadedMeasuredModeIsRejected) {
  ir::Program prog = small_tomcatv();
  RunConfig cfg;
  cfg.nprocs = 4;
  cfg.threads = 2;
  cfg.mode = Mode::kMeasured;
  EXPECT_THROW(run_program(prog, cfg), CheckError);
}

TEST(Harness, PlanErrorIsAnInternalErrorOutcome) {
  // A kernel that reads a payload-free array fails plan compilation. The
  // run reports that as an outcome, like any other target-program defect,
  // also when the comm partition's affinity walk needs the plan first.
  ir::ProgramBuilder b("ledger_only");
  b.decl_array("dummy", {I(8)});
  ir::KernelSpec k;
  k.task = "peek";
  k.iters = I(1);
  k.reads.push_back("dummy");
  b.compute(std::move(k));
  ir::Program prog = b.take();
  prog.main().front()->payload_free = true;
  for (const int workers : {0, 2}) {
    RunConfig cfg;
    cfg.nprocs = 4;
    cfg.mode = Mode::kDirectExec;
    cfg.threads = workers;
    cfg.partition = workers > 1 ? simk::PartitionMode::kComm
                                : simk::PartitionMode::kBlock;
    const RunOutcome out = run_program(prog, cfg);
    EXPECT_EQ(out.status, RunStatus::kInternalError) << workers;
    EXPECT_NE(out.diagnostic.find("payload-free array 'dummy'"),
              std::string::npos)
        << out.diagnostic;
  }
}

TEST(Harness, ThreadedDirectExecWorks) {
  ir::Program prog = small_tomcatv();
  RunConfig cfg;
  cfg.nprocs = 4;
  cfg.mode = Mode::kDirectExec;
  const auto seq = run_program(prog, cfg);
  cfg.threads = 2;
  const auto par = run_program(prog, cfg);
  EXPECT_EQ(seq.predicted_time, par.predicted_time);
}

}  // namespace
}  // namespace stgsim::harness
