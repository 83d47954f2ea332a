// Tests for dynamic task graph recording and its cross-validation against
// the static task graph.
#include <gtest/gtest.h>

#include "apps/tomcatv.hpp"
#include "core/compiler.hpp"
#include "core/dtg.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"
#include "smpi/smpi.hpp"

namespace stgsim::core {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

Dtg record_run(const ir::Program& prog, int nprocs) {
  DtgRecorder recorder;
  DtgObserver observer(&recorder);
  smpi::World::Options wopts;
  smpi::World world(wopts, nprocs);
  simk::EngineConfig ec;
  ec.num_processes = nprocs;
  const ir::Plan plan(prog);
  simk::Engine engine(ec);
  ir::ExecOptions xopts;
  xopts.observer = &observer;
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    ir::execute(plan, comm, xopts);
  });
  engine.run();
  return recorder.build();
}

ir::Program make_pipeline(int rounds) {
  ir::ProgramBuilder b("dtg_pipeline");
  Expr P = b.get_size("P");
  Expr myid = b.get_rank("myid");
  b.decl_array("A", {I(64)});
  ir::KernelSpec k;
  k.task = "work";
  k.iters = I(500);
  k.writes = {"A"};
  b.for_loop("r", I(1), I(rounds), [&](Expr) {
    b.if_then(sym::gt(myid, I(0)),
              [&] { b.recv("A", myid - 1, I(16), I(0), 3); });
    b.compute(ir::KernelSpec(k));
    b.if_then(sym::lt(myid, P - 1),
              [&] { b.send("A", myid + 1, I(16), I(0), 3); });
  });
  b.barrier();
  return b.take();
}

TEST(Dtg, InstanceCountsMatchTheUnfolding) {
  const int nprocs = 4;
  const int rounds = 3;
  Dtg dtg = record_run(make_pipeline(rounds), nprocs);
  // Every rank computes `rounds` times.
  EXPECT_EQ(dtg.count(DtgNodeKind::kCompute),
            static_cast<std::size_t>(nprocs * rounds));
  // Ranks 0..P-2 send each round; ranks 1..P-1 receive each round.
  EXPECT_EQ(dtg.count(DtgNodeKind::kSend),
            static_cast<std::size_t>((nprocs - 1) * rounds));
  EXPECT_EQ(dtg.count(DtgNodeKind::kRecv),
            static_cast<std::size_t>((nprocs - 1) * rounds));
  EXPECT_EQ(dtg.count(DtgNodeKind::kCollective),
            static_cast<std::size_t>(nprocs));  // one barrier each
}

TEST(Dtg, MessageEdgesPairEverySend) {
  Dtg dtg = record_run(make_pipeline(3), 4);
  EXPECT_EQ(dtg.msg_edges.size(), dtg.count(DtgNodeKind::kSend));
  EXPECT_EQ(dtg.check_consistency(), "");
}

TEST(Dtg, InstancesOfRankAreProgramOrdered) {
  Dtg dtg = record_run(make_pipeline(2), 3);
  const auto seq = dtg.instances_of(1);
  // Rank 1: (recv, compute, send) x2 then the barrier.
  ASSERT_EQ(seq.size(), 7u);
  EXPECT_EQ(seq[0]->kind, DtgNodeKind::kRecv);
  EXPECT_EQ(seq[1]->kind, DtgNodeKind::kCompute);
  EXPECT_EQ(seq[2]->kind, DtgNodeKind::kSend);
  EXPECT_EQ(seq[6]->kind, DtgNodeKind::kCollective);
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_GE(seq[i]->start, seq[i - 1]->start);
  }
}

TEST(Dtg, ValidatesAgainstTheStaticGraph) {
  ir::Program prog = make_pipeline(2);
  Stg stg = synthesize_stg(prog);
  Dtg dtg = record_run(prog, 4);
  EXPECT_EQ(dtg.check_against_stg(
                stg, {{"P", sym::Value(std::int64_t{4})}}),
            "");
}

TEST(Dtg, GuardViolationIsDetected) {
  // Forge an instance claiming rank 0 executed the guarded send.
  ir::Program prog = make_pipeline(1);
  Stg stg = synthesize_stg(prog);
  Dtg dtg = record_run(prog, 3);

  // Find a send node and corrupt its rank to 0 (the guard is myid < P-1
  // for sends... rank 0 IS allowed to send; the recv guard is myid > 0).
  for (auto& n : dtg.nodes) {
    if (n.kind == DtgNodeKind::kRecv) {
      n.rank = 0;  // rank 0 never receives in this pipeline
      break;
    }
  }
  const std::string err =
      dtg.check_against_stg(stg, {{"P", sym::Value(std::int64_t{3})}});
  EXPECT_NE(err.find("excludes"), std::string::npos) << err;
}

TEST(Dtg, TomcatvRunValidatesEndToEnd) {
  apps::TomcatvConfig cfg;
  cfg.n = 64;
  cfg.iterations = 2;
  ir::Program prog = apps::make_tomcatv(cfg);
  Stg stg = synthesize_stg(prog);
  Dtg dtg = record_run(prog, 4);
  EXPECT_EQ(dtg.check_consistency(), "");
  EXPECT_EQ(dtg.check_against_stg(stg, {{"P", sym::Value(std::int64_t{4})}}),
            "");
  EXPECT_GT(dtg.msg_edges.size(), 0u);
}

TEST(Dtg, DotAndSummaryRender) {
  Dtg dtg = record_run(make_pipeline(1), 3);
  const std::string dot = dtg.to_dot();
  EXPECT_NE(dot.find("digraph dtg"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dtg.summary().find("task instances"), std::string::npos);
}

TEST(Dtg, SimplifiedProgramProducesSameCommSkeleton) {
  // The DTG of the simplified program, with compute instances removed,
  // must have the same per-rank comm instance sequence as the original's
  // (another phrasing of the §3 correctness contract).
  ir::Program prog = make_pipeline(2);
  const int nprocs = 4;
  core::CompileResult compiled = core::compile(prog);
  const auto params =
      harness::calibrate(compiled.timer_program, nprocs,
                         harness::ibm_sp_machine(), compiled.simplified.params);

  Dtg original = record_run(prog, nprocs);

  DtgRecorder recorder;
  DtgObserver observer(&recorder);
  smpi::World::Options wopts;
  smpi::World world(wopts, nprocs);
  for (const auto& [k, v] : params) world.set_param(k, v);
  simk::EngineConfig ec;
  ec.num_processes = nprocs;
  const ir::Plan plan(compiled.simplified.program);
  simk::Engine engine(ec);
  ir::ExecOptions xopts;
  xopts.observer = &observer;
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    ir::execute(plan, comm, xopts);
  });
  engine.run();
  Dtg simplified = recorder.build();

  auto comm_skeleton = [](const Dtg& d, int rank) {
    std::vector<std::tuple<DtgNodeKind, int, int, std::size_t>> out;
    for (const auto* n : d.instances_of(rank)) {
      if (n->kind == DtgNodeKind::kCompute) continue;
      out.emplace_back(n->kind, n->peer, n->tag, n->bytes);
    }
    return out;
  };
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_EQ(comm_skeleton(original, r), comm_skeleton(simplified, r))
        << "rank " << r;
  }
}

}  // namespace
}  // namespace stgsim::core
