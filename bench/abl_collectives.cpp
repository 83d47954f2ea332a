// Ablation: collective algorithm choice under the same point-to-point
// model. smpi builds collectives from point-to-point messages (binomial
// trees / dissemination), so their cost emerges from the network model —
// this bench contrasts that with naive root-sequential algorithms, which
// is the difference between O(log P) and O(P) critical paths.
#include "bench/common.hpp"
#include "ir/builder.hpp"

using namespace stgsim;
using sym::Expr;

namespace {

Expr I(std::int64_t v) { return Expr::integer(v); }

ir::Program make_collective_micro(int rounds) {
  ir::ProgramBuilder b("coll_micro");
  b.get_size("P");
  b.get_rank("myid");
  b.decl_real("x", Expr::real(1.0));
  b.decl_array("buf", {I(1024)});
  b.for_loop("r", I(1), I(rounds), [&](Expr) {
    b.barrier();
    b.allreduce_sum("x");
    b.bcast("buf", I(0), I(1024), I(0));
  });
  return b.take();
}

double run_with(bool linear, int procs, const harness::MachineSpec& machine,
                const ir::Program& prog) {
  smpi::World::Options wopts;
  wopts.net = machine.net;
  wopts.compute = machine.compute;
  if (linear) {
    for (smpi::CollOp op :
         {smpi::CollOp::kBarrier, smpi::CollOp::kBcast, smpi::CollOp::kReduce,
          smpi::CollOp::kAllreduce, smpi::CollOp::kAlltoall}) {
      smpi::coll_algo_field(wopts.coll, op) = smpi::CollAlgo::kLinear;
    }
  }
  smpi::World world(wopts, procs);

  simk::EngineConfig ec;
  ec.num_processes = procs;
  const ir::Plan plan(prog);
  simk::Engine engine(ec);
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    ir::execute(plan, comm);
  });
  return vtime_to_sec(engine.run().completion);
}

}  // namespace

int main() {
  const auto machine = harness::ibm_sp_machine();
  const int rounds = 10;
  ir::Program prog = make_collective_micro(rounds);

  print_experiment_header(
      std::cout, "Ablation: collective algorithms",
      "Tree-based vs root-sequential collectives (10x barrier+allreduce+bcast)",
      {"both run on the identical point-to-point network model",
       "expected: tree time grows ~log P, linear time grows ~P"});

  TablePrinter t({"procs", "tree (s)", "linear (s)", "linear/tree"});
  for (int procs : {4, 16, 64, 256}) {
    const double tree = run_with(false, procs, machine, prog);
    const double lin = run_with(true, procs, machine, prog);
    t.add_row({TablePrinter::fmt_int(procs), TablePrinter::fmt(tree, 4),
               TablePrinter::fmt(lin, 4), TablePrinter::fmt(lin / tree, 1) + "x"});
  }
  std::cout << t.to_ascii();
  return 0;
}
