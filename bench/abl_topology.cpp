// Ablation: collective algorithm x topology. The platform layer prices
// distance (routed hops), so the right collective algorithm depends on
// both the message size and the machine shape: binomial trees win for
// small payloads (log P latency-bound rounds), pipelined rings win for
// large payloads (each rank moves ~2x the payload regardless of P, all
// over nearest-neighbor paths). This bench sweeps P x bytes x topology
// for bcast under both algorithms and prints the ring/binomial ratio —
// values < 1 mean ring wins.
#include "bench/common.hpp"
#include "ir/builder.hpp"

using namespace stgsim;
using sym::Expr;

namespace {

Expr I(std::int64_t v) { return Expr::integer(v); }

ir::Program make_bcast_micro(std::int64_t bytes) {
  ir::ProgramBuilder b("bcast_micro");
  b.get_size("P");
  b.get_rank("myid");
  b.decl_array("buf", {I(bytes)});
  b.for_loop("r", I(1), I(4), [&](Expr) {
    b.bcast("buf", I(0), I(bytes), I(0));
  });
  return b.take();
}

double run_with(smpi::CollAlgo algo, int procs,
                const harness::MachineSpec& machine, const ir::Program& prog) {
  smpi::World::Options wopts;
  wopts.net = machine.net;
  wopts.compute = machine.compute;
  wopts.coll.bcast = algo;
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

harness::MachineSpec machine_for(net::Topology topo) {
  harness::MachineSpec m = harness::ibm_sp_machine();
  m.net.platform.topo = topo;
  return m;
}

}  // namespace

int main() {
  print_experiment_header(
      std::cout, "Ablation: collective algorithm x topology",
      "Ring vs binomial bcast across platform presets (4x bcast)",
      {"same LogGP point-to-point constants on every topology",
       "expected: binomial wins small messages (log P rounds),",
       "ring wins large messages (pipelined, ~2x payload per rank),",
       "and the crossover shifts with per-hop distance costs"});

  for (net::Topology topo :
       {net::Topology::kFlat, net::Topology::kTorus, net::Topology::kFatTree}) {
    const auto machine = machine_for(topo);
    std::cout << "\n== topology: " << net::topology_name(topo) << " ==\n";
    TablePrinter t({"procs", "bytes", "binomial (s)", "ring (s)",
                    "ring/binomial"});
    for (int procs : {8, 64, 256}) {
      for (std::int64_t bytes : {64LL, 64LL * 1024, 1024LL * 1024}) {
        ir::Program prog = make_bcast_micro(bytes);
        const double binom =
            run_with(smpi::CollAlgo::kBinomial, procs, machine, prog);
        const double ring = run_with(smpi::CollAlgo::kRing, procs, machine, prog);
        t.add_row({TablePrinter::fmt_int(procs), TablePrinter::fmt_int(bytes),
                   TablePrinter::fmt(binom, 4), TablePrinter::fmt(ring, 4),
                   TablePrinter::fmt(ring / binom, 2) + "x"});
      }
    }
    std::cout << t.to_ascii();
  }
  return 0;
}
