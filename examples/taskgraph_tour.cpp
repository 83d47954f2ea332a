// Tour of the static task graph (STG) machinery on a real benchmark.
//
// Synthesizes the STG for NAS SP, prints the symbolic summary (task sets,
// scaling functions, communication mappings), writes Graphviz renderings
// of both the original program's graph and the simplified program's
// graph, and prints the compiler's condensation report.
//
//   $ ./examples/taskgraph_tour
//   $ dot -Tpdf nas_sp_stg.dot -o nas_sp_stg.pdf   # if graphviz is around
#include <fstream>
#include <iostream>

#include "apps/nas_sp.hpp"
#include "core/compiler.hpp"
#include "core/dtg.hpp"
#include "harness/runner.hpp"

using namespace stgsim;

int main() {
  apps::NasSpConfig cfg = apps::sp_class('A', /*q=*/3, /*timesteps=*/1);
  ir::Program prog = apps::make_nas_sp(cfg);

  core::CompileResult compiled = core::compile(prog);

  std::cout << "=== NAS SP static task graph ===\n"
            << compiled.stg.summary() << "\n";

  std::cout << "=== Condensation ===\n";
  for (const auto& ct : compiled.simplified.condensed) {
    std::cout << "  delay(" << ct.seconds.to_string() << ")\n    folds:";
    for (const auto& task : ct.tasks) std::cout << ' ' << task;
    std::cout << "\n";
  }

  std::cout << "\n=== Full compiler report ===\n" << compiled.report(prog);

  {
    std::ofstream dot("nas_sp_stg.dot");
    dot << compiled.stg.to_dot();
  }
  {
    core::Stg simplified_stg =
        core::synthesize_stg(compiled.simplified.program);
    std::ofstream dot("nas_sp_simplified_stg.dot");
    dot << simplified_stg.to_dot();
    std::cout << "\noriginal STG nodes: " << compiled.stg.nodes.size()
              << ", simplified program STG nodes: "
              << simplified_stg.nodes.size() << "\n";
  }
  std::cout << "wrote nas_sp_stg.dot and nas_sp_simplified_stg.dot\n";

  // Unfold the dynamic task graph from one 9-process run and check it
  // against the static graph (every executed instance maps to a static
  // node whose process-set guard admits its rank).
  {
    const int nprocs = 9;
    core::DtgRecorder recorder;
    core::DtgObserver observer(&recorder);
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
    core::Dtg dtg = recorder.build();

    std::cout << "\n=== Dynamic task graph (9-process run) ===\n"
              << dtg.summary();
    const std::string consistency = dtg.check_consistency();
    const std::string vs_stg = dtg.check_against_stg(
        compiled.stg, {{"P", sym::Value(std::int64_t{nprocs})},
                       {"Q", sym::Value(std::int64_t{3})}});
    std::cout << "consistency check: " << (consistency.empty() ? "OK" : consistency)
              << "\nSTG cross-check:   " << (vs_stg.empty() ? "OK" : vs_stg)
              << "\n";
    std::ofstream dot("nas_sp_dtg.dot");
    dot << dtg.to_dot();
    std::cout << "wrote nas_sp_dtg.dot\n";
  }
  return 0;
}
