// Shared helpers for STGSim tests.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "harness/runner.hpp"
#include "ir/interp.hpp"
#include "smpi/smpi.hpp"

namespace stgsim::testutil {

struct TracedRun {
  simk::RunResult result;
  std::vector<smpi::RankStats> rank_stats;
  smpi::CommTrace trace;
};

/// Runs `prog` on `nprocs` ranks under a clean (DE-style) machine model,
/// recording the user-level communication trace and per-rank stats.
inline TracedRun run_traced(const ir::Program& prog, int nprocs,
                            const harness::MachineSpec& machine,
                            const std::map<std::string, double>& params = {}) {
  smpi::CommTrace trace(nprocs);
  smpi::World::Options wopts;
  wopts.net = machine.net;
  wopts.compute = machine.compute;
  wopts.trace = &trace;
  smpi::World world(wopts, nprocs);
  for (const auto& [k, v] : params) world.set_param(k, v);

  simk::EngineConfig ec;
  ec.num_processes = nprocs;
  const ir::Plan plan(prog);
  simk::Engine engine(ec);
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    ir::execute(plan, comm);
  });
  simk::RunResult rr = engine.run();
  return TracedRun{std::move(rr), world.all_stats(), std::move(trace)};
}

/// Compiles `prog`, calibrates at `nprocs`, runs original and simplified,
/// and returns the first trace divergence after stripping the simplified
/// program's read_param prologue (empty string = equivalent, the paper's
/// §3 correctness contract).
inline std::string am_trace_divergence(const ir::Program& prog, int nprocs,
                                       const harness::MachineSpec& machine) {
  core::CompileResult compiled = core::compile(prog);
  const auto params = harness::calibrate(compiled.timer_program, nprocs,
                                         machine, compiled.simplified.params);

  TracedRun original = run_traced(prog, nprocs, machine);
  TracedRun simplified =
      run_traced(compiled.simplified.program, nprocs, machine, params);

  // Strip the w_i prologue (one bcast per parameter on every rank).
  smpi::CommTrace stripped(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    const auto& ops = simplified.trace.per_rank()[static_cast<std::size_t>(r)];
    if (ops.size() < params.size()) return "prologue missing";
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (ops[i].kind != smpi::CommEvent::Kind::kBcast) {
        return "prologue op is not a bcast";
      }
    }
    for (std::size_t i = params.size(); i < ops.size(); ++i) {
      stripped.add(r, ops[i]);
    }
  }
  return original.trace.diff(stripped);
}

}  // namespace stgsim::testutil
