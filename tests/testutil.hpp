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

/// What a Time Warp run on a bare engine leaves behind for the state-saving
/// checks (DESIGN.md §15).
struct TimeWarpRun {
  simk::ParallelStats stats;
  std::vector<VTime> per_rank;
  std::vector<simk::Engine::OptDebug> ranks;  ///< opt_debug per rank at the end
  std::uint64_t deferred_admissions = 0;
};

/// Runs `prog` in direct execution under Time Warp on `workers` workers,
/// wired like harness::run_program but keeping the engine in reach for its
/// test hooks.
inline TimeWarpRun run_time_warp(const ir::Program& prog, int nprocs,
                                 int workers) {
  const harness::RunConfig cfg;
  const harness::MachineSpec& machine = cfg.machine;
  smpi::World::Options wopts;
  wopts.net = machine.net;
  wopts.compute = machine.compute;
  wopts.coll = machine.coll;
  simk::EngineConfig ec;
  ec.num_processes = nprocs;
  ec.host_workers = workers;
  ec.optimistic = true;
  ec.seed = cfg.seed;
  const ir::Plan plan(prog);
  simk::Engine engine(ec);
  smpi::World world(wopts, nprocs);
  engine.set_wildcard_min_latency(world.wildcard_latency_floor());
  engine.set_rollback_reset(
      [&world](int rank) { world.stats(rank) = smpi::RankStats{}; });
  engine.set_body([&](simk::Process& p) {
    smpi::Comm comm(world, p);
    ir::execute(plan, comm);
  });
  TimeWarpRun run;
  run.per_rank = engine.run().per_rank_completion;
  run.stats = engine.parallel_stats();
  for (int r = 0; r < nprocs; ++r) run.ranks.push_back(engine.opt_debug(r));
  run.deferred_admissions = engine.deferred_admissions();
  return run;
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
