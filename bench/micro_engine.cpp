// Microbenchmarks (google-benchmark) for the simulation substrate: fiber
// switching, message round-trips through the engine, symbolic-expression
// evaluation, and interpreter statement dispatch. These bound the cost of
// one simulated event, which is what the AM simulator's wall-clock is
// made of.
#include <benchmark/benchmark.h>

#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "sim/engine.hpp"
#include "smpi/smpi.hpp"
#include "symexpr/expr.hpp"

using namespace stgsim;

namespace {

void BM_FiberCreateAndRun(benchmark::State& state) {
  simk::RunStack stack(64 * 1024);
  for (auto _ : state) {
    simk::Fiber f([] {}, stack);
    f.resume();
    benchmark::DoNotOptimize(f.finished());
  }
}
BENCHMARK(BM_FiberCreateAndRun);

void BM_FiberSwitch(benchmark::State& state) {
  simk::RunStack stack(64 * 1024);
  simk::Fiber f(
      [] {
        while (true) simk::Fiber::yield_to_scheduler();
      },
      stack);
  for (auto _ : state) {
    f.resume();
  }
  state.counters["saved_bytes"] = static_cast<double>(f.saved_bytes());
  // Destroyed while suspended: the body holds no resources to unwind.
}
BENCHMARK(BM_FiberSwitch);

/// Yields forever from under `bytes` of extra live frame.
[[gnu::noinline]] void yield_under(std::size_t bytes) {
  auto* pad = static_cast<volatile char*>(__builtin_alloca(bytes));
  pad[0] = 0;
  while (true) simk::Fiber::yield_to_scheduler();
}

/// BM_FiberSwitch with 2.7 KiB of live frames, a little above what an
/// engine rank blocked in a receive saves (2.3 KiB at sweep3d@16,384 AM):
/// each resume copies them onto the run stack and each yield copies them
/// off.
void BM_FiberSwitchDeepFrames(benchmark::State& state) {
  simk::RunStack stack(64 * 1024);
  simk::Fiber f([] { yield_under(2512); }, stack);
  for (auto _ : state) {
    f.resume();
  }
  state.counters["saved_bytes"] = static_cast<double>(f.saved_bytes());
}
BENCHMARK(BM_FiberSwitchDeepFrames);

void BM_EnginePingPong(benchmark::State& state) {
  const auto msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    smpi::World::Options wopts;
    smpi::World world(wopts, 2);
    simk::EngineConfig ec;
    ec.num_processes = 2;
    simk::Engine engine(ec);
    engine.set_body([&](simk::Process& p) {
      smpi::Comm comm(world, p);
      double buf[8] = {};
      for (int i = 0; i < msgs; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, 0, buf, sizeof buf);
          comm.recv(1, 1, buf, sizeof buf);
        } else {
          comm.recv(0, 0, buf, sizeof buf);
          comm.send(0, 1, buf, sizeof buf);
        }
      }
    });
    auto res = engine.run();
    benchmark::DoNotOptimize(res.completion);
  }
  state.SetItemsProcessed(state.iterations() * msgs * 2);
}
BENCHMARK(BM_EnginePingPong)->Arg(64)->Arg(1024);

void BM_ExprEval(benchmark::State& state) {
  using sym::Expr;
  Expr n = Expr::var("N");
  Expr p = Expr::var("P");
  Expr e = (n - 2) * sym::max(sym::min(n, p * 4) - sym::max(Expr::integer(2),
                                                            p - 1) +
                                  1,
                              Expr::integer(0));
  sym::MapEnv env;
  env.set("N", sym::Value(std::int64_t{1024}));
  env.set("P", sym::Value(std::int64_t{16}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.eval_real(env));
  }
}
BENCHMARK(BM_ExprEval);

void BM_InterpScalarLoop(benchmark::State& state) {
  using sym::Expr;
  ir::ProgramBuilder b("loop_micro");
  b.get_size("P");
  b.get_rank("myid");
  Expr n = b.decl_int("N", Expr::integer(state.range(0)));
  b.decl_int("acc", Expr::integer(0));
  b.for_loop("i", Expr::integer(1), n, [&](Expr i) {
    b.assign("acc", Expr::var("acc") + i);
  });
  ir::Program prog = b.take();

  for (auto _ : state) {
    smpi::World::Options wopts;
    smpi::World world(wopts, 1);
    simk::EngineConfig ec;
    ec.num_processes = 1;
    const ir::Plan plan(prog);
    simk::Engine engine(ec);
    engine.set_body([&](simk::Process& p) {
      smpi::Comm comm(world, p);
      ir::execute(plan, comm);
    });
    auto res = engine.run();
    benchmark::DoNotOptimize(res.completion);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InterpScalarLoop)->Arg(1000);

void BM_SequentialManyProcesses(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    smpi::World::Options wopts;
    smpi::World world(wopts, procs);
    simk::EngineConfig ec;
    ec.num_processes = procs;
    ec.fiber_stack_bytes = 64 * 1024;
    simk::Engine engine(ec);
    engine.set_body([&](simk::Process& p) {
      smpi::Comm comm(world, p);
      comm.delay(vtime_from_us(10));
      comm.barrier();
    });
    auto res = engine.run();
    benchmark::DoNotOptimize(res.completion);
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_SequentialManyProcesses)->Arg(256)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
