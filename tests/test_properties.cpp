// Property-based tests: randomly generated message-passing programs are
// pushed through the whole pipeline, asserting the system-level
// invariants of DESIGN.md §6 on every one:
//   * the compiler accepts the program and its outputs validate;
//   * the simplified program performs identical communication;
//   * simulation is deterministic across repeated runs;
//   * workers {0,2,4} under both protocols agree with the sequential
//     conservative run, digest for digest.
//
// The generator produces ring-topology programs: random scalar dataflow,
// random (possibly nested) loops and branches, kernels with random affine
// scaling functions, neighbour sends/receives, global reductions,
// ANY_SOURCE gathers after rank-dependent work, and nonblocking exchanges
// with a rank-dependent peer. Message sizes and loop bounds are
// rank-invariant, every send has exactly one matching receive, and no
// rank waits on a message it must send later (shifts are pipelined, the
// gather's root only receives, the exchange posts both sides before its
// waitall), so the programs are deadlock-free by construction.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "harness/digest.hpp"
#include "ir/builder.hpp"
#include "testutil.hpp"

namespace stgsim {
namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed)
      : rng_(seed), b_("random_" + std::to_string(seed)) {}

  ir::Program generate() {
    b_.get_size("P");
    b_.get_rank("myid");
    scalars_ = {"P"};
    Expr n = b_.decl_int("N", I(rng_.next_in(16, 48)));
    scalars_.push_back("N");
    b_.decl_real("acc", Expr::real(1.0));
    for (int a = 0; a < 3; ++a) {
      arrays_.push_back("A" + std::to_string(a));
      b_.decl_array(arrays_.back(), {n * 4});
    }
    emit_block(/*depth=*/0, static_cast<int>(rng_.next_in(3, 6)));
    return b_.take();
  }

 private:
  /// Random non-negative integer expression over rank-invariant scalars.
  Expr random_expr(int depth) {
    if (depth == 0 || rng_.next_below(3) == 0) {
      if (rng_.next_below(2) == 0 && !scalars_.empty()) {
        return Expr::var(
            scalars_[rng_.next_below(scalars_.size())]);
      }
      return I(rng_.next_in(1, 12));
    }
    Expr lhs = random_expr(depth - 1);
    Expr rhs = random_expr(depth - 1);
    switch (rng_.next_below(5)) {
      case 0: return lhs + rhs;
      case 1: return lhs * sym::min(rhs, I(4));
      case 2: return sym::min(lhs, rhs);
      case 3: return sym::max(lhs, rhs);
      default: return sym::ceil_div(lhs, sym::max(rhs, I(1)));
    }
  }

  enum Segment {
    kScalar, kKernel, kShift, kCollective, kGather, kExchange, kLoop, kBranch
  };

  /// Rank-invariant message count within every array: min(e, N) >= 1.
  Expr random_count() {
    return sym::max(sym::min(random_expr(1), Expr::var("N")), I(1));
  }

  void emit_block(int depth, int segments) {
    // Loops and branches nest at most two deep.
    const int kinds = depth < 2 ? kBranch + 1 : kLoop;
    for (int s = 0; s < segments; ++s) {
      switch (static_cast<Segment>(rng_.next_below(kinds))) {
        case kScalar: {  // scalar dataflow
          const std::string name = "s" + std::to_string(next_scalar_++);
          b_.decl_int(name, random_expr(2));
          scalars_.push_back(name);
          break;
        }
        case kKernel: {  // compute kernel with random scaling function
          ir::KernelSpec k;
          k.task = "t" + std::to_string(next_task_++);
          k.iters = random_expr(2);
          k.flops_per_iter = static_cast<double>(rng_.next_in(1, 4));
          k.writes = {arrays_[rng_.next_below(arrays_.size())]};
          b_.compute(std::move(k));
          break;
        }
        case kShift: {  // right-shift neighbour exchange (pipeline-safe order)
          const std::string& arr = arrays_[rng_.next_below(arrays_.size())];
          const int tag = static_cast<int>(next_tag_++);
          Expr count = random_count();
          Expr myid = Expr::var("myid");
          Expr P = Expr::var("P");
          b_.if_then(sym::gt(myid, I(0)),
                     [&] { b_.recv(arr, myid - 1, count, I(0), tag); });
          b_.if_then(sym::lt(myid, P - 1),
                     [&] { b_.send(arr, myid + 1, count, I(0), tag); });
          break;
        }
        case kCollective: {  // global reduction or barrier
          if (rng_.next_below(2) == 0) {
            b_.allreduce_sum("acc");
          } else {
            b_.barrier();
          }
          break;
        }
        case kGather: {  // ANY_SOURCE gather to rank 0 (sample's anysource)
          const std::string& arr = arrays_[rng_.next_below(arrays_.size())];
          const int tag = static_cast<int>(next_tag_++);
          Expr count = random_count();
          Expr myid = Expr::var("myid");
          Expr P = Expr::var("P");
          // Rank-dependent work before each send, so the order in which
          // the root's wildcard receives see their candidates varies.
          ir::KernelSpec k;
          k.task = "t" + std::to_string(next_task_++);
          Expr skew = rng_.next_below(2) == 0 ? P - myid
                                               : sym::imod(myid * 3, P) + 1;
          k.iters = random_expr(1) * skew;
          k.flops_per_iter = static_cast<double>(rng_.next_in(1, 4));
          k.writes = {arr};
          b_.if_then(sym::gt(myid, I(0)), [&] {
            b_.compute(std::move(k));
            b_.send(arr, I(0), count, I(0), tag);
          });
          const std::string var = "g" + std::to_string(next_loop_++);
          b_.if_then(sym::eq(myid, I(0)), [&] {
            b_.for_loop(var, I(1), P - 1, [&](Expr) {
              b_.recv(arr, I(-1), count, I(0), tag);
            });
          });
          break;
        }
        case kExchange: {  // nonblocking shift by k to (myid + k) mod P
          const std::string& arr = arrays_[rng_.next_below(arrays_.size())];
          const int tag = static_cast<int>(next_tag_++);
          Expr count = random_count();
          Expr myid = Expr::var("myid");
          Expr P = Expr::var("P");
          // k < P for every world size the tests use (P >= 4), so no rank
          // talks to itself. The receive lands beside the send region.
          const auto k = rng_.next_in(1, 3);
          const std::string reqs = "r" + std::to_string(next_reqs_++);
          b_.isend(reqs, arr, sym::imod(myid + k, P), count, I(0), tag);
          b_.irecv(reqs, arr, sym::imod(myid + P - k, P), count, count, tag);
          b_.waitall(reqs);
          break;
        }
        case kLoop: {  // loop (rank-invariant bounds)
          const std::string var = "i" + std::to_string(next_loop_++);
          const auto trip = rng_.next_in(1, 3);
          const int inner = static_cast<int>(rng_.next_in(1, 3));
          // Declarations inside the body are only safely referenceable
          // inside it (the frame is flat, but emitted code must not read
          // scalars whose declaration may not have executed).
          const std::size_t scope = scalars_.size();
          b_.for_loop(var, I(1), I(trip), [&](Expr) {
            scalars_.push_back(var);
            emit_block(depth + 1, inner);
          });
          scalars_.resize(scope);
          break;
        }
        case kBranch: {  // branch on rank-invariant condition
          Expr cond = sym::lt(random_expr(1), random_expr(1));
          const int inner = static_cast<int>(rng_.next_in(1, 2));
          const std::size_t scope = scalars_.size();
          b_.if_then_else(cond, [&] { emit_block(depth + 1, inner); },
                          [&] {
                            scalars_.resize(scope);
                            emit_block(depth + 1, inner);
                          });
          scalars_.resize(scope);
          break;
        }
      }
    }
  }

  Rng rng_;
  ir::ProgramBuilder b_;
  std::vector<std::string> scalars_;
  std::vector<std::string> arrays_;
  int next_scalar_ = 0;
  int next_task_ = 0;
  int next_loop_ = 0;
  int next_reqs_ = 0;
  std::uint64_t next_tag_ = 1;
};

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, CompilePipelineHoldsItsInvariants) {
  const int nprocs = 5;
  const auto machine = harness::ibm_sp_machine();
  ir::Program prog = ProgramGenerator(GetParam()).generate();
  prog.validate();

  // Invariant 1: compilation succeeds and outputs validate.
  core::CompileResult compiled = core::compile(prog);
  compiled.simplified.program.validate();
  compiled.timer_program.validate();

  // Invariant 2: communication-trace equivalence.
  EXPECT_EQ(testutil::am_trace_divergence(prog, nprocs, machine), "")
      << "seed " << GetParam();
}

TEST_P(RandomPrograms, SimulationIsDeterministic) {
  const int nprocs = 4;
  const auto machine = harness::ibm_sp_machine();
  ir::Program prog = ProgramGenerator(GetParam()).generate();
  auto a = testutil::run_traced(prog, nprocs, machine);
  auto b = testutil::run_traced(prog, nprocs, machine);
  EXPECT_EQ(a.result.per_rank_completion, b.result.per_rank_completion);
  EXPECT_EQ(a.trace.diff(b.trace), "");
}

TEST_P(RandomPrograms, ThreadedSchedulerMatchesSequential) {
  const int nprocs = 6;
  ir::Program prog = ProgramGenerator(GetParam()).generate();

  auto digest = [&](int workers, harness::Schedule schedule) {
    harness::RunConfig cfg;
    cfg.nprocs = nprocs;
    cfg.mode = harness::Mode::kDirectExec;
    cfg.threads = workers;
    cfg.schedule = schedule;
    const harness::RunOutcome out = harness::run_program(prog, cfg);
    EXPECT_TRUE(out.ok()) << out.diagnostic;
    return harness::run_digest(out);
  };

  const std::uint64_t seq = digest(0, harness::Schedule::kConservative);
  for (harness::Schedule schedule : {harness::Schedule::kConservative,
                                     harness::Schedule::kOptimistic}) {
    for (int workers : {0, 2, 4}) {
      EXPECT_EQ(seq, digest(workers, schedule))
          << "seed " << GetParam() << ", " << workers << " workers, "
          << harness::schedule_name(schedule);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 25));

// The wildcard seeds are the ones the threaded comparison above exists
// for: guard against a generator change that quietly stops emitting them.
TEST(RandomProgramsCoverage, ManySeedsRunWildcardReceives) {
  int wildcard_seeds = 0;
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    harness::RunConfig cfg;
    cfg.nprocs = 6;
    cfg.mode = harness::Mode::kDirectExec;
    const harness::RunOutcome out =
        harness::run_program(ProgramGenerator(seed).generate(), cfg);
    ASSERT_TRUE(out.ok()) << "seed " << seed << ": " << out.diagnostic;
    if (out.used_wildcard_recv) ++wildcard_seeds;
  }
  EXPECT_GE(wildcard_seeds, 8);
}

}  // namespace
}  // namespace stgsim
