// Application-level tests: each benchmark builds, runs under direct
// execution, matches its analytic communication oracle, and — the paper's
// key contract — its compiler-simplified version communicates identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>

#include "apps/nas_sp.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "testutil.hpp"

namespace stgsim {
namespace {

const harness::MachineSpec kSP = harness::ibm_sp_machine();
const harness::MachineSpec kO2K = harness::origin2000_machine();

// ---------------------------------------------------------------------------
// Tomcatv
// ---------------------------------------------------------------------------

apps::TomcatvConfig small_tomcatv() {
  apps::TomcatvConfig c;
  c.n = 128;
  c.iterations = 3;
  return c;
}

TEST(Tomcatv, BuildsAndValidates) {
  ir::Program p = apps::make_tomcatv(small_tomcatv());
  p.validate();
  EXPECT_FALSE(p.to_string().empty());
}

TEST(Tomcatv, MessageCountMatchesOracle) {
  const auto cfg = small_tomcatv();
  const int nprocs = 4;
  auto run = testutil::run_traced(apps::make_tomcatv(cfg), nprocs, kSP);
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_EQ(run.rank_stats[static_cast<std::size_t>(r)].sends,
              apps::tomcatv_expected_isends(cfg, nprocs, r))
        << "rank " << r;
  }
}

TEST(Tomcatv, MemoryMatchesOracle) {
  const auto cfg = small_tomcatv();
  const int nprocs = 4;
  auto run = testutil::run_traced(apps::make_tomcatv(cfg), nprocs, kSP);
  EXPECT_EQ(run.result.peak_target_bytes,
            static_cast<std::size_t>(nprocs) *
                apps::tomcatv_rank_bytes(cfg, nprocs));
}

TEST(Tomcatv, SimplifiedProgramCommunicatesIdentically) {
  EXPECT_EQ(testutil::am_trace_divergence(apps::make_tomcatv(small_tomcatv()),
                                          4, kSP),
            "");
}

TEST(Tomcatv, SliceEliminatesAllMeshArrays) {
  auto compiled = core::compile(apps::make_tomcatv(small_tomcatv()));
  for (const char* a : {"X", "Y", "RX", "RY"}) {
    EXPECT_FALSE(compiled.slice.array_is_live(a)) << a;
  }
}

// ---------------------------------------------------------------------------
// Sweep3D
// ---------------------------------------------------------------------------

apps::Sweep3DConfig small_sweep() {
  apps::Sweep3DConfig c;
  c.it = 3;
  c.jt = 3;
  c.kt = 12;
  c.kb = 4;
  c.mm = 2;
  c.mmi = 1;
  c.timesteps = 1;
  c.npe_i = 2;
  c.npe_j = 3;
  return c;
}

TEST(Sweep3D, BuildsAndValidates) {
  ir::Program p = apps::make_sweep3d(small_sweep());
  p.validate();
}

TEST(Sweep3D, MessageCountMatchesOracle) {
  const auto cfg = small_sweep();
  const int nprocs = cfg.npe_i * cfg.npe_j;
  auto run = testutil::run_traced(apps::make_sweep3d(cfg), nprocs, kSP);
  for (int r = 0; r < nprocs; ++r) {
    const int ip = r % cfg.npe_i;
    const int jp = r / cfg.npe_i;
    EXPECT_EQ(run.rank_stats[static_cast<std::size_t>(r)].sends,
              apps::sweep3d_expected_sends(cfg, ip, jp))
        << "rank " << r;
  }
}

TEST(Sweep3D, WavefrontPipelinesAcrossGrid) {
  // Corner rank 0 must finish earlier than the far corner in a single
  // sweep direction mix; more usefully: completion times are not all
  // equal (the pipeline has a fill/drain skew).
  const auto cfg = small_sweep();
  const int nprocs = cfg.npe_i * cfg.npe_j;
  auto run = testutil::run_traced(apps::make_sweep3d(cfg), nprocs, kSP);
  EXPECT_GT(run.result.completion, 0);
  EXPECT_EQ(run.result.per_rank_completion.size(),
            static_cast<std::size_t>(nprocs));
}

TEST(Sweep3D, SimplifiedProgramCommunicatesIdentically) {
  const auto cfg = small_sweep();
  EXPECT_EQ(testutil::am_trace_divergence(apps::make_sweep3d(cfg),
                                          cfg.npe_i * cfg.npe_j, kSP),
            "");
}

TEST(Sweep3D, GridFactorizationIsNearSquare) {
  int pi = 0, pj = 0;
  apps::sweep3d_grid_for(64, &pi, &pj);
  EXPECT_EQ(pi * pj, 64);
  EXPECT_EQ(pi, 8);
  apps::sweep3d_grid_for(20000, &pi, &pj);
  EXPECT_EQ(pi * pj, 20000);
  EXPECT_LE(pi, pj);
  apps::sweep3d_grid_for(7, &pi, &pj);
  EXPECT_EQ(pi, 1);
  EXPECT_EQ(pj, 7);
}

TEST(Sweep3D, FixupBranchMakesDEDataDependent) {
  // The sweep kernel charges extra flops on the observed negative-source
  // fraction; the compiled model folds it into w_i. Both must be close at
  // the calibration configuration.
  const auto cfg = small_sweep();
  const int nprocs = cfg.npe_i * cfg.npe_j;
  ir::Program prog = apps::make_sweep3d(cfg);
  auto compiled = core::compile(prog);
  const auto params = harness::calibrate(compiled.timer_program, nprocs, kSP);
  EXPECT_TRUE(params.contains("w_sw_sweep"));
  EXPECT_GT(params.at("w_sw_sweep"), 0.0);
}

// ---------------------------------------------------------------------------
// NAS SP
// ---------------------------------------------------------------------------

apps::NasSpConfig small_sp() {
  apps::NasSpConfig c;
  c.grid = 17;  // not divisible by q: exercises the remainder path
  c.q = 2;
  c.timesteps = 2;
  return c;
}

TEST(NasSp, BuildsAndValidates) {
  ir::Program p = apps::make_nas_sp(small_sp());
  p.validate();
}

TEST(NasSp, ClassTableMatchesNpbSpec) {
  EXPECT_EQ(apps::sp_class('A', 2, 1).grid, 64);
  EXPECT_EQ(apps::sp_class('B', 2, 1).grid, 102);
  EXPECT_EQ(apps::sp_class('C', 2, 1).grid, 162);
}

TEST(NasSp, MessageCountMatchesOracle) {
  const auto cfg = small_sp();
  const int nprocs = cfg.q * cfg.q;
  auto run = testutil::run_traced(apps::make_nas_sp(cfg), nprocs, kSP);
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_EQ(run.rank_stats[static_cast<std::size_t>(r)].sends,
              apps::nas_sp_expected_sends(cfg, r))
        << "rank " << r;
  }
}

TEST(NasSp, SimplifiedProgramCommunicatesIdentically) {
  const auto cfg = small_sp();
  EXPECT_EQ(
      testutil::am_trace_divergence(apps::make_nas_sp(cfg), cfg.q * cfg.q, kSP),
      "");
}

TEST(NasSp, ZSolveRetainsExecutableSymbolicSum) {
  // The multipartition stage sizes are non-affine in the stage index, so
  // the condensed cost must contain a symbolic sum (or a retained loop) —
  // the paper's SP-specific observation (§3.3).
  auto compiled = core::compile(apps::make_nas_sp(small_sp()));
  bool found_sum = false;
  for (const auto& ct : compiled.simplified.condensed) {
    std::function<void(const sym::Node&)> walk = [&](const sym::Node& n) {
      if (n.op == sym::Op::kSum) found_sum = true;
      for (const auto& c : n.children) walk(*c);
    };
    walk(ct.seconds.node());
  }
  EXPECT_TRUE(found_sum);
}

// ---------------------------------------------------------------------------
// SAMPLE
// ---------------------------------------------------------------------------

TEST(Sample, BothPatternsBuildAndRun) {
  for (auto pattern :
       {apps::SamplePattern::kWavefront, apps::SamplePattern::kNearestNeighbor}) {
    apps::SampleConfig cfg;
    cfg.pattern = pattern;
    cfg.iterations = 5;
    cfg.msg_doubles = 256;
    cfg.work_iters = 5000;
    auto run = testutil::run_traced(apps::make_sample(cfg), 4, kO2K);
    EXPECT_GT(run.result.completion, 0) << apps::sample_pattern_name(pattern);
  }
}

TEST(Sample, WavefrontCompletionIncreasesWithRank) {
  apps::SampleConfig cfg;
  cfg.pattern = apps::SamplePattern::kWavefront;
  cfg.iterations = 10;
  cfg.msg_doubles = 128;
  cfg.work_iters = 20000;
  auto run = testutil::run_traced(apps::make_sample(cfg), 6, kO2K);
  // The pipeline drains toward higher ranks: strictly later completions.
  for (std::size_t r = 1; r < run.result.per_rank_completion.size(); ++r) {
    EXPECT_GT(run.result.per_rank_completion[r],
              run.result.per_rank_completion[r - 1])
        << "rank " << r;
  }
}

TEST(Sample, SimplifiedProgramCommunicatesIdentically) {
  for (auto pattern :
       {apps::SamplePattern::kWavefront, apps::SamplePattern::kNearestNeighbor}) {
    apps::SampleConfig cfg;
    cfg.pattern = pattern;
    cfg.iterations = 4;
    cfg.msg_doubles = 512;
    cfg.work_iters = 10000;
    EXPECT_EQ(testutil::am_trace_divergence(apps::make_sample(cfg), 4, kO2K),
              "")
        << apps::sample_pattern_name(pattern);
  }
}

TEST(Sample, WorkForRatioProducesRequestedBalance) {
  const auto machine = kO2K;
  const std::int64_t msg = 1024;
  for (double ratio : {1.0, 10.0, 100.0, 1000.0}) {
    const std::int64_t work =
        apps::sample_work_for_ratio(machine.net, machine.compute, msg, ratio);
    const double comp =
        static_cast<double>(work) *
        machine::seconds_per_iteration(machine.compute, 4.0, 0.0);
    const double comm =
        vtime_to_sec(machine.net.latency + machine.net.send_overhead +
                     machine.net.recv_overhead) +
        static_cast<double>(msg) * 8.0 / machine.net.bytes_per_sec;
    EXPECT_NEAR(comp / comm, ratio, 0.05 * ratio + 1.0) << "ratio " << ratio;
  }
}

// ---------------------------------------------------------------------------
// Kernel array contents
// ---------------------------------------------------------------------------

// The run digest hashes no array bytes, so it cannot show that a kernel
// body still computes every element bit for bit. A probe kernel appended
// to main() hashes each declared array on each rank at the end of a DE
// run, and a wrapper around sw_sweep's branch_fraction hashes every
// fixup fraction the interpreter charges.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void for_each_stmt_mut(std::vector<ir::StmtP>& block,
                       const std::function<void(ir::Stmt&)>& fn) {
  for (ir::StmtP& s : block) {
    fn(*s);
    for_each_stmt_mut(s->body, fn);
    for_each_stmt_mut(s->else_body, fn);
  }
}

struct ArrayHashes {
  std::uint64_t arrays = kFnvBasis;  ///< every array of every rank, in order
  std::uint64_t fixup = kFnvBasis;   ///< every sw_sweep fixup fraction
};

ArrayHashes kernel_array_hashes(ir::Program prog, int nprocs) {
  const auto n = static_cast<std::size_t>(nprocs);
  std::vector<std::uint64_t> arrays(n, kFnvBasis);
  std::vector<std::uint64_t> fixup(n, kFnvBasis);
  std::vector<std::string> names;
  for_each_stmt_mut(prog.main(), [&](ir::Stmt& s) {
    if (s.kind == ir::StmtKind::kDeclArray &&
        std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
    if (s.kind == ir::StmtKind::kCompute && s.kernel.branch_fraction) {
      s.kernel.branch_fraction = [inner = s.kernel.branch_fraction,
                                  &fixup](ir::KernelCtx& ctx) {
        const double f = inner(ctx);
        std::uint64_t& h = fixup[static_cast<std::size_t>(ctx.rank())];
        h = fnv1a(h, &f, sizeof f);
        return f;
      };
    }
  });
  ir::KernelSpec probe;
  probe.task = "array_probe";
  probe.reads = names;
  probe.body = [&arrays, names](ir::KernelCtx& ctx) {
    std::uint64_t& h = arrays[static_cast<std::size_t>(ctx.rank())];
    for (const std::string& a : names) {
      h = fnv1a(h, ctx.array(a), ctx.array_elems(a) * sizeof(double));
    }
  };
  ir::StmtP s = prog.make_stmt(ir::StmtKind::kCompute);
  s->kernel = std::move(probe);
  prog.main().push_back(std::move(s));

  (void)testutil::run_traced(prog, nprocs, kSP);
  ArrayHashes out;
  for (std::size_t r = 0; r < n; ++r) {
    out.arrays = fnv1a(out.arrays, &arrays[r], sizeof arrays[r]);
    out.fixup = fnv1a(out.fixup, &fixup[r], sizeof fixup[r]);
  }
  return out;
}

apps::SampleConfig pin_sample(apps::SamplePattern pattern,
                              std::int64_t work) {
  apps::SampleConfig c;
  c.pattern = pattern;
  c.iterations = 3;
  c.msg_doubles = 1024;
  c.work_iters = work;
  return c;
}

TEST(Apps, KernelArraysPinnedAtParent) {
  // A sweep block longer than the cell array (kb * mmi > kt), so the cell
  // index wraps inside one call as well as the face indices.
  apps::Sweep3DConfig wrap;
  wrap.it = 3;
  wrap.jt = 2;
  wrap.kt = 4;
  wrap.kb = 2;
  wrap.mm = 6;
  wrap.mmi = 3;
  wrap.npe_i = 2;
  wrap.npe_j = 2;
  apps::NasSpConfig sp9 = small_sp();
  sp9.q = 3;
  struct Case {
    const char* name;
    ir::Program prog;
    int nprocs;
    ArrayHashes want;
  };
  // Captured before the kernels' per-element loops lost their divisions.
  Case cases[] = {
      {"sweep3d", apps::make_sweep3d(small_sweep()), 6,
       {0xf5f0075cbaeddb70ULL, 0x449685d7f92fc84dULL}},
      {"sweep3d-wrap", apps::make_sweep3d(wrap), 4,
       {0x54d997c55aa33d61ULL, 0x1d875a681cf7ad15ULL}},
      {"tomcatv", apps::make_tomcatv(small_tomcatv()), 4,
       {0xcd8d6c91f9fe2903ULL, 0x939e3a8b38c8fe25ULL}},
      {"nas_sp", apps::make_nas_sp(small_sp()), 4,
       {0x33a8181f40790d4bULL, 0x939e3a8b38c8fe25ULL}},
      {"nas_sp-9", apps::make_nas_sp(sp9), 9,
       {0xc5afa998d925eab3ULL, 0x80e235df8de89bccULL}},
      {"sample-nn",
       apps::make_sample(
           pin_sample(apps::SamplePattern::kNearestNeighbor, 100000)),
       8, {0x0c159183357f8c2cULL, 0xaf3449a2699d5925ULL}},
      {"sample-anysource",
       apps::make_sample(pin_sample(apps::SamplePattern::kAnySource, 3000)),
       16, {0x5186647673619432ULL, 0x6f26cf977ace8f25ULL}},
  };
  for (Case& c : cases) {
    const ArrayHashes got = kernel_array_hashes(std::move(c.prog), c.nprocs);
    EXPECT_EQ(got.arrays, c.want.arrays) << c.name;
    EXPECT_EQ(got.fixup, c.want.fixup) << c.name;
  }
}

}  // namespace
}  // namespace stgsim
