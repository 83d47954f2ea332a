// Rank-to-worker partitioning: the pure graph algorithms in
// src/sim/partition.*, the static affinity extraction in
// src/harness/affinity.*, and the end-to-end properties the threaded
// scheduler depends on — comm-aware placement strictly reduces
// cross-partition traffic on the 2-D apps, and no placement ever changes
// simulated results (digest identity across modes and schedulers).
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "apps/nas_sp.hpp"
#include "apps/registry.hpp"
#include "apps/sweep3d.hpp"
#include "core/compiler.hpp"
#include "harness/affinity.hpp"
#include "harness/digest.hpp"
#include "harness/runner.hpp"
#include "ir/builder.hpp"
#include "sim/partition.hpp"

namespace stgsim {
namespace {

using simk::Affinity;
using simk::PartitionMode;

// ---------------------------------------------------------------------------
// Pure partitioners
// ---------------------------------------------------------------------------

void expect_balanced(const std::vector<int>& part, int nranks, int workers) {
  ASSERT_EQ(part.size(), static_cast<std::size_t>(nranks));
  std::vector<int> sizes(static_cast<std::size_t>(workers), 0);
  for (int w : part) {
    ASSERT_GE(w, 0);
    ASSERT_LT(w, workers);
    ++sizes[static_cast<std::size_t>(w)];
  }
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*mx - *mn, 1);
}

TEST(Partition, BlockAndInterleaveShapes) {
  const auto blk = simk::block_partition(10, 4);
  expect_balanced(blk, 10, 4);
  // Contiguous runs (remainder ranks spread across workers: 3,2,3,2).
  EXPECT_EQ(blk, (std::vector<int>{0, 0, 0, 1, 1, 2, 2, 2, 3, 3}));
  const auto il = simk::interleave_partition(10, 4);
  expect_balanced(il, 10, 4);
  EXPECT_EQ(il, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}));
}

Affinity grid_affinity(int w, int h, double weight) {
  Affinity aff(w * h);
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      const int r = j * w + i;
      if (i + 1 < w) aff.add(r, r + 1, weight);
      if (j + 1 < h) aff.add(r, r + w, weight);
    }
  }
  return aff;
}

TEST(Partition, CutWeightCountsEachCrossEdgeOnce) {
  Affinity aff(4);
  aff.add(0, 1, 2.0);
  aff.add(1, 2, 3.0);
  aff.add(2, 3, 5.0);
  const std::vector<int> part = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(simk::cut_weight(aff, part), 3.0);
  EXPECT_DOUBLE_EQ(simk::cut_weight(aff, {0, 1, 0, 1}), 10.0);
  EXPECT_DOUBLE_EQ(simk::cut_weight(aff, {0, 0, 0, 0}), 0.0);
}

TEST(Partition, CommFindsTilesOnA2dGrid) {
  // 8x2 grid over 4 workers: block = rows-of-4 cuts 10 edges; the optimal
  // 2x2 tiling cuts 6. KL must escape the zero-gain plateau between them.
  const Affinity aff = grid_affinity(8, 2, 1.0);
  const auto blk = simk::block_partition(16, 4);
  const auto cm = simk::comm_partition(aff, 4);
  expect_balanced(cm, 16, 4);
  EXPECT_DOUBLE_EQ(simk::cut_weight(aff, blk), 10.0);
  EXPECT_DOUBLE_EQ(simk::cut_weight(aff, cm), 6.0);
}

TEST(Partition, CommNeverWorseThanBlockOnGrids) {
  for (int w : {2, 3, 4, 8}) {
    for (auto [gw, gh] : {std::pair{4, 4}, {6, 6}, {8, 2}, {16, 1}}) {
      const Affinity aff = grid_affinity(gw, gh, 1.0);
      const auto blk = simk::block_partition(aff.nranks(), w);
      const auto cm = simk::comm_partition(aff, w);
      expect_balanced(cm, aff.nranks(), w);
      EXPECT_LE(simk::cut_weight(aff, cm), simk::cut_weight(aff, blk))
          << gw << "x" << gh << " over " << w;
    }
  }
}

TEST(Partition, CommIsDeterministic) {
  const Affinity aff = grid_affinity(6, 6, 1.0);
  EXPECT_EQ(simk::comm_partition(aff, 4), simk::comm_partition(aff, 4));
}

TEST(Partition, MakePartitionDispatchesAndParses) {
  PartitionMode m;
  EXPECT_TRUE(simk::parse_partition_mode("comm", &m));
  EXPECT_EQ(m, PartitionMode::kComm);
  EXPECT_TRUE(simk::parse_partition_mode("interleave", &m));
  EXPECT_EQ(m, PartitionMode::kInterleave);
  EXPECT_FALSE(simk::parse_partition_mode("metis", &m));
  const Affinity aff = grid_affinity(4, 2, 1.0);
  EXPECT_EQ(simk::make_partition(PartitionMode::kBlock, 8, 2, nullptr),
            simk::block_partition(8, 2));
  EXPECT_EQ(simk::make_partition(PartitionMode::kComm, 8, 2, &aff),
            simk::comm_partition(aff, 2));
}

// FNV-1a over 64-bit words: pins exact outputs without listing them.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

/// Hash of the graph exactly as stored: every (rank, peer, weight bits) in
/// neighbour order, so a change in insertion order or in one rounding bit
/// shows up.
std::uint64_t affinity_hash(const Affinity& aff) {
  Fnv f;
  for (int r = 0; r < aff.nranks(); ++r) {
    for (const auto& [peer, w] : aff.neighbors(r)) {
      f.add(static_cast<std::uint64_t>(r));
      f.add(static_cast<std::uint64_t>(peer));
      f.add(std::bit_cast<std::uint64_t>(w));
    }
  }
  return f.h;
}

std::uint64_t partition_hash(const std::vector<int>& part) {
  Fnv f;
  for (int p : part) f.add(static_cast<std::uint64_t>(p));
  return f.h;
}

TEST(Partition, CommOutputPinnedAtScale) {
  // Placement (and the affinity graph it is computed from) for the shipped
  // apps at production-like scale, pinned bit for bit: the AM programs the
  // benchmark simulates, plus sweep3d's full DE program so the walker's
  // unresolvable expressions (array reads, kernel-dependent values) are
  // covered too. Any change to the partitioner or the walker must leave
  // every value here unchanged.
  struct Case {
    const char* app;
    int nprocs;
    bool am;
    std::uint64_t affinity;
    std::uint64_t part[4];  // k = 2, 3, 4, 8
    double cut[4];
  };
  const Case cases[] = {
      {"sweep3d", 4096, true, 0x3a26b360ac6bf785ull,
       {0xd8e15f0032c3a325ull, 0x4b1e69e54c0ceca4ull,
        0x59138ad62614a325ull, 0xbdf6d0fcdd72a325ull},
       {135364608.0, 258038784.0, 270729216.0, 541458432.0}},
      {"tomcatv", 4096, true, 0x2e961f16e1a1ecd9ull,
       {0xd8e15f0032c3a325ull, 0xda854b59db9c8bc4ull,
        0xa66fbbecd714a325ull, 0x5dd239ca7e72a325ull},
       {1572864.0, 3145728.0, 4718592.0, 11010048.0}},
      {"sample", 4096, true, 0x2688ab5e0f175659ull,
       {0xd8e15f0032c3a325ull, 0xda854b59db9c8bc4ull,
        0xa66fbbecd714a325ull, 0x5dd239ca7e72a325ull},
       {786432.0, 1572864.0, 2359296.0, 5505024.0}},
      {"nas_sp", 1024, true, 0x0edca5ee0ea36695ull,
       {0x713de5845bca8325ull, 0x4aa942e0a7194bc4ull,
        0xbd4860cb9ebec325ull, 0xe639a5f9b0964325ull},
       {20971520.0, 43253760.0, 41943040.0, 83886080.0}},
      {"sweep3d", 1024, false, 0x8e4420670af278adull,
       {0x713de5845bca8325ull, 0x4aa942e0a7194bc4ull,
        0xbd4860cb9ebec325ull, 0xe639a5f9b0964325ull},
       {8460288.0, 17449344.0, 16920576.0, 33841152.0}},
  };
  const int ks[4] = {2, 3, 4, 8};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.app) + "@" + std::to_string(c.nprocs) +
                 (c.am ? " am" : " de"));
    const ir::Program built = apps::build_app({c.app, {}}, c.nprocs);
    std::optional<core::CompileResult> compiled;
    if (c.am) compiled.emplace(core::compile(built));
    const ir::Program& prog = c.am ? compiled->simplified.program : built;
    const Affinity aff = harness::comm_affinity(prog, c.nprocs);
    EXPECT_EQ(affinity_hash(aff), c.affinity);
    for (int i = 0; i < 4; ++i) {
      const auto part = simk::comm_partition(aff, ks[i]);
      expect_balanced(part, c.nprocs, ks[i]);
      EXPECT_EQ(partition_hash(part), c.part[i]) << "k=" << ks[i];
      EXPECT_EQ(simk::cut_weight(aff, part), c.cut[i]) << "k=" << ks[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Static affinity extraction
// ---------------------------------------------------------------------------

TEST(Affinity, Sweep3dAffinityIsTheProcessGrid) {
  apps::Sweep3DConfig sc;
  sc.npe_i = 4;
  sc.npe_j = 4;
  const Affinity aff = harness::comm_affinity(apps::make_sweep3d(sc), 16);
  ASSERT_EQ(aff.nranks(), 16);
  // Every rank talks only to its grid neighbors (|di|+|dj| == 1).
  for (int r = 0; r < 16; ++r) {
    for (const auto& [peer, w] : aff.neighbors(r)) {
      EXPECT_GT(w, 0.0);
      const int di = std::abs(r % 4 - peer % 4);
      const int dj = std::abs(r / 4 - peer / 4);
      EXPECT_EQ(di + dj, 1) << r << " <-> " << peer;
    }
  }
  EXPECT_GT(aff.total_weight(), 0.0);
}

TEST(Affinity, WalkerEdgeCasesSurviveTapes) {
  // Each block exercises one rule of the static walk; the expected graph
  // below records which edges each rule keeps and at what weight.
  using sym::Expr;
  constexpr int kRanks = 8;
  ir::ProgramBuilder b("walker_edges");
  const Expr me = b.get_rank("me");
  const Expr np = b.get_size("np");
  b.decl_array("buf", {Expr::integer(64)});
  const Expr depth = b.decl_int("depth", Expr::integer(0));
  // 1. A peer read from a parameter lives in the smpi world: skipped.
  const Expr q = b.read_param("q", "w_q");
  b.send("buf", q, Expr::integer(1), Expr::integer(0), 1);
  // 2. select() with an unbound variable in the untaken branch: the edge
  //    is kept; on the last rank the branch is taken and the edge dropped.
  b.send("buf", sym::select(sym::lt(me, np - 1), me + 1, Expr::var("nobody")),
         Expr::integer(2), Expr::integer(0), 2);
  // 3. A peer that divides by zero: skipped.
  b.send("buf", sym::idiv(me, me - me), Expr::integer(1), Expr::integer(0), 3);
  // 4. Unresolvable loop bounds: the body runs once with `i` unset, so the
  //    i-independent peer is kept and the i-dependent one skipped.
  b.for_loop("i", Expr::integer(0), q, [&](Expr i) {
    b.send("buf", sym::imod(me + 2, np), Expr::integer(3), Expr::integer(0), 4);
    b.send("buf", i, Expr::integer(1), Expr::integer(0), 5);
  });
  // 5. Unresolvable size: unit weight.
  b.send("buf", sym::imod(me + 3, np), q, Expr::integer(0), 6);
  // 6. A recursive kCall chain is cut past the walker's depth limit; the
  //    growing `depth` size records how many levels were walked.
  b.procedure("dive", [&] {
    b.assign("depth", depth + 1);
    b.send("buf", sym::imod(me + 4, np), depth, Expr::integer(0), 7);
    b.call("dive");
  });
  b.call("dive");
  const ir::Program prog = b.take();

  const Affinity aff = harness::comm_affinity(prog, kRanks);
  std::vector<std::tuple<int, int, double>> edges;
  for (int r = 0; r < kRanks; ++r) {
    for (const auto& [peer, w] : aff.neighbors(r)) {
      edges.emplace_back(r, peer, w);
    }
  }
  // Rank r's row, in neighbour order: r±1 (rule 2, 16 bytes each way), r±2
  // (rule 4, 24 bytes), r±3 (rule 5, weight 1) and r+4 (rule 6: both ends
  // send 8 * (1 + ... + 64) bytes, i.e. 64 call levels were walked).
  const std::vector<std::tuple<int, int, double>> want = {
      {0, 1, 16}, {0, 2, 24}, {0, 3, 1}, {0, 4, 33280},
      {0, 5, 1}, {0, 6, 24}, {1, 0, 16}, {1, 2, 16},
      {1, 3, 24}, {1, 4, 1}, {1, 5, 33280}, {1, 6, 1},
      {1, 7, 24}, {2, 0, 24}, {2, 1, 16}, {2, 3, 16},
      {2, 4, 24}, {2, 5, 1}, {2, 6, 33280}, {2, 7, 1},
      {3, 0, 1}, {3, 1, 24}, {3, 2, 16}, {3, 4, 16},
      {3, 5, 24}, {3, 6, 1}, {3, 7, 33280}, {4, 0, 33280},
      {4, 1, 1}, {4, 2, 24}, {4, 3, 16}, {4, 5, 16},
      {4, 6, 24}, {4, 7, 1}, {5, 1, 33280}, {5, 2, 1},
      {5, 3, 24}, {5, 4, 16}, {5, 6, 16}, {5, 7, 24},
      {5, 0, 1}, {6, 2, 33280}, {6, 3, 1}, {6, 4, 24},
      {6, 5, 16}, {6, 7, 16}, {6, 0, 24}, {6, 1, 1},
      {7, 3, 33280}, {7, 4, 1}, {7, 5, 24}, {7, 6, 16},
      {7, 1, 24}, {7, 2, 1},
  };
  EXPECT_EQ(edges, want);
}

// ---------------------------------------------------------------------------
// End-to-end: placement quality and digest invariance
// ---------------------------------------------------------------------------

harness::RunOutcome run_app(const ir::Program& prog, int procs, int threads,
                            PartitionMode part, obs::Recorder* obs = nullptr) {
  harness::RunConfig cfg;
  cfg.nprocs = procs;
  cfg.mode = harness::Mode::kDirectExec;
  cfg.threads = threads;
  cfg.partition = part;
  cfg.obs = obs;
  return harness::run_program(prog, cfg);
}

TEST(Partition, CommBeatsBlockOnSweep3dCrossTraffic) {
  apps::Sweep3DConfig sc;
  sc.npe_i = 8;
  sc.npe_j = 2;
  const ir::Program prog = apps::make_sweep3d(sc);
  const auto block = run_app(prog, 16, 4, PartitionMode::kBlock);
  const auto comm = run_app(prog, 16, 4, PartitionMode::kComm);
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(comm.ok());
  // Message totals are identical — only locality changes.
  EXPECT_EQ(block.messages, comm.messages);
  EXPECT_LT(comm.parallel.cross_messages(), block.parallel.cross_messages());
  EXPECT_GT(comm.parallel.intra_messages, block.parallel.intra_messages);
}

TEST(Partition, CommBeatsBlockOnNasSpCrossTraffic) {
  const ir::Program prog = apps::make_nas_sp(apps::sp_class('A', 4, 2));
  const auto block = run_app(prog, 16, 4, PartitionMode::kBlock);
  const auto comm = run_app(prog, 16, 4, PartitionMode::kComm);
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(comm.ok());
  EXPECT_EQ(block.messages, comm.messages);
  EXPECT_LT(comm.parallel.cross_messages(), block.parallel.cross_messages());
}

TEST(Partition, DigestsIdenticalAcrossModesAndSchedulers) {
  apps::Sweep3DConfig sc;
  sc.npe_i = 8;
  sc.npe_j = 2;
  const ir::Program prog = apps::make_sweep3d(sc);
  const auto seq = run_app(prog, 16, 0, PartitionMode::kBlock);
  ASSERT_TRUE(seq.ok());
  const std::uint64_t want = harness::run_digest(seq);
  for (PartitionMode m : {PartitionMode::kBlock, PartitionMode::kInterleave,
                          PartitionMode::kComm}) {
    for (int threads : {1, 2, 4}) {
      const auto out = run_app(prog, 16, threads, m);
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(harness::run_digest(out), want)
          << simk::partition_mode_name(m) << " x " << threads << " workers";
    }
  }
}

TEST(Partition, SingleThreadFastPathSkipsParallelProtocol) {
  const ir::Program prog = apps::make_nas_sp(apps::sp_class('A', 2, 2));
  const auto seq = run_app(prog, 4, 0, PartitionMode::kBlock);
  const auto one = run_app(prog, 4, 1, PartitionMode::kComm);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(harness::run_digest(one), harness::run_digest(seq));
  EXPECT_EQ(one.parallel.rounds, 0u);
  EXPECT_EQ(one.parallel.cross_messages(), 0u);
}

}  // namespace
}  // namespace stgsim
