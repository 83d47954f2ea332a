// Microbenchmarks (google-benchmark) for the set-up of `--partition comm`:
// harness::comm_affinity (the static walk over every rank's program) and
// simk::comm_partition (greedy growth plus Kernighan–Lin refinement), on
// sweep3d's AM program, the shape the threaded end-to-end workload runs.
// Both run before the engine starts, so their cost is part of the run's
// wall-clock but of no engine counter. Before timing, every graph and
// placement is checked against hashes pinned bit for bit (neighbour order,
// weight bits, part of every rank); any difference exits 1.
//
//   ./build/bench/micro_partition [--max-procs N] [--benchmark_filter=...]
//
// --max-procs N checks and times only the shapes with at most N ranks.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/compiler.hpp"
#include "harness/affinity.hpp"
#include "ir/plan.hpp"
#include "sim/partition.hpp"

using namespace stgsim;

namespace {

/// FNV-1a over 64-bit words, the hash Partition.CommOutputPinnedAtScale
/// pins the same outputs with.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t affinity_hash(const simk::Affinity& aff) {
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

constexpr int kWorkers[] = {2, 4, 8};

struct Pinned {
  int procs;
  std::uint64_t affinity;
  std::uint64_t part[3];  // per kWorkers
};
constexpr Pinned kPinned[] = {
    {4096, 0x3a26b360ac6bf785ull,
     {0xd8e15f0032c3a325ull, 0x59138ad62614a325ull, 0xbdf6d0fcdd72a325ull}},
    {16384, 0x33536fb6bcf34ce5ull,
     {0x9f63df183ea82325ull, 0x110e2210c7ec2325ull, 0x9b6e9192a5642325ull}},
    {65536, 0x45e2364f301abd65ull,
     {0xfc2b42036e3a2325ull, 0x9df43883734a2325ull, 0xb0bb64fae92a2325ull}},
};

/// sweep3d's AM program at `procs` ranks (registry defaults), its plan and
/// its affinity graph. The plan points into `compiled`, so a Shape never
/// moves.
struct Shape {
  explicit Shape(int procs)
      : compiled(core::compile(apps::build_app({"sweep3d", {}}, procs))),
        plan(compiled.simplified.program),
        aff(harness::comm_affinity(plan, procs)) {}
  core::CompileResult compiled;
  ir::Plan plan;
  simk::Affinity aff;
};

const Shape& shape(int procs) {
  static std::map<int, std::unique_ptr<Shape>> shapes;
  auto& s = shapes[procs];
  if (!s) s = std::make_unique<Shape>(procs);
  return *s;
}

bool check(const Pinned& pin) {
  const Shape& s = shape(pin.procs);
  bool ok = true;
  const std::uint64_t a = affinity_hash(s.aff);
  if (a != pin.affinity) {
    std::fprintf(stderr,
                 "micro_partition: sweep3d@%d affinity hash 0x%016llx, "
                 "pinned 0x%016llx\n",
                 pin.procs, static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(pin.affinity));
    ok = false;
  }
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t p =
        partition_hash(simk::comm_partition(s.aff, kWorkers[i]));
    if (p != pin.part[i]) {
      std::fprintf(stderr,
                   "micro_partition: sweep3d@%d k=%d part hash 0x%016llx, "
                   "pinned 0x%016llx\n",
                   pin.procs, kWorkers[i], static_cast<unsigned long long>(p),
                   static_cast<unsigned long long>(pin.part[i]));
      ok = false;
    }
  }
  return ok;
}

void BM_CommAffinity(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const Shape& s = shape(procs);
  for (auto _ : state) {
    simk::Affinity aff = harness::comm_affinity(s.plan, procs);
    benchmark::DoNotOptimize(aff);
  }
  state.SetItemsProcessed(state.iterations() * procs);
}

void BM_CommPartition(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  const Shape& s = shape(procs);
  for (auto _ : state) {
    std::vector<int> part = simk::comm_partition(s.aff, workers);
    benchmark::DoNotOptimize(part);
  }
  state.SetItemsProcessed(state.iterations() * procs);
}

}  // namespace

int main(int argc, char** argv) {
  int max_procs = 1 << 30;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-procs") == 0 && i + 1 < argc) {
      max_procs = std::atoi(argv[i + 1]);
      if (max_procs <= 0) {
        std::fprintf(stderr, "--max-procs: expected a positive integer\n");
        return 1;
      }
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  bool ok = true;
  for (const Pinned& pin : kPinned) {
    if (pin.procs > max_procs) continue;
    ok &= check(pin);
    benchmark::RegisterBenchmark("BM_CommAffinity", BM_CommAffinity)
        ->Arg(pin.procs)
        ->Unit(benchmark::kMillisecond);
    for (int k : kWorkers) {
      benchmark::RegisterBenchmark("BM_CommPartition", BM_CommPartition)
          ->Args({pin.procs, k})
          ->Unit(benchmark::kMillisecond);
    }
  }
  if (!ok) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
