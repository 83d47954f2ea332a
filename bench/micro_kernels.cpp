// Microbenchmarks (google-benchmark) for the app kernels' per-element
// loops (apps/kernels.hpp), which direct execution and calibration run
// natively: on sweep3d DE they are most of the host time. Each body runs
// at the shape the end-to-end benchmark gives it, next to the flattened
// `n % size` loop it replaced, so a regression names its layer and the
// cost of a division per element stays visible. Before timing, every pair
// is run once from the same inputs and must leave byte-equal arrays.
//
//   ./build/bench/micro_kernels [--benchmark_filter=Sweep]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "apps/kernels.hpp"

using namespace stgsim;

namespace {

// ---- the flattened loops the kernels replaced ------------------------------

void sweep_block_mod(const apps::SweepArrays& a, std::size_t iters) {
  for (std::size_t n = 0; n < iters; ++n) {
    const std::size_t c = n % a.cells;
    const double incoming = a.phiib[n % a.ni] + a.phijb[n % a.nj];
    double p = (a.src[c] + a.qsrc[c] + 0.5 * incoming) /
               (a.sigt[c] - 0.5 * a.sigs[c]);
    if (p < 0.0) p = 0.0;
    a.phi[c] = p;
    a.flux[c] += p;
    a.flm1[c] += 0.5 * p;
    a.flm2[c] += 0.25 * p;
    a.phiib[n % a.ni] = 0.7 * p + 0.3 * a.phiib[n % a.ni];
    a.phijb[n % a.nj] = 0.7 * p + 0.3 * a.phijb[n % a.nj];
  }
}

double sweep_fixup_fraction_branchy(const double* src, std::size_t cells) {
  std::size_t neg = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    if (src[c] < 0.0) ++neg;
  }
  return static_cast<double>(neg) / static_cast<double>(cells);
}

void stream_update_mod(const double* a, double* b, std::size_t n,
                       std::size_t iters, double scale) {
  for (std::size_t k = 0; k < iters; ++k) {
    const std::size_t c = k % n;
    b[c] = b[c] * (1.0 - scale) + a[c] * scale;
  }
}

void sample_fill_mod(double* d, std::size_t n, std::size_t steps) {
  double acc = 1.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::size_t c = i % n;
    acc = acc * 0.999 + d[c] * 0.001;
    d[c] = acc;
  }
}

// ---- shapes ----------------------------------------------------------------

/// One rank's sweep3d block at the registry defaults the end-to-end
/// sweep3d workloads run (it = jt = 6, kt = 255, kb = 51, mmi = 3).
struct SweepShape {
  static constexpr std::size_t kIt = 6, kJt = 6, kKt = 255, kKb = 51,
                               kMmi = 3;
  static constexpr std::size_t kCells = kIt * kJt * kKt;
  static constexpr std::size_t kNi = kJt * kKb * kMmi;
  static constexpr std::size_t kNj = kIt * kKb * kMmi;
  static constexpr std::size_t kIters = kIt * kJt * kKb * kMmi;

  std::vector<double> cell[8];  // src sigt sigs qsrc phi flux flm1 flm2
  std::vector<double> fi = std::vector<double>(kNi, 0.0);
  std::vector<double> fj = std::vector<double>(kNj, 0.0);

  SweepShape() {
    for (auto& v : cell) v.assign(kCells, 0.0);
    for (std::size_t i = 0; i < kCells; ++i) {  // sw_init
      cell[0][i] =
          (i % 31 == 0) ? -0.8 : 1.0 + 0.001 * static_cast<double>(i % 7);
      cell[1][i] = 1.0 + 0.01 * static_cast<double>(i % 5);
      cell[2][i] = 0.5 * cell[1][i];
      cell[3][i] = 0.25 * cell[0][i];
    }
  }

  apps::SweepArrays arrays() {
    return {cell[0].data(), cell[1].data(), cell[2].data(), cell[3].data(),
            cell[4].data(), cell[5].data(), cell[6].data(), cell[7].data(),
            fi.data(),      fj.data(),      kCells,         kNi,
            kNj};
  }
};

/// nas_sp class A at 16 ranks (q = 4: cx = cy = 16, nz = 64): sp_pack
/// streams 10,240 iterations over a 5,120-element face (two passes), and
/// sp_rhs 16,384 iterations over part of an 81,920-element array.
struct StreamShape {
  std::size_t n;
  std::size_t iters;
};
constexpr StreamShape kPack{5 * 16 * 64, 5 * (16 + 16) * 64};
constexpr StreamShape kRhs{16 * 16 * 64, 16 * 16 * 64};

/// sample's filler at its defaults: 65,536 steps (the cap) over the
/// 4,096-element working set.
constexpr std::size_t kSampleN = 4096;
constexpr std::size_t kSampleSteps = 65536;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i % 11);
  return v;
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "micro_kernels: %s differs from the flattened loop\n",
               what);
  std::exit(1);
}

/// Runs each kernel and its flattened reference from equal inputs and
/// exits unless they leave byte-equal arrays.
void check_outputs() {
  SweepShape x, y;
  for (int call = 0; call < 3; ++call) {
    apps::sweep_block(x.arrays(), SweepShape::kIters);
    sweep_block_mod(y.arrays(), SweepShape::kIters);
  }
  for (int k = 0; k < 8; ++k) {
    require(same(x.cell[k], y.cell[k]), "sweep_block");
  }
  require(same(x.fi, y.fi) && same(x.fj, y.fj), "sweep_block");
  const double* src = x.cell[0].data();
  const double f = apps::sweep_fixup_fraction(src, SweepShape::kCells);
  const double g = sweep_fixup_fraction_branchy(src, SweepShape::kCells);
  require(std::memcmp(&f, &g, sizeof f) == 0, "sweep_fixup_fraction");

  for (const StreamShape& s : {kPack, kRhs}) {
    const std::vector<double> a = ramp(s.n);
    std::vector<double> b = ramp(s.n), c = ramp(s.n);
    apps::stream_update(a.data(), b.data(), s.n, s.iters, 0.3);
    stream_update_mod(a.data(), c.data(), s.n, s.iters, 0.3);
    require(same(b, c), "stream_update");
  }

  std::vector<double> d = ramp(kSampleN), e = ramp(kSampleN);
  apps::sample_fill(d.data(), kSampleN, kSampleSteps);
  sample_fill_mod(e.data(), kSampleN, kSampleSteps);
  require(same(d, e), "sample_fill");
}

// ---- benchmarks ------------------------------------------------------------

template <void (*Kernel)(const apps::SweepArrays&, std::size_t)>
void BM_SweepBlock(benchmark::State& state) {
  SweepShape s;
  const apps::SweepArrays a = s.arrays();
  for (auto _ : state) {
    Kernel(a, SweepShape::kIters);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(SweepShape::kIters));
}
BENCHMARK(BM_SweepBlock<apps::sweep_block>)->Name("BM_SweepBlock");
BENCHMARK(BM_SweepBlock<sweep_block_mod>)->Name("BM_SweepBlockModulo");

template <double (*Fraction)(const double*, std::size_t)>
void BM_SweepFixupFraction(benchmark::State& state) {
  SweepShape s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fraction(s.cell[0].data(), SweepShape::kCells));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(SweepShape::kCells));
}
BENCHMARK(BM_SweepFixupFraction<apps::sweep_fixup_fraction>)
    ->Name("BM_SweepFixupFraction");
BENCHMARK(BM_SweepFixupFraction<sweep_fixup_fraction_branchy>)
    ->Name("BM_SweepFixupFractionBranchy");

template <void (*Kernel)(const double*, double*, std::size_t, std::size_t,
                         double)>
void BM_StreamUpdate(benchmark::State& state) {
  const StreamShape s = state.range(0) == 0 ? kPack : kRhs;
  const std::vector<double> a = ramp(s.n);
  std::vector<double> b = ramp(s.n);
  for (auto _ : state) {
    Kernel(a.data(), b.data(), s.n, s.iters, 0.3);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.iters));
}
// Arg 0 = sp_pack shape (wraps), 1 = sp_rhs shape (one partial pass).
BENCHMARK(BM_StreamUpdate<apps::stream_update>)
    ->Name("BM_StreamUpdate")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_StreamUpdate<stream_update_mod>)
    ->Name("BM_StreamUpdateModulo")
    ->Arg(0)
    ->Arg(1);

template <void (*Kernel)(double*, std::size_t, std::size_t)>
void BM_SampleFill(benchmark::State& state) {
  std::vector<double> d = ramp(kSampleN);
  for (auto _ : state) {
    Kernel(d.data(), kSampleN, kSampleSteps);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSampleSteps));
}
BENCHMARK(BM_SampleFill<apps::sample_fill>)->Name("BM_SampleFill");
BENCHMARK(BM_SampleFill<sample_fill_mod>)->Name("BM_SampleFillModulo");

}  // namespace

int main(int argc, char** argv) {
  check_outputs();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
