// Per-element loops of the app kernels, over raw arrays.
//
// Direct execution runs these natively, so on a DE workload they are most
// of the host time. Each is written as contiguous segments between the
// points where an index wraps (no division by a runtime size per element),
// and each element sees the same floating-point operations in the same
// order as the flattened `n % size` loop it replaces, so array contents,
// payloads and calibrated task weights are bit-identical. The app bodies
// (sweep3d.cpp, nas_sp.cpp, sample.cpp) bind these to their declared
// arrays; bench/micro_kernels.cpp times them alone.
#pragma once

#include <cstddef>

namespace stgsim::apps {

/// The arrays of one Sweep3D block: cell-centered state (`cells` each)
/// and the two pipeline faces (`ni` and `nj` elements).
struct SweepArrays {
  const double* src;
  const double* sigt;
  const double* sigs;
  const double* qsrc;
  double* phi;
  double* flux;
  double* flm1;
  double* flm2;
  double* phiib;
  double* phijb;
  std::size_t cells;
  std::size_t ni;
  std::size_t nj;
};

/// `iters` sweep iterations: iteration n updates cell n mod cells and
/// faces n mod ni and n mod nj.
void sweep_block(const SweepArrays& a, std::size_t iters);

/// Share of the `cells` entries of `src` below zero (the cells whose flux
/// takes the fixup).
double sweep_fixup_fraction(const double* src, std::size_t cells);

/// `iters` streaming updates b[k mod n] = b*(1-scale) + a*scale; `a` and
/// `b` are distinct arrays of at least `n` elements.
void stream_update(const double* a, double* b, std::size_t n,
                   std::size_t iters, double scale);

/// SAMPLE's filler: `steps` running-average writes over d[i mod n].
void sample_fill(double* d, std::size_t n, std::size_t steps);

}  // namespace stgsim::apps
