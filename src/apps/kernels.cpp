#include "apps/kernels.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace stgsim::apps {

namespace {

/// `len` sweep iterations over which no index wraps: iteration k updates
/// cell k and faces k. Within such a run every element is touched once,
/// so the arrays may be declared unaliased.
void sweep_run(const double* __restrict src, const double* __restrict sigt,
               const double* __restrict sigs, const double* __restrict qsrc,
               double* __restrict phi, double* __restrict flux,
               double* __restrict f1, double* __restrict f2,
               double* __restrict fi, double* __restrict fj,
               std::size_t len) {
  for (std::size_t k = 0; k < len; ++k) {
    const double incoming = fi[k] + fj[k];
    double p =
        (src[k] + qsrc[k] + 0.5 * incoming) / (sigt[k] - 0.5 * sigs[k]);
    // Fixup: clamp and rebalance (the extra-work branch).
    p = p < 0.0 ? 0.0 : p;
    phi[k] = p;
    flux[k] += p;
    f1[k] += 0.5 * p;
    f2[k] += 0.25 * p;
    fi[k] = 0.7 * p + 0.3 * fi[k];
    fj[k] = 0.7 * p + 0.3 * fj[k];
  }
}

}  // namespace

void sweep_block(const SweepArrays& a, std::size_t iters) {
  if (iters == 0) return;
  STGSIM_CHECK(a.cells > 0 && a.ni > 0 && a.nj > 0);
  std::size_t c = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  for (std::size_t n = 0; n < iters;) {
    const std::size_t len =
        std::min({iters - n, a.cells - c, a.ni - i, a.nj - j});
    sweep_run(a.src + c, a.sigt + c, a.sigs + c, a.qsrc + c, a.phi + c,
              a.flux + c, a.flm1 + c, a.flm2 + c, a.phiib + i, a.phijb + j,
              len);
    n += len;
    c += len;
    i += len;
    j += len;
    if (c == a.cells) c = 0;
    if (i == a.ni) i = 0;
    if (j == a.nj) j = 0;
  }
}

double sweep_fixup_fraction(const double* src, std::size_t cells) {
  std::size_t neg = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    neg += static_cast<std::size_t>(src[c] < 0.0);
  }
  return static_cast<double>(neg) / static_cast<double>(cells);
}

void stream_update(const double* __restrict a, double* __restrict b,
                   std::size_t n, std::size_t iters, double scale) {
  if (iters == 0) return;
  STGSIM_CHECK_GT(n, 0u);
  // Full passes over [0, n), then the tail.
  for (std::size_t done = 0; done < iters; done += n) {
    const std::size_t len = std::min(n, iters - done);
    for (std::size_t c = 0; c < len; ++c) {
      b[c] = b[c] * (1.0 - scale) + a[c] * scale;
    }
  }
}

void sample_fill(double* d, std::size_t n, std::size_t steps) {
  if (steps == 0) return;
  STGSIM_CHECK_GT(n, 0u);
  double acc = 1.0;
  for (std::size_t done = 0; done < steps; done += n) {
    const std::size_t len = std::min(n, steps - done);
    for (std::size_t c = 0; c < len; ++c) {
      acc = acc * 0.999 + d[c] * 0.001;
      d[c] = acc;
    }
  }
}

}  // namespace stgsim::apps
