#include "apps/sweep3d.hpp"

#include <cmath>

#include "apps/kernels.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "support/check.hpp"

namespace stgsim::apps {

namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

}  // namespace

void sweep3d_grid_for(int nprocs, int* npe_i, int* npe_j) {
  int best = 1;
  for (int f = 1; f * f <= nprocs; ++f) {
    if (nprocs % f == 0) best = f;
  }
  *npe_i = best;
  *npe_j = nprocs / best;
}

ir::Program make_sweep3d(const Sweep3DConfig& config) {
  STGSIM_CHECK_EQ(config.kt % config.kb, 0) << "kb must divide kt";
  STGSIM_CHECK_EQ(config.mm % config.mmi, 0) << "mmi must divide mm";

  ir::ProgramBuilder b("sweep3d");
  Expr P = b.get_size("P");
  Expr myid = b.get_rank("myid");

  Expr it = b.decl_int("IT", I(config.it));
  Expr jt = b.decl_int("JT", I(config.jt));
  Expr kt = b.decl_int("KT", I(config.kt));
  Expr kb = b.decl_int("KB", I(config.kb));
  Expr mmi = b.decl_int("MMI", I(config.mmi));
  Expr nkb = b.decl_int("NKB", I(config.kt / config.kb));
  Expr nmb = b.decl_int("NMB", I(config.mm / config.mmi));
  Expr npei = b.decl_int("NPEI", I(config.npe_i));
  Expr npej = b.decl_int("NPEJ", I(config.npe_j));
  Expr nts = b.decl_int("NTS", I(config.timesteps));

  Expr ip = b.decl_int("ip", sym::imod(myid, npei));
  Expr jp = b.decl_int("jp", sym::idiv(myid, npei));

  // Cell-centered state (the real code's source, cross sections, angular
  // and scalar flux plus two flux moments) and the pipeline face buffers.
  for (const char* a :
       {"src", "sigt", "sigs", "qsrc", "phi", "flux", "flm1", "flm2"}) {
    b.decl_array(a, {it * jt * kt});
  }
  b.decl_array("phiib", {jt * kb * mmi});  // i-direction face
  b.decl_array("phijb", {it * kb * mmi});  // j-direction face

  {
    ir::KernelSpec init;
    init.task = "sw_init";
    init.iters = it * jt * kt;
    init.flops_per_iter = 5.0;
    init.writes = {"src", "sigt", "sigs", "qsrc", "phiib", "phijb"};
    init.body = [](ir::KernelCtx& ctx) {
      double* src = ctx.array("src");
      double* sigt = ctx.array("sigt");
      double* sigs = ctx.array("sigs");
      double* qsrc = ctx.array("qsrc");
      const std::size_t elems = ctx.array_elems("src");
      for (std::size_t i = 0; i < elems; ++i) {
        // A small fraction of strongly absorbing cells creates the
        // data-dependent negative-flux population the fixup branch sees.
        src[i] = (i % 31 == 0) ? -0.8 : 1.0 + 0.001 * static_cast<double>(i % 7);
        sigt[i] = 1.0 + 0.01 * static_cast<double>(i % 5);
        sigs[i] = 0.5 * sigt[i];
        qsrc[i] = 0.25 * src[i];
      }
      double* fi = ctx.array("phiib");
      for (std::size_t i = 0; i < ctx.array_elems("phiib"); ++i) fi[i] = 0.0;
      double* fj = ctx.array("phijb");
      for (std::size_t i = 0; i < ctx.array_elems("phijb"); ++i) fj[i] = 0.0;
    };
    b.compute(std::move(init));
  }

  Expr idir = b.decl_int("idir", I(1));
  Expr jdir = b.decl_int("jdir", I(1));

  b.for_loop("ts", I(1), nts, [&](Expr) {
    b.for_loop("iq", I(1), I(8), [&](Expr iq) {
      b.assign("idir", sym::select(sym::eq(sym::imod(iq, I(2)), I(1)), I(1),
                                   I(-1)));
      b.assign("jdir", sym::select(
                           sym::eq(sym::imod(sym::idiv(iq - 1, I(2)), I(2)),
                                   I(0)),
                           I(1), I(-1)));

      b.for_loop("kblk", I(1), nkb, [&](Expr) {
        b.for_loop("mblk", I(1), nmb, [&](Expr) {
          // Receive upwind faces (wavefront pipelining).
          b.if_then(sym::logical_or(
                        sym::logical_and(sym::eq(idir, I(1)), sym::gt(ip, I(0))),
                        sym::logical_and(sym::eq(idir, I(-1)),
                                         sym::lt(ip, npei - 1))),
                    [&] {
                      b.recv("phiib", myid - idir, jt * kb * mmi, I(0), 1);
                    });
          b.if_then(sym::logical_or(
                        sym::logical_and(sym::eq(jdir, I(1)), sym::gt(jp, I(0))),
                        sym::logical_and(sym::eq(jdir, I(-1)),
                                         sym::lt(jp, npej - 1))),
                    [&] {
                      b.recv("phijb", myid - jdir * npei, it * kb * mmi, I(0),
                             2);
                    });

          {
            ir::KernelSpec sweep;
            sweep.task = "sw_sweep";
            sweep.iters = it * jt * kb * mmi;
            sweep.flops_per_iter = 28.0;
            // The flux fixup: extra work on iterations whose flux goes
            // negative; direct execution observes the true fraction.
            sweep.extra_flops_per_iter = 14.0;
            sweep.reads = {"src", "sigt", "sigs", "qsrc"};
            sweep.writes = {"phi", "flux", "flm1", "flm2", "phiib", "phijb"};
            sweep.body = [](ir::KernelCtx& ctx) {
              SweepArrays a;
              a.src = ctx.array("src");
              a.sigt = ctx.array("sigt");
              a.sigs = ctx.array("sigs");
              a.qsrc = ctx.array("qsrc");
              a.phi = ctx.array("phi");
              a.flux = ctx.array("flux");
              a.flm1 = ctx.array("flm1");
              a.flm2 = ctx.array("flm2");
              a.phiib = ctx.array("phiib");
              a.phijb = ctx.array("phijb");
              a.cells = ctx.array_elems("phi");
              a.ni = ctx.array_elems("phiib");
              a.nj = ctx.array_elems("phijb");
              sweep_block(a, static_cast<std::size_t>(ctx.iters()));
            };
            sweep.branch_fraction = [](ir::KernelCtx& ctx) {
              // Fraction of cells whose flux required the fixup in this
              // block — recomputed from the data, as a direct-execution
              // simulator would observe it.
              return sweep_fixup_fraction(ctx.array("src"),
                                          ctx.array_elems("phi"));
            };
            b.compute(std::move(sweep));
          }

          // Send downwind faces.
          b.if_then(
              sym::logical_or(
                  sym::logical_and(sym::eq(idir, I(1)), sym::lt(ip, npei - 1)),
                  sym::logical_and(sym::eq(idir, I(-1)), sym::gt(ip, I(0)))),
              [&] { b.send("phiib", myid + idir, jt * kb * mmi, I(0), 1); });
          b.if_then(
              sym::logical_or(
                  sym::logical_and(sym::eq(jdir, I(1)), sym::lt(jp, npej - 1)),
                  sym::logical_and(sym::eq(jdir, I(-1)), sym::gt(jp, I(0)))),
              [&] { b.send("phijb", myid + jdir * npei, it * kb * mmi, I(0), 2); });
        });
      });
    });

    // End-of-timestep global balance check (tiny, but real communication).
    b.decl_real("balance", Expr::real(1.0));
    b.allreduce_sum("balance");
  });

  return b.take();
}

std::uint64_t sweep3d_expected_sends(const Sweep3DConfig& config, int ip,
                                     int jp) {
  const std::int64_t stages =
      config.timesteps * (config.kt / config.kb) * (config.mm / config.mmi);
  std::uint64_t sends = 0;
  for (int iq = 1; iq <= 8; ++iq) {
    const int idir = (iq % 2 == 1) ? 1 : -1;
    const int jdir = (((iq - 1) / 2) % 2 == 0) ? 1 : -1;
    const bool send_i = (idir == 1) ? (ip < config.npe_i - 1) : (ip > 0);
    const bool send_j = (jdir == 1) ? (jp < config.npe_j - 1) : (jp > 0);
    sends += static_cast<std::uint64_t>(stages) *
             (static_cast<std::uint64_t>(send_i) +
              static_cast<std::uint64_t>(send_j));
  }
  return sends;
}

std::size_t sweep3d_rank_bytes(const Sweep3DConfig& config) {
  const auto cells =
      static_cast<std::size_t>(config.it * config.jt * config.kt);
  const auto iface = static_cast<std::size_t>(config.jt * config.kb * config.mmi);
  const auto jface = static_cast<std::size_t>(config.it * config.kb * config.mmi);
  return (8 * cells + iface + jface) * sizeof(double);
}

}  // namespace stgsim::apps
