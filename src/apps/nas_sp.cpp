#include "apps/nas_sp.hpp"

#include <cmath>

#include "apps/kernels.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "support/check.hpp"

namespace stgsim::apps {

namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

/// Streaming update over an array: real memory traffic for direct
/// execution without benchmark-specific physics.
void stream_kernel_body(ir::KernelCtx& ctx, const char* in, const char* out,
                        double scale) {
  stream_update(ctx.array(in), ctx.array(out),
                std::min(ctx.array_elems(in), ctx.array_elems(out)),
                static_cast<std::size_t>(ctx.iters()), scale);
}

}  // namespace

NasSpConfig sp_class(char cls, int q, std::int64_t timesteps) {
  NasSpConfig c;
  switch (cls) {
    case 'A': c.grid = 64; break;
    case 'B': c.grid = 102; break;
    case 'C': c.grid = 162; break;
    default: STGSIM_UNREACHABLE("unknown SP class");
  }
  c.q = q;
  c.timesteps = timesteps;
  return c;
}

ir::Program make_nas_sp(const NasSpConfig& config) {
  STGSIM_CHECK_GT(config.q, 0);

  ir::ProgramBuilder b("nas_sp");
  Expr P = b.get_size("P");
  Expr myid = b.get_rank("myid");

  Expr grid = b.decl_int("GRID", I(config.grid));
  Expr nt = b.decl_int("NT", I(config.timesteps));
  Expr q = b.decl_int("Q", I(config.q));

  Expr ip = b.decl_int("ip", sym::imod(myid, q));
  Expr jp = b.decl_int("jp", sym::idiv(myid, q));

  // Remainder-distributed local extents (cell sizes) — the grid sizes the
  // real SP stores in arrays and reuses in most loop bounds.
  Expr rem = b.decl_int("rem", sym::imod(grid, q));
  Expr cx = b.decl_int(
      "cx", sym::idiv(grid, q) + sym::select(sym::lt(ip, rem), I(1), I(0)));
  Expr cy = b.decl_int(
      "cy", sym::idiv(grid, q) + sym::select(sym::lt(jp, rem), I(1), I(0)));
  Expr nz = b.decl_int("nz", grid);

  // Five solution components per cell (u, rhs) plus solver coefficients.
  b.decl_array("u", {I(5) * cx * cy * nz});
  b.decl_array("rhs", {I(5) * cx * cy * nz});
  b.decl_array("lhs", {I(3) * cx * cy * nz});
  b.decl_array("xface", {I(5) * cy * nz});
  b.decl_array("yface", {I(5) * cx * nz});

  {
    ir::KernelSpec init;
    init.task = "sp_init";
    init.iters = I(5) * cx * cy * nz;
    init.flops_per_iter = 6.0;
    init.writes = {"u", "xface", "yface"};
    init.body = [](ir::KernelCtx& ctx) {
      double* u = ctx.array("u");
      const std::size_t n = ctx.array_elems("u");
      for (std::size_t i = 0; i < n; ++i) {
        u[i] = 1.0 + 0.001 * static_cast<double>(i % 13);
      }
      for (const char* f : {"xface", "yface"}) {
        double* p = ctx.array(f);
        for (std::size_t i = 0; i < ctx.array_elems(f); ++i) p[i] = 0.0;
      }
    };
    b.compute(std::move(init));
  }

  b.for_loop("step", I(1), nt, [&](Expr) {
    // ---- copy_faces: halo exchange with the four grid neighbours -------
    {
      ir::KernelSpec pack;
      pack.task = "sp_pack";
      pack.iters = I(5) * (cy + cx) * nz;
      pack.flops_per_iter = 2.0;
      pack.reads = {"u"};
      pack.writes = {"xface", "yface"};
      pack.body = [](ir::KernelCtx& ctx) {
        stream_kernel_body(ctx, "u", "xface", 0.5);
      };
      b.compute(std::move(pack));
    }
    b.if_then(sym::gt(ip, I(0)), [&] {
      b.isend("reqs", "xface", myid - 1, I(5) * cy * nz, I(0), 1);
      b.irecv("reqs", "xface", myid - 1, I(5) * cy * nz, I(0), 2);
    });
    b.if_then(sym::lt(ip, q - 1), [&] {
      b.isend("reqs", "xface", myid + 1, I(5) * cy * nz, I(0), 2);
      b.irecv("reqs", "xface", myid + 1, I(5) * cy * nz, I(0), 1);
    });
    b.if_then(sym::gt(jp, I(0)), [&] {
      b.isend("reqs", "yface", myid - q, I(5) * cx * nz, I(0), 3);
      b.irecv("reqs", "yface", myid - q, I(5) * cx * nz, I(0), 4);
    });
    b.if_then(sym::lt(jp, q - 1), [&] {
      b.isend("reqs", "yface", myid + q, I(5) * cx * nz, I(0), 4);
      b.irecv("reqs", "yface", myid + q, I(5) * cx * nz, I(0), 3);
    });
    b.waitall("reqs");

    {
      ir::KernelSpec rhs;
      rhs.task = "sp_rhs";
      rhs.iters = cx * cy * nz;
      rhs.flops_per_iter = 58.0;  // the 13-point compute_rhs stencil
      rhs.reads = {"u", "xface", "yface"};
      rhs.writes = {"rhs"};
      rhs.body = [](ir::KernelCtx& ctx) {
        stream_kernel_body(ctx, "u", "rhs", 0.3);
      };
      b.compute(std::move(rhs));
    }

    // ---- x_solve / y_solve: pipelined Thomas sweeps ---------------------
    auto line_solve = [&](const std::string& dim, const Expr& coord,
                          const Expr& extent, const Expr& stride,
                          const std::string& face, const Expr& face_count,
                          int tag_fwd, int tag_bwd) {
      // Forward elimination flows toward increasing coordinate.
      b.if_then(sym::gt(coord, I(0)), [&] {
        b.recv(face, myid - stride, face_count, I(0), tag_fwd);
      });
      {
        ir::KernelSpec fwd;
        fwd.task = "sp_" + dim + "_fwd";
        fwd.iters = cx * cy * nz;
        fwd.flops_per_iter = 38.0;
        fwd.reads = {"rhs", "u", face};
        fwd.writes = {"lhs", "rhs"};
        fwd.body = [](ir::KernelCtx& ctx) {
          stream_kernel_body(ctx, "rhs", "lhs", 0.4);
        };
        b.compute(std::move(fwd));
      }
      b.if_then(sym::lt(coord, extent - 1), [&] {
        b.send(face, myid + stride, face_count, I(0), tag_fwd);
      });

      // Back substitution flows the other way.
      b.if_then(sym::lt(coord, extent - 1), [&] {
        b.recv(face, myid + stride, face_count, I(0), tag_bwd);
      });
      {
        ir::KernelSpec bwd;
        bwd.task = "sp_" + dim + "_bwd";
        bwd.iters = cx * cy * nz;
        bwd.flops_per_iter = 17.0;
        bwd.reads = {"lhs", face};
        bwd.writes = {"rhs"};
        bwd.body = [](ir::KernelCtx& ctx) {
          stream_kernel_body(ctx, "lhs", "rhs", 0.2);
        };
        b.compute(std::move(bwd));
      }
      b.if_then(sym::gt(coord, I(0)), [&] {
        b.send(face, myid - stride, face_count, I(0), tag_bwd);
      });
    };

    line_solve("x", ip, q, I(1), "xface", I(5) * cy * nz, 5, 6);
    line_solve("y", jp, q, q, "yface", I(5) * cx * nz, 7, 8);

    // ---- z_solve: local multipartition stages with mod-distributed cell
    // sizes. The stage size is NOT affine in the stage index, so the
    // compiler must retain an executable symbolic sum (paper §3.3).
    b.for_loop("s", I(1), q, [&](Expr s) {
      ir::KernelSpec zc;
      zc.task = "sp_z_cell";
      zc.iters = cx * cy *
                 (sym::idiv(grid, q) +
                  sym::select(sym::lt(sym::imod(s - 1 + ip + jp, q), rem),
                              I(1), I(0)));
      zc.flops_per_iter = 49.0;
      zc.reads = {"rhs"};
      zc.writes = {"lhs"};
      zc.body = [](ir::KernelCtx& ctx) {
        stream_kernel_body(ctx, "rhs", "lhs", 0.35);
      };
      b.compute(std::move(zc));
    });

    {
      ir::KernelSpec add;
      add.task = "sp_add";
      add.iters = cx * cy * nz;
      add.flops_per_iter = 5.0;
      add.reads = {"rhs"};
      add.writes = {"u"};
      add.body = [](ir::KernelCtx& ctx) {
        stream_kernel_body(ctx, "rhs", "u", 0.1);
      };
      b.compute(std::move(add));
    }
  });

  // Verification residual (payload-only; eliminated by the slice).
  b.decl_real("rnorm", Expr::real(1.0));
  b.allreduce_sum("rnorm");

  return b.take();
}

std::uint64_t nas_sp_expected_sends(const NasSpConfig& config, int rank) {
  const int q = config.q;
  const int ip = rank % q;
  const int jp = rank / q;
  const std::uint64_t west = ip > 0, east = ip < q - 1;
  const std::uint64_t south = jp > 0, north = jp < q - 1;
  // copy_faces: one isend per existing neighbour; x_solve: forward send
  // east + backward send west; y_solve: forward north + backward south.
  const std::uint64_t per_step = (west + east + south + north)  // halos
                                 + (east + west)                // x solves
                                 + (north + south);             // y solves
  return per_step * static_cast<std::uint64_t>(config.timesteps);
}

std::size_t nas_sp_rank_bytes(const NasSpConfig& config) {
  const auto g = static_cast<std::size_t>(config.grid);
  const auto q = static_cast<std::size_t>(config.q);
  const std::size_t base = g / q;
  const std::size_t rem = g % q;
  const std::size_t cx = base + (0 < rem ? 1 : 0);  // rank 0 (largest)
  const std::size_t cy = cx;
  return (5 * cx * cy * g * 2 + 3 * cx * cy * g + 5 * cy * g + 5 * cx * g) *
         sizeof(double);
}

}  // namespace stgsim::apps
