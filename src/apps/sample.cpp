#include "apps/sample.hpp"

#include <algorithm>

#include "apps/kernels.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "support/check.hpp"

namespace stgsim::apps {

namespace {

using sym::Expr;

Expr I(std::int64_t v) { return Expr::integer(v); }

ir::KernelSpec work_kernel(const SampleConfig& config) {
  ir::KernelSpec k;
  k.task = "sample_work";
  k.iters = Expr::var("WORK");
  k.flops_per_iter = config.flops_per_iter;
  k.reads = {"data"};
  k.writes = {"data"};
  k.body = [](ir::KernelCtx& ctx) {
    // SAMPLE's computation is pure filler: its results feed nothing. The
    // body touches the working set (capped — the modeled cost comes from
    // the iteration count, not from host work) so direct execution still
    // has real array traffic.
    sample_fill(ctx.array("data"), ctx.array_elems("data"),
                std::min(static_cast<std::size_t>(ctx.iters()),
                         std::size_t{65536}));
  };
  return k;
}

}  // namespace

const char* sample_pattern_name(SamplePattern p) {
  switch (p) {
    case SamplePattern::kWavefront: return "wavefront";
    case SamplePattern::kNearestNeighbor: return "nearest-neighbor";
    case SamplePattern::kAnySource: return "anysource";
  }
  return "?";
}

ir::Program make_sample(const SampleConfig& config) {
  ir::ProgramBuilder b(std::string("sample_") +
                       sample_pattern_name(config.pattern));
  Expr P = b.get_size("P");
  Expr myid = b.get_rank("myid");
  Expr niter = b.decl_int("NITER", I(config.iterations));
  Expr msg = b.decl_int("MSG", I(config.msg_doubles));
  b.decl_int("WORK", I(config.work_iters));

  b.decl_array("buf", {msg * 2});
  b.decl_array("data", {sym::max(msg, I(4096))});

  {
    ir::KernelSpec init;
    init.task = "sample_init";
    init.iters = sym::max(msg, I(4096));
    init.flops_per_iter = 1.0;
    init.writes = {"data", "buf"};
    init.body = [](ir::KernelCtx& ctx) {
      for (const char* a : {"data", "buf"}) {
        double* p = ctx.array(a);
        for (std::size_t i = 0; i < ctx.array_elems(a); ++i) {
          p[i] = static_cast<double>(i % 11);
        }
      }
    };
    b.compute(std::move(init));
  }

  b.for_loop("iter", I(1), niter, [&](Expr) {
    switch (config.pattern) {
      case SamplePattern::kWavefront:
        // Pipeline: consume from the left, work, feed the right.
        b.if_then(sym::gt(myid, I(0)),
                  [&] { b.recv("buf", myid - 1, msg, I(0), 1); });
        b.compute(work_kernel(config));
        b.if_then(sym::lt(myid, P - 1),
                  [&] { b.send("buf", myid + 1, msg, I(0), 1); });
        break;
      case SamplePattern::kNearestNeighbor:
        // Bidirectional exchange with both ring neighbours.
        b.if_then(sym::gt(myid, I(0)), [&] {
          b.isend("reqs", "buf", myid - 1, msg, I(0), 1);
          b.irecv("reqs", "buf", myid - 1, msg, I(0), 2);
        });
        b.if_then(sym::lt(myid, P - 1), [&] {
          b.isend("reqs", "buf", myid + 1, msg, I(0), 2);
          b.irecv("reqs", "buf", myid + 1, msg, msg, 1);
        });
        b.waitall("reqs");
        b.compute(work_kernel(config));
        break;
      case SamplePattern::kAnySource:
        // Many-to-one gather with ANY_SOURCE matching: every non-root
        // rank computes a *different* amount of work (more for lower
        // ids) before sending to rank 0, so message readiness order is
        // rank-dependent and the root's wildcard receives are genuine
        // races for the scheduler to resolve.
        b.if_then(sym::gt(myid, I(0)), [&] {
          ir::KernelSpec k = work_kernel(config);
          k.iters = Expr::var("WORK") * (P - myid);
          b.compute(std::move(k));
          b.send("buf", I(0), msg, I(0), 7);
        });
        b.if_then(sym::eq(myid, I(0)), [&] {
          b.for_loop("k", I(1), P - 1,
                     [&](Expr) { b.recv("buf", I(-1), msg, I(0), 7); });
        });
        break;
    }
  });

  return b.take();
}

std::int64_t sample_work_for_ratio(const net::NetworkParams& net,
                                   const machine::ComputeParams& compute,
                                   std::int64_t msg_doubles,
                                   double comp_per_comm,
                                   double flops_per_iter) {
  STGSIM_CHECK_GT(comp_per_comm, 0.0);
  const double msg_sec =
      vtime_to_sec(net.latency + net.send_overhead + net.recv_overhead) +
      static_cast<double>(msg_doubles) * sizeof(double) / net.bytes_per_sec;
  const double iter_sec =
      machine::seconds_per_iteration(compute, flops_per_iter, 0.0);
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(comp_per_comm * msg_sec / iter_sec));
}

}  // namespace stgsim::apps
