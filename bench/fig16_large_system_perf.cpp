// Figure 16: simulator runtime when predicting large systems — Sweep3D
// with the 6x6x1000-per-processor size on 64 host processors, target
// count growing (weak scaling). Paper: the optimized simulator's runtime
// is up to ~2x below the original's at the largest sizes.
//
// Every row is a measured engine wall-clock on k real worker threads, for
// k = 1, 2, 4, ... up to this host's nproc; the paper's 64 hosts wait for
// a larger host.
#include "apps/sweep3d.hpp"
#include "bench/common.hpp"

using namespace stgsim;

namespace {

apps::Sweep3DConfig config_for(int nprocs) {
  apps::Sweep3DConfig cfg;
  cfg.it = 6;
  cfg.jt = 6;
  cfg.kt = 1000;
  cfg.kb = 250;
  cfg.mm = 6;
  cfg.mmi = 6;
  apps::sweep3d_grid_for(nprocs, &cfg.npe_i, &cfg.npe_j);
  return cfg;
}

}  // namespace

int main() {
  const auto machine = harness::ibm_sp_machine();
  const benchx::ProgramFactory make = [](int nprocs) {
    return apps::make_sweep3d(config_for(nprocs));
  };
  const auto params = benchx::calibrate_at(make, 16, machine);

  print_experiment_header(
      std::cout, "Figure 16",
      "Simulator runtime vs target count: Sweep3D 6x6x1000/proc, <= 64 hosts",
      {"host: nproc = " + std::to_string(benchx::host_nproc()),
       "walls measured on k worker threads, k <= nproc",
       "weak scaling: total problem grows with the target count",
       "paper shape: AM runtime falls increasingly below DE as the system",
       "grows (the abstracted computation dominates DE's cost)"});

  TablePrinter t({"target procs", "total cells", "host procs",
                  "MPI-SIM-DE wall (s)", "MPI-SIM-AM wall (s)",
                  "AM speedup vs DE"});
  for (int procs : {64, 256, 576}) {
    for (int hosts : benchx::host_counts(64)) {
      benchx::PointOptions opts;
      opts.run_measured = false;
      opts.threads = hosts;
      const auto p = benchx::validate_point(make, procs, machine, params, opts);
      const double de_wall = p.de->sim_host_seconds;
      const double am_wall = p.am->sim_host_seconds;
      t.add_row({TablePrinter::fmt_int(procs),
                 TablePrinter::fmt_int(procs * 36000LL),
                 TablePrinter::fmt_int(hosts), TablePrinter::fmt(de_wall, 3),
                 TablePrinter::fmt(am_wall, 4),
                 TablePrinter::fmt(de_wall / am_wall, 1) + "x"});
    }
  }
  std::cout << t.to_ascii();
  return 0;
}
