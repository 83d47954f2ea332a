// Figure 15: self-relative speedup of MPI-SIM-AM for Sweep3D 150^3 with
// 64 target processors, as host processors grow. Paper: steep up to ~8
// hosts, then flattening, reaching about 15 at 64 hosts (the application's
// computation:communication ratio limits the simulator's own parallelism).
//
// Every row is a measured engine wall-clock on k real worker threads, for
// k = 1, 2, 4, ... up to this host's nproc; rows past nproc wait for a
// larger host.
#include "apps/sweep3d.hpp"
#include "bench/common.hpp"

using namespace stgsim;

namespace {

apps::Sweep3DConfig config_150(int nprocs) {
  apps::Sweep3DConfig cfg;
  apps::sweep3d_grid_for(nprocs, &cfg.npe_i, &cfg.npe_j);
  cfg.it = (150 + cfg.npe_i - 1) / cfg.npe_i;
  cfg.jt = (150 + cfg.npe_j - 1) / cfg.npe_j;
  cfg.kt = 150;
  cfg.kb = 30;
  cfg.mm = 6;
  cfg.mmi = 3;
  return cfg;
}

}  // namespace

int main() {
  const auto machine = harness::ibm_sp_machine();
  const benchx::ProgramFactory make = [](int nprocs) {
    return apps::make_sweep3d(config_150(nprocs));
  };
  const auto params = benchx::calibrate_at(make, 16, machine);

  print_experiment_header(
      std::cout, "Figure 15",
      "Speedup of MPI-SIM-AM (Sweep3D 150^3, 64 target processors)",
      {"host: nproc = " + std::to_string(benchx::host_nproc()),
       "walls measured on k worker threads, k <= nproc",
       "speedup relative to the 1-host-processor simulation",
       "paper shape: near-linear to ~8 hosts, then flattens (~15 at 64)"});

  TablePrinter t({"host procs", "MPI-SIM-AM wall (s)", "speedup"});
  double base = 0.0;
  for (int hosts : benchx::host_counts(64)) {
    benchx::PointOptions opts;
    opts.run_measured = false;
    opts.run_de = false;
    opts.threads = hosts;
    const auto p = benchx::validate_point(make, 64, machine, params, opts);
    const double wall = p.am->sim_host_seconds;
    if (hosts == 1) base = wall;
    t.add_row({TablePrinter::fmt_int(hosts), TablePrinter::fmt(wall, 4),
               TablePrinter::fmt(base / wall, 2)});
  }
  std::cout << t.to_ascii();
  return 0;
}
