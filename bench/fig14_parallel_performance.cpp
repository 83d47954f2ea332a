// Figure 14: parallel performance of MPI-Sim — Sweep3D 150^3 on 64 target
// processors, with host processors varied from 1 to 64. Paper: both
// simulator versions scale well; MPI-SIM-AM is on average 5.4x faster
// than MPI-SIM-DE.
//
// Every row is a measured engine wall-clock on k real worker threads
// (RunConfig::threads = k), for k = 1, 2, 4, ... up to this host's nproc;
// rows past nproc wait for a larger host.
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
  const int targets = 64;
  const benchx::ProgramFactory make = [](int nprocs) {
    return apps::make_sweep3d(config_150(nprocs));
  };
  const auto params = benchx::calibrate_at(make, 16, machine);

  benchx::PointOptions measured_only;
  measured_only.run_de = false;
  measured_only.run_am = false;
  const auto app =
      benchx::validate_point(make, targets, machine, params, measured_only);

  print_experiment_header(
      std::cout, "Figure 14",
      "Parallel performance: Sweep3D 150^3, 64 targets, 1-64 host procs",
      {"host: nproc = " + std::to_string(benchx::host_nproc()),
       "walls measured on k worker threads, k <= nproc",
       "application (measured target time): " +
           TablePrinter::fmt(app.measured->predicted_seconds(), 3) + " s",
       "paper shape: both simulators scale; AM ~5.4x faster than DE on",
       "average; AM speedup flattens past ~8 hosts (communication-bound)"});

  TablePrinter t({"host procs", "MPI-SIM-DE wall (s)", "MPI-SIM-AM wall (s)",
                  "AM speedup vs DE"});
  for (int hosts : benchx::host_counts(64)) {
    benchx::PointOptions opts;
    opts.run_measured = false;
    opts.threads = hosts;
    const auto run =
        benchx::validate_point(make, targets, machine, params, opts);
    const double de_wall = run.de->sim_host_seconds;
    const double am_wall = run.am->sim_host_seconds;
    t.add_row({TablePrinter::fmt_int(hosts), TablePrinter::fmt(de_wall, 3),
               TablePrinter::fmt(am_wall, 4),
               TablePrinter::fmt(de_wall / am_wall, 1) + "x"});
  }
  std::cout << t.to_ascii();
  return 0;
}
