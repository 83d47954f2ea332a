// Figure 13: absolute performance of MPI-Sim for Tomcatv (#host =
// #target). Paper: the MPI-SIM-AM runtime stays essentially flat (< 2s)
// across processor counts while the application takes 13-100s — the
// optimized simulator's cost tracks the communication structure, not the
// computation.
//
// Simulator wall-clocks are measured engine walls on min(#target, nproc)
// real worker threads, scaled to target-era host nodes (bench/common.hpp).
#include "apps/tomcatv.hpp"
#include "bench/common.hpp"

using namespace stgsim;

int main() {
  const auto machine = harness::ibm_sp_machine();
  apps::TomcatvConfig cfg;
  cfg.n = 1024;
  cfg.iterations = 4;
  const benchx::ProgramFactory make = [&](int) {
    return apps::make_tomcatv(cfg);
  };
  const auto params = benchx::calibrate_at(make, 16, machine);

  print_experiment_header(
      std::cout, "Figure 13",
      "Absolute performance of MPI-Sim for Tomcatv (#host = #target)",
      {"host: nproc = " + std::to_string(benchx::host_nproc()),
       "simulator wall-clocks measured on min(#target, nproc) worker threads",
       "paper shape: AM wall-clock roughly constant and far below the",
       "application's runtime at every processor count"});

  TablePrinter t({"procs", "hosts = min(#target, nproc)", "application (s)",
                  "DE wall, era-norm (s)",
                  "AM wall, era-norm (s)", "AM vs app", "AM speedup vs DE"});
  for (int procs : {4, 8, 16, 32, 64}) {
    const int hosts = std::min(procs, benchx::host_nproc());
    double era = 0.0;
    const auto p =
        benchx::threaded_point(make, procs, hosts, machine, params, &era);
    const double app = p.measured->predicted_seconds();
    const double de_wall = p.de->sim_host_seconds * era;
    const double am_wall = p.am->sim_host_seconds * era;
    t.add_row({TablePrinter::fmt_int(procs), TablePrinter::fmt_int(hosts),
               TablePrinter::fmt(app, 3),
               TablePrinter::fmt(de_wall, 4), TablePrinter::fmt(am_wall, 4),
               TablePrinter::fmt(app / am_wall, 1) + "x faster",
               TablePrinter::fmt(de_wall / am_wall, 1) + "x"});
  }
  std::cout << t.to_ascii();
  std::cout << "era-norm: simulator wall-clocks scaled to target-era host "
               "nodes (see bench/common.hpp)\n";
  return 0;
}
