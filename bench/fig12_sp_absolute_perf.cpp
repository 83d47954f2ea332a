// Figure 12: absolute performance of MPI-Sim for NAS SP class A, with as
// many host processors as target processors. Paper: MPI-SIM-DE runs about
// 2x slower than the application it predicts; MPI-SIM-AM runs faster than
// the application (up to 2.5x), despite simulating communication in
// detail — and its advantage shrinks as computation per processor shrinks.
//
// Simulator wall-clocks are measured engine walls on min(#target, nproc)
// real worker threads: the paper's #host = #target holds only up to this
// host's core count. The DE-vs-application *ratio* additionally reflects
// that this host is far faster than a 1999 SP node — EXPERIMENTS.md
// discusses the comparison; the AM-vs-DE relation is host-independent.
#include "apps/nas_sp.hpp"
#include "bench/common.hpp"

using namespace stgsim;

int main() {
  const auto machine = harness::ibm_sp_machine();
  const benchx::ProgramFactory make = [](int nprocs) {
    int q = 1;
    while ((q + 1) * (q + 1) <= nprocs) ++q;
    return apps::make_nas_sp(apps::sp_class('A', q, /*timesteps=*/2));
  };
  const auto params = benchx::calibrate_at(make, 16, machine);

  print_experiment_header(
      std::cout, "Figure 12",
      "Absolute performance of MPI-Sim for NAS SP class A (#host = #target)",
      {"host: nproc = " + std::to_string(benchx::host_nproc()),
       "application time = emulated measurement of the target program",
       "simulator wall-clocks measured on min(#target, nproc) worker threads",
       "paper shape: AM faster than the application; AM gain shrinks with",
       "more processors; DE pays for executing all computation"});

  TablePrinter t({"procs", "hosts = min(#target, nproc)", "application (s)",
                  "DE wall, era-norm (s)",
                  "AM wall, era-norm (s)", "DE vs app", "AM vs app",
                  "AM speedup vs DE"});
  for (int procs : {4, 16, 36, 64}) {
    const int hosts = std::min(procs, benchx::host_nproc());
    double era = 0.0;
    const auto p =
        benchx::threaded_point(make, procs, hosts, machine, params, &era);
    const double app = p.measured->predicted_seconds();
    const double de_wall = p.de->sim_host_seconds * era;
    const double am_wall = p.am->sim_host_seconds * era;
    t.add_row({TablePrinter::fmt_int(procs), TablePrinter::fmt_int(hosts),
               TablePrinter::fmt(app, 3),
               TablePrinter::fmt(de_wall, 3), TablePrinter::fmt(am_wall, 3),
               TablePrinter::fmt(de_wall / app, 2) + "x",
               TablePrinter::fmt(app / am_wall, 2) + "x faster",
               TablePrinter::fmt(de_wall / am_wall, 1) + "x"});
  }
  std::cout << t.to_ascii();
  std::cout << "era-norm: simulator wall-clocks scaled to target-era host "
               "nodes (see bench/common.hpp)\n";
  return 0;
}
