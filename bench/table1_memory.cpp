// Table 1: total memory used by MPI-SIM-DE vs MPI-SIM-AM for each
// benchmark, and the reduction factor. Paper: factors from ~5 (SP) to
// ~2000 (Tomcatv, Sweep3D per-processor sizes) — two to three orders of
// magnitude for the array-dominated codes.
//
// A second table reports the optimistic scheduler's peak consumption-log
// bytes for the same AM-mode runs across checkpoint intervals {1, 4, 64,
// off}: with checkpoints on, GVT prunes log entries behind the newest
// committed checkpoint, so peak log memory shrinks with the interval;
// "off" retains the full history (the pre-checkpoint behaviour).
#include "apps/nas_sp.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "bench/common.hpp"

using namespace stgsim;

namespace {

struct Row {
  std::string label;
  benchx::ProgramFactory make;
  int procs;
};

/// Peak consumption-log bytes of one AM-mode run under the sequential
/// optimistic scheduler at the given checkpoint interval (0 = off).
std::uint64_t optimistic_log_peak(const benchx::ProgramFactory& make,
                                  int procs,
                                  const harness::MachineSpec& machine,
                                  const std::map<std::string, double>& params,
                                  std::uint64_t checkpoint_interval) {
  ir::Program prog = make(procs);
  core::CompileResult compiled = core::compile(prog);
  harness::RunConfig cfg;
  cfg.nprocs = procs;
  cfg.machine = machine;
  cfg.mode = harness::Mode::kAnalytical;
  cfg.params = params;
  cfg.schedule = harness::Schedule::kOptimistic;
  cfg.checkpoint_interval = checkpoint_interval;
  harness::RunOutcome out = harness::run_program(compiled.simplified.program, cfg);
  STGSIM_CHECK(out.ok()) << harness::run_status_name(out.status) << " "
                         << out.diagnostic;
  return out.parallel.log_bytes_peak;
}

}  // namespace

int main() {
  const auto machine = harness::ibm_sp_machine();

  apps::Sweep3DConfig sw_small;  // 4x4x255 per processor
  sw_small.it = 4;
  sw_small.jt = 4;
  sw_small.kt = 255;
  sw_small.kb = 17;
  sw_small.mm = 6;
  sw_small.mmi = 3;

  apps::Sweep3DConfig sw_large;  // 6x6x1000 per processor
  sw_large.it = 6;
  sw_large.jt = 6;
  sw_large.kt = 1000;
  sw_large.kb = 125;
  sw_large.mm = 6;
  sw_large.mmi = 3;

  apps::TomcatvConfig tc;
  tc.n = 1024;
  tc.iterations = 2;

  std::vector<Row> rows;
  rows.push_back({"Sweep3D 4x4x255/proc, 100 procs",
                  [&](int nprocs) {
                    auto cfg = sw_small;
                    apps::sweep3d_grid_for(nprocs, &cfg.npe_i, &cfg.npe_j);
                    return apps::make_sweep3d(cfg);
                  },
                  100});
  rows.push_back({"Sweep3D 6x6x1000/proc, 64 procs",
                  [&](int nprocs) {
                    auto cfg = sw_large;
                    apps::sweep3d_grid_for(nprocs, &cfg.npe_i, &cfg.npe_j);
                    return apps::make_sweep3d(cfg);
                  },
                  64});
  rows.push_back({"SP, class A, 16 procs",
                  [](int) { return apps::make_nas_sp(apps::sp_class('A', 4, 1)); },
                  16});
  rows.push_back({"SP, class C, 16 procs",
                  [](int) { return apps::make_nas_sp(apps::sp_class('C', 4, 1)); },
                  16});
  rows.push_back({"Tomcatv 1024^2, 16 procs",
                  [&](int) { return apps::make_tomcatv(tc); },
                  16});

  print_experiment_header(
      std::cout, "Table 1",
      "Total simulator memory: MPI-SIM-DE vs MPI-SIM-AM",
      {"peak bytes of simulated-program data across all target processes",
       "paper shape: reductions of 1-3 orders of magnitude for the",
       "array-dominated codes; smaller for SP"});

  TablePrinter t({"benchmark", "procs", "MPI-SIM-DE", "MPI-SIM-AM",
                  "reduction factor"});
  TablePrinter lt({"benchmark", "procs", "log peak cp=1", "cp=4", "cp=64",
                   "cp=off"});
  for (const auto& row : rows) {
    const auto params = benchx::calibrate_at(row.make, row.procs, machine);
    benchx::PointOptions opts;
    opts.run_measured = false;
    auto point =
        benchx::validate_point(row.make, row.procs, machine, params, opts);
    const double factor =
        static_cast<double>(point.de->peak_target_bytes) /
        static_cast<double>(std::max<std::size_t>(1, point.am->peak_target_bytes));
    t.add_row({row.label, TablePrinter::fmt_int(row.procs),
               TablePrinter::fmt_bytes(point.de->peak_target_bytes),
               TablePrinter::fmt_bytes(point.am->peak_target_bytes),
               TablePrinter::fmt(factor, 0)});

    std::vector<std::string> cells = {row.label,
                                      TablePrinter::fmt_int(row.procs)};
    for (std::uint64_t interval : {std::uint64_t{1}, std::uint64_t{4},
                                   std::uint64_t{64}, std::uint64_t{0}}) {
      cells.push_back(TablePrinter::fmt_bytes(optimistic_log_peak(
          row.make, row.procs, machine, params, interval)));
    }
    lt.add_row(cells);
  }
  std::cout << t.to_ascii();

  std::cout << "\nOptimistic consumption-log peak vs checkpoint interval "
               "(AM mode, sequential Time Warp; cp=off never prunes)\n";
  std::cout << lt.to_ascii();
  return 0;
}
