// Engine-scalability smoke benchmark (not a paper figure): AM-mode runs of
// the SAMPLE kernel and Sweep3D at growing target-process counts, reporting
// raw simulator throughput — scheduling events per second, message matches
// per second — plus peak RSS. This is the regression guard for the PDES
// hot paths (indexed-heap scheduler, flat per-source inboxes, pooled
// message memory, compiled scaling expressions): CI runs it in Release
// mode and archives the JSON it writes.
//
// Usage: perf_engine_scale [--max-procs N] [--out FILE] [--obs] [--threaded]
//                          [--schedule conservative|optimistic|both]
//   --max-procs N   skip sweep points above N target processes
//                   (default 16384; CI uses a smaller bound)
//   --out FILE      JSON output path (default BENCH_engine_scale.json, or
//                   BENCH_threaded_scale.json with --threaded)
//   --obs           attach a metrics-only obs::Recorder to every run, to
//                   measure the enabled-observer overhead against a plain
//                   run of the same sweep (budget: <5% events/sec)
//   --threaded      run the threaded-scheduler sweep instead: workers in
//                   {1,2,4,8} x ranks x all four apps (plus sweep3d_kb5,
//                   the CLI's Sweep3D shape at --kb 5: many small
//                   slices) under the comm-aware
//                   partition, with the workers=1 rows (one worker,
//                   inline, no pool) as the baseline. The JSON records host_cores —
//                   events/sec ratios are only meaningful against it
//                   (workers > cores measures protocol overhead, not
//                   speedup). Each row reports wall_sec (the engine
//                   loop, sim_host_seconds) and run_sec (the whole
//                   harness::run_program call), so run_sec - wall_sec is
//                   the set-up before the first event: affinity walk and
//                   comm partitioning included.
//   --schedule X    (--threaded only) which synchronization protocols to
//                   sweep: the conservative lookahead window, the
//                   optimistic Time Warp scheduler, or both (default).
//                   Optimistic points run the full sweep: periodic
//                   checkpoints let GVT fossil-collect the consumption
//                   log, so peak log memory is bounded by the checkpoint
//                   interval (reported per row as log_bytes_peak), not by
//                   total message volume.
#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/nas_sp.hpp"
#include "apps/registry.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "bench/common.hpp"
#include "obs/obs.hpp"
#include "support/numparse.hpp"

using namespace stgsim;

namespace {

struct Point {
  std::string app;
  int procs = 0;
  harness::RunOutcome outcome;
  double peak_rss_mb = 0.0;

  double events() const {
    return static_cast<double>(outcome.messages + outcome.slices);
  }
  double events_per_sec() const {
    return safe_rate(events(), outcome.sim_host_seconds);
  }
  double matches_per_sec() const {
    return safe_rate(static_cast<double>(outcome.messages),
                     outcome.sim_host_seconds);
  }
};

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// One AM-mode run: compile the app program for `procs` ranks and execute
/// the simplified program with the calibrated w_i table.
Point run_point(const std::string& app, const benchx::ProgramFactory& make,
                int procs, const harness::MachineSpec& machine,
                const std::map<std::string, double>& params,
                bool with_obs) {
  ir::Program prog = make(procs);
  core::CompileResult compiled = core::compile(prog);

  harness::RunConfig cfg;
  cfg.nprocs = procs;
  cfg.machine = machine;
  cfg.mode = harness::Mode::kAnalytical;
  cfg.params = params;
  // AM-mode fibers execute only scalar prologue + delay/communication
  // code; they do not need the default 256 KiB stacks at 16k ranks.
  cfg.fiber_stack_bytes = 128 * 1024;

  std::unique_ptr<obs::Recorder> rec;
  if (with_obs) {
    rec = std::make_unique<obs::Recorder>(obs::Options{}, procs);
    cfg.obs = rec.get();
  }

  Point p;
  p.app = app;
  p.procs = procs;
  p.outcome = harness::run_program(compiled.simplified.program, cfg);
  p.peak_rss_mb = peak_rss_mb();
  STGSIM_CHECK(p.outcome.ok())
      << app << " @ " << procs << ": "
      << harness::run_status_name(p.outcome.status) << " "
      << p.outcome.diagnostic;
  return p;
}

// ---------------------------------------------------------------------------
// Threaded-scheduler sweep (--threaded)
// ---------------------------------------------------------------------------

struct ThreadedPoint {
  std::string app;
  int procs = 0;
  int workers = 0;  ///< 1 = one inline worker (the baseline rows)
  harness::Schedule schedule = harness::Schedule::kConservative;
  harness::RunOutcome outcome;
  /// Steady-clock time of the whole harness::run_program call: the engine
  /// loop (outcome.sim_host_seconds, reported as wall_sec) plus the set-up
  /// before its first event, comm partitioning included.
  double run_sec = 0.0;

  double events_per_sec() const {
    return safe_rate(
        static_cast<double>(outcome.messages + outcome.slices),
        outcome.sim_host_seconds);
  }
};

ThreadedPoint run_threaded_point(const std::string& app,
                                 const benchx::ProgramFactory& make,
                                 int procs, int workers,
                                 harness::Schedule schedule,
                                 const harness::MachineSpec& machine,
                                 const std::map<std::string, double>& params) {
  ir::Program prog = make(procs);
  core::CompileResult compiled = core::compile(prog);

  harness::RunConfig cfg;
  cfg.nprocs = procs;
  cfg.machine = machine;
  cfg.mode = harness::Mode::kAnalytical;
  cfg.params = params;
  cfg.fiber_stack_bytes = 128 * 1024;
  cfg.threads = workers;
  cfg.partition = simk::PartitionMode::kComm;
  cfg.schedule = schedule;

  ThreadedPoint p;
  p.app = app;
  p.procs = procs;
  p.workers = workers;
  p.schedule = schedule;
  const auto start = std::chrono::steady_clock::now();
  p.outcome = harness::run_program(compiled.simplified.program, cfg);
  p.run_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  STGSIM_CHECK(p.outcome.ok())
      << app << " @ " << procs << " x " << workers << " workers ("
      << harness::schedule_name(schedule) << "): "
      << harness::run_status_name(p.outcome.status) << " "
      << p.outcome.diagnostic;
  return p;
}

void write_threaded_json(const std::string& path,
                         const std::vector<ThreadedPoint>& points) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"threaded_scale\",\n  \"mode\": \"am\",\n"
     << "  \"partition\": \"comm\",\n"
     << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  benchx::write_host(os);
  os << "  \"note\": \"workers=1 conservative rows run one worker inline"
        " (no pool); digests are identical across all rows of one (app, procs)"
        " regardless of schedule; optimistic rows report checkpoint counts"
        " and peak consumption-log bytes: GVT advances mid-round at every"
        " worker count, so fossil collection keeps the log near the"
        " checkpoint interval's worth per rank; with several workers the"
        " peak is the sum of each worker's own-rank peak\",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ThreadedPoint& p = points[i];
    // Baseline = the conservative workers=1 row of the same (app, procs):
    // both protocols are measured against the one-worker inline round.
    double base_wall = 0.0;
    for (const ThreadedPoint& q : points) {
      if (q.app == p.app && q.procs == p.procs && q.workers == 1 &&
          q.schedule == harness::Schedule::kConservative) {
        base_wall = q.outcome.sim_host_seconds;
      }
    }
    const simk::ParallelStats& ps = p.outcome.parallel;
    os << "    {\"app\": \"" << p.app << "\", \"procs\": " << p.procs
       << ", \"workers\": " << p.workers
       << ", \"schedule\": \"" << harness::schedule_name(p.schedule) << "\""
       << ", \"messages\": " << p.outcome.messages
       << ", \"slices\": " << p.outcome.slices
       << ", \"wall_sec\": " << p.outcome.sim_host_seconds
       << ", \"run_sec\": " << p.run_sec
       << ", \"events_per_sec\": " << p.events_per_sec()
       << ", \"speedup_vs_seq\": "
       << safe_speedup(base_wall, p.outcome.sim_host_seconds)
       << ", \"rounds\": " << ps.rounds
       << ", \"intra_messages\": " << ps.intra_messages
       << ", \"mailbox_messages\": " << ps.mailbox_messages
       << ", \"barrier_messages\": " << ps.barrier_messages
       << ", \"rollbacks\": " << ps.rollbacks
       << ", \"anti_messages\": " << ps.anti_messages
       << ", \"gvt_passes\": " << ps.gvt_passes
       << ", \"checkpoints_taken\": " << ps.checkpoints_taken
       << ", \"log_bytes_peak\": " << ps.log_bytes_peak << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int run_threaded_sweep(int max_procs, const std::string& out_path,
                       const std::vector<harness::Schedule>& schedules) {
  const auto machine = harness::ibm_sp_machine();
  // Square counts so nas_sp's q x q grid exists at every point.
  const std::vector<int> sweep = {1024, 4096, 16384};
  const std::vector<int> worker_counts = {1, 2, 4, 8};

  const benchx::ProgramFactory make_sample = [](int nprocs) {
    (void)nprocs;
    apps::SampleConfig cfg;
    cfg.iterations = 40;
    cfg.msg_doubles = 1024;
    cfg.work_iters = 100000;
    return apps::make_sample(cfg);
  };
  const benchx::ProgramFactory make_sweep = [](int nprocs) {
    apps::Sweep3DConfig cfg;
    apps::sweep3d_grid_for(nprocs, &cfg.npe_i, &cfg.npe_j);
    return apps::make_sweep3d(cfg);
  };
  const benchx::ProgramFactory make_sweep_kb5 = [](int nprocs) {
    apps::AppSpec spec;
    spec.name = "sweep3d";
    spec.options = {{"kb", "5"}};
    return apps::build_app(spec, nprocs);
  };
  const benchx::ProgramFactory make_tomcatv = [](int nprocs) {
    apps::TomcatvConfig cfg;
    cfg.n = std::max<std::int64_t>(2048, 2 * nprocs);  // >= 2 rows per rank
    cfg.iterations = 2;
    return apps::make_tomcatv(cfg);
  };
  const benchx::ProgramFactory make_sp = [](int nprocs) {
    int q = 1;
    while ((q + 1) * (q + 1) <= nprocs) ++q;
    return apps::make_nas_sp(apps::sp_class('A', q, /*timesteps=*/2));
  };

  print_experiment_header(
      std::cout, "BENCH threaded_scale",
      "Threaded scheduler vs worker count and protocol (AM mode, comm "
      "partition)",
      {"workers=1 conservative rows run one worker inline (the",
       "baseline); speedup_vs_seq is baseline wall-clock / wall-clock,",
       "only meaningful up to the host core count recorded in the JSON",
       "digests are bit-identical across every row of one (app, procs)"});

  std::vector<ThreadedPoint> points;
  TablePrinter t({"app", "procs", "workers", "schedule", "wall (s)",
                  "run (s)", "events/s", "rounds", "cross msgs",
                  "rollbacks"});
  for (const auto& [app, make] :
       std::vector<std::pair<std::string, benchx::ProgramFactory>>{
           {"sample", make_sample},
           {"sweep3d", make_sweep},
           {"sweep3d_kb5", make_sweep_kb5},
           {"tomcatv", make_tomcatv},
           {"nas_sp", make_sp}}) {
    const auto params = benchx::calibrate_at(make, 16, machine);
    for (int procs : sweep) {
      if (procs > max_procs) continue;
      for (int workers : worker_counts) {
        for (harness::Schedule schedule : schedules) {
          ThreadedPoint p = run_threaded_point(app, make, procs, workers,
                                               schedule, machine, params);
          const simk::ParallelStats& ps = p.outcome.parallel;
          t.add_row({p.app, TablePrinter::fmt_int(p.procs),
                     TablePrinter::fmt_int(p.workers),
                     harness::schedule_name(p.schedule),
                     TablePrinter::fmt(p.outcome.sim_host_seconds, 3),
                     TablePrinter::fmt(p.run_sec, 3),
                     TablePrinter::fmt_int(
                         static_cast<std::int64_t>(p.events_per_sec())),
                     TablePrinter::fmt_int(
                         static_cast<std::int64_t>(ps.rounds)),
                     TablePrinter::fmt_int(
                         static_cast<std::int64_t>(ps.cross_messages())),
                     TablePrinter::fmt_int(
                         static_cast<std::int64_t>(ps.rollbacks))});
          points.push_back(std::move(p));
        }
      }
    }
  }
  std::cout << t.to_ascii();

  write_threaded_json(out_path, points);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

void write_json(const std::string& path, const std::vector<Point>& points) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"engine_scale\",\n  \"mode\": \"am\",\n";
  benchx::write_host(os);
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"app\": \"" << p.app << "\", \"procs\": " << p.procs
       << ", \"messages\": " << p.outcome.messages
       << ", \"slices\": " << p.outcome.slices
       << ", \"wall_sec\": " << p.outcome.sim_host_seconds
       << ", \"events_per_sec\": " << p.events_per_sec()
       << ", \"matches_per_sec\": " << p.matches_per_sec()
       << ", \"peak_rss_mb\": " << p.peak_rss_mb << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  int max_procs = 16384;
  std::string out_path;
  bool with_obs = false;
  bool threaded = false;
  std::vector<harness::Schedule> schedules = {
      harness::Schedule::kConservative, harness::Schedule::kOptimistic};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-procs") == 0 && i + 1 < argc) {
      long long n = 0;
      if (support::parse_i64(argv[++i], &n) !=
              support::ParseNumStatus::kOk ||
          n < 1 || n > 1 << 24) {
        std::cerr << "--max-procs: expected a positive integer, got '"
                  << argv[i] << "'\n";
        return 2;
      }
      max_procs = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      with_obs = true;
    } else if (std::strcmp(argv[i], "--threaded") == 0) {
      threaded = true;
    } else if (std::strcmp(argv[i], "--schedule") == 0 && i + 1 < argc) {
      const std::string which = argv[++i];
      harness::Schedule one;
      if (which == "both") {
        schedules = {harness::Schedule::kConservative,
                     harness::Schedule::kOptimistic};
      } else if (harness::parse_schedule(which, &one)) {
        schedules = {one};
      } else {
        std::cerr << "--schedule: expected conservative|optimistic|both, "
                     "got '" << which << "'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: perf_engine_scale [--max-procs N] [--out FILE]"
                   " [--obs] [--threaded]"
                   " [--schedule conservative|optimistic|both]\n";
      return 2;
    }
  }
  if (out_path.empty()) {
    out_path =
        threaded ? "BENCH_threaded_scale.json" : "BENCH_engine_scale.json";
  }
  if (threaded) return run_threaded_sweep(max_procs, out_path, schedules);

  const auto machine = harness::ibm_sp_machine();
  const std::vector<int> sweep = {256, 1024, 4096, 16384};

  // Same workloads the CLI defaults use, so numbers are comparable to
  // `stgsim run --mode am` timings.
  const benchx::ProgramFactory make_sample = [](int nprocs) {
    (void)nprocs;
    apps::SampleConfig cfg;
    cfg.iterations = 40;
    cfg.msg_doubles = 1024;
    cfg.work_iters = 100000;
    return apps::make_sample(cfg);
  };
  const benchx::ProgramFactory make_sweep = [](int nprocs) {
    apps::Sweep3DConfig cfg;  // defaults: 4x4x255 per proc, kb=17
    apps::sweep3d_grid_for(nprocs, &cfg.npe_i, &cfg.npe_j);
    return apps::make_sweep3d(cfg);
  };

  print_experiment_header(
      std::cout, "BENCH engine_scale",
      "Simulator throughput vs target count (AM mode)",
      {"events = messages + fiber resumptions (scheduling events)",
       "matches/sec = delivered messages retired through the matcher",
       "peak RSS is process-cumulative (monotone down the table)"});

  std::vector<Point> points;
  TablePrinter t({"app", "procs", "messages", "wall (s)", "events/s",
                  "matches/s", "peak RSS (MB)"});
  for (const auto& [app, make] :
       std::vector<std::pair<std::string, benchx::ProgramFactory>>{
           {"sample", make_sample}, {"sweep3d", make_sweep}}) {
    const auto params = benchx::calibrate_at(make, 16, machine);
    for (int procs : sweep) {
      if (procs > max_procs) continue;
      Point p = run_point(app, make, procs, machine, params, with_obs);
      t.add_row({p.app, TablePrinter::fmt_int(p.procs),
                 TablePrinter::fmt_int(
                     static_cast<std::int64_t>(p.outcome.messages)),
                 TablePrinter::fmt(p.outcome.sim_host_seconds, 3),
                 TablePrinter::fmt_int(
                     static_cast<std::int64_t>(p.events_per_sec())),
                 TablePrinter::fmt_int(
                     static_cast<std::int64_t>(p.matches_per_sec())),
                 TablePrinter::fmt(p.peak_rss_mb, 1)});
      points.push_back(std::move(p));
    }
  }
  std::cout << t.to_ascii();

  write_json(out_path, points);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
