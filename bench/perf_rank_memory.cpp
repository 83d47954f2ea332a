// Per-rank host memory of an AM run at scale (not a paper figure). Runs
// sweep3d in AM mode, calibrated at 16 processes as `stgsim run --mode am
// --calibrate 16` does, once per process invocation, so ru_maxrss is that
// run's peak. Prints the peak RSS, the peak RSS per rank, the live frames
// each fiber yield saved (mean and max, through Fiber::set_save_hook), the
// engine wall and the run digest.
//
//   perf_rank_memory --procs 65536 [--workers 4] [--optimistic]
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/registry.hpp"
#include "core/compiler.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "sim/fiber.hpp"
#include "support/numparse.hpp"

using namespace stgsim;

namespace {

std::atomic<std::uint64_t> g_yields{0};
std::atomic<std::uint64_t> g_saved_sum{0};
std::atomic<std::uint64_t> g_saved_max{0};

void count_save(std::size_t bytes) {
  g_yields.fetch_add(1, std::memory_order_relaxed);
  g_saved_sum.fetch_add(bytes, std::memory_order_relaxed);
  std::uint64_t prev = g_saved_max.load(std::memory_order_relaxed);
  while (prev < bytes && !g_saved_max.compare_exchange_weak(prev, bytes)) {
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_rank_memory --procs N [--workers K] "
               "[--optimistic]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  long long procs = 0;
  long long workers = 0;
  bool optimistic = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--procs") == 0 && has_value) {
      if (support::parse_i64(argv[++i], &procs) !=
          support::ParseNumStatus::kOk) {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--workers") == 0 && has_value) {
      if (support::parse_i64(argv[++i], &workers) !=
          support::ParseNumStatus::kOk) {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--optimistic") == 0) {
      optimistic = true;
    } else {
      return usage();
    }
  }
  if (procs < 1 || workers < 0) return usage();

  constexpr int kCalibProcs = 16;
  const apps::AppSpec app{"sweep3d", {}};
  harness::RunConfig cfg;
  cfg.nprocs = static_cast<int>(procs);
  cfg.machine = harness::base_machine("ibm_sp");
  cfg.mode = harness::Mode::kAnalytical;
  cfg.threads = static_cast<int>(workers);
  if (workers > 1) cfg.partition = simk::PartitionMode::kComm;
  if (optimistic) cfg.schedule = harness::Schedule::kOptimistic;
  const core::CompileResult target =
      core::compile(apps::build_app(app, cfg.nprocs));
  const core::CompileResult calib =
      core::compile(apps::build_app(app, kCalibProcs));
  cfg.params = harness::calibrate(calib.timer_program, kCalibProcs,
                                  cfg.machine, {}, cfg.seed);
  // Parameters the calibration never measured are zero, as in campaigns.
  for (const auto& name : target.simplified.params) {
    cfg.params.emplace(name, 0.0);
  }

  simk::Fiber::set_save_hook(count_save);
  const harness::RunOutcome out =
      harness::run_program(target.simplified.program, cfg);
  simk::Fiber::set_save_hook(nullptr);
  if (!out.ok()) {
    std::printf("RUN FAILED [%s]: %s\n", harness::run_status_name(out.status),
                out.diagnostic.c_str());
    return 2;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const std::uint64_t yields = g_yields.load();
  std::printf(
      "procs %d  workers %d  %s  peak_rss %.1f MB  per_rank %.2f KiB  "
      "yields %llu  saved_mean %.0f B  saved_max %llu B  engine_wall %.2f s  "
      "messages %llu  digest %s\n",
      cfg.nprocs, cfg.threads, optimistic ? "optimistic" : "conservative",
      rss_mb, rss_mb * 1024.0 / cfg.nprocs,
      static_cast<unsigned long long>(yields),
      yields > 0 ? static_cast<double>(g_saved_sum.load()) /
                       static_cast<double>(yields)
                 : 0.0,
      static_cast<unsigned long long>(g_saved_max.load()), out.sim_host_seconds,
      static_cast<unsigned long long>(out.messages),
      harness::run_digest_hex(out).c_str());
  return 0;
}
