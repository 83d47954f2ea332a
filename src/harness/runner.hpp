// Experiment harness: runs a target program under one of three modes and
// collects the quantities the paper's evaluation reports.
//
//   kMeasured  — stands in for "direct measurement" on the real machine:
//                the full program runs on the detailed machine model with
//                NIC contention and seeded noise enabled.
//   kDirectExec— MPI-SIM-DE: the full program under the simulator's clean
//                communication model (direct execution of computation).
//   kAnalytical— MPI-SIM-AM: the compiler-simplified program, parameterized
//                by w_i values measured at a calibration configuration.
//
// calibrate() implements the Figure-2 workflow: run the timer-instrumented
// program under kMeasured at the calibration configuration and return the
// w_i table.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "ir/interp.hpp"
#include "ir/program.hpp"
#include "machine/compute.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/partition.hpp"
#include "smpi/smpi.hpp"

namespace stgsim::harness {

enum class Mode { kMeasured, kDirectExec, kAnalytical };

const char* mode_name(Mode m);

/// Parallel synchronization protocol for the simulation engine.
///   kConservative — wildcard receives commit only once the safety bound
///                   passes their candidate; nothing is ever undone.
///   kOptimistic   — Time Warp: execute speculatively, roll back on
///                   stragglers/anti-messages, commit via GVT. Digests are
///                   bit-identical to the conservative schedulers.
enum class Schedule { kConservative, kOptimistic };

const char* schedule_name(Schedule s);
/// Parses "conservative"/"optimistic"; returns false on anything else.
bool parse_schedule(const std::string& text, Schedule* out);

/// A target machine: communication + compute models plus the emulation-only
/// imperfections that make kMeasured differ from the simulator's model.
struct MachineSpec {
  std::string name;  ///< display name ("IBM SP")
  std::string key;   ///< registry id ("ibm_sp") — see harness/machines.hpp
  net::NetworkParams net;  ///< includes the platform (topology) parameters
  machine::ComputeParams compute;
  /// Collective algorithm selection ("algo.*" spec-string fields).
  smpi::CollectiveConfig coll;
  double emulation_net_jitter = 0.03;
  double emulation_compute_jitter = 0.015;
  bool emulation_contention = true;
};

MachineSpec ibm_sp_machine();
MachineSpec origin2000_machine();

struct RunConfig {
  int nprocs = 1;
  MachineSpec machine = ibm_sp_machine();
  Mode mode = Mode::kDirectExec;

  /// w_i table for analytical-model runs (from calibrate()).
  std::map<std::string, double> params;

  /// Simulated-program data cap; 0 = uncapped. Runs that exceed it report
  /// out_of_memory instead of crashing (paper Figs. 10/11: "memory
  /// requirements restricted the largest target architecture").
  std::size_t memory_cap_bytes = 0;

  /// Host workers (simk::EngineConfig::host_workers). 0 and 1 both run
  /// one worker inline on the calling thread; calibration/profiling
  /// recorders and kMeasured mode require it.
  int threads = 0;

  /// Rank→worker placement policy for multi-worker runs (ignored when
  /// threads <= 1). kComm derives rank affinity from the program's
  /// communication structure (harness::comm_affinity) and partitions to
  /// minimize cross-worker traffic. Never affects simulated results.
  simk::PartitionMode partition = simk::PartitionMode::kBlock;

  /// Synchronization protocol. kOptimistic applies to one worker
  /// (threads <= 1; wildcards commit on sight) and to several (workers
  /// run ahead freely and GVT commits behind them). Incompatible with
  /// kMeasured mode and calibration/profiling hooks, both of which carry
  /// state a rollback cannot restore.
  Schedule schedule = Schedule::kConservative;

  /// Replace the detailed communication simulation with the abstract
  /// communication model (paper §5's proposed extension).
  bool abstract_comm = false;

  // -- Optimistic-schedule tuning (ignored under kConservative). It never
  // affects simulated results: digests are bit-identical across every
  // setting; it trades rollback re-execution cost against checkpoint and
  // log memory.

  /// Committed consumes between per-rank checkpoints (0 = checkpoints
  /// off: rollback replays from rank start and the consumption log is
  /// never pruned — the pre-checkpoint behaviour).
  std::uint64_t checkpoint_interval = 64;

  std::size_t fiber_stack_bytes = 256 * 1024;
  std::uint64_t seed = 20260704;

  /// Deterministic fault schedule injected into the run (empty = healthy
  /// machine). Same seed + same plan ⇒ identical RunOutcome under both the
  /// sequential and threaded conservative schedulers.
  fault::FaultPlan faults;

  // Run budgets (0 = unlimited); exceeding one yields kBudgetExceeded.
  VTime max_virtual_time = 0;
  std::uint64_t max_messages = 0;
  double max_host_seconds = 0.0;

  /// Observability sink (not owned; must outlive the run). When set it is
  /// attached both as the engine observer and as the smpi recorder, and
  /// RunOutcome::metrics is filled from it. Never changes simulated
  /// results: digests with and without a recorder are bit-identical.
  obs::Recorder* obs = nullptr;

  /// Schedule oracle for model-checking runs (not owned; must outlive the
  /// run). With one worker it switches the engine to MC mode (explicit
  /// delivery steps, forced wildcard parking); with several it only
  /// perturbs mailbox drain order. See
  /// simk::ScheduleOracle.
  simk::ScheduleOracle* oracle = nullptr;

  /// Test-only protocol race for `stgsim check` to find (simk::Inject;
  /// kCommitBeforeGvt needs the optimistic schedule, kUnsafeWildcard the
  /// conservative one). Never set outside tests/CI.
  simk::Inject inject = simk::Inject::kNone;

  /// Test-only fault injection: inflate the wildcard latency floor by
  /// this much past the network's sound bound (smpi::World::Options::
  /// unsafe_floor_slack). A too-large floor commits wildcard receives
  /// that a slower sender could still beat, so regression tests can show
  /// the floor's soundness is load-bearing. Never set outside tests/CI.
  VTime unsafe_floor_slack = 0;
};

/// How a run ended. Every run — including pathological target programs and
/// fault-degraded ones — produces a reportable RunOutcome with one of
/// these statuses instead of crashing or hanging the simulator.
enum class RunStatus {
  kOk,
  kOutOfMemory,     ///< simulated data exceeded RunConfig::memory_cap_bytes
  kDeadlock,        ///< every unfinished rank blocked with nothing in flight
  kBudgetExceeded,  ///< a RunConfig::max_* budget fired
  kInternalError,   ///< target program error (e.g. buffer overrun check)
};

const char* run_status_name(RunStatus s);

struct RunOutcome {
  RunStatus status = RunStatus::kOk;
  /// Human-readable failure description (empty when status == kOk).
  std::string diagnostic;

  bool ok() const { return status == RunStatus::kOk; }
  bool out_of_memory() const { return status == RunStatus::kOutOfMemory; }

  VTime predicted_time = 0;  ///< target program execution time (max rank)
  double predicted_seconds() const { return vtime_to_sec(predicted_time); }
  std::vector<VTime> per_rank;

  double sim_host_seconds = 0.0;  ///< wall-clock the simulator itself took
  std::size_t peak_target_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t slices = 0;  ///< fiber resumptions (scheduling events)
  smpi::RankStats stats;         ///< aggregate across ranks
  std::vector<smpi::RankStats> per_rank_stats;  ///< indexed by rank

  int nprocs = 0;

  /// Round, message and Time Warp counters (the round and message fields
  /// stay zero with one worker, threads <= 1).
  simk::ParallelStats parallel;

  /// Aggregated observability metrics; empty unless RunConfig::obs was
  /// set. Includes engine pool/arena occupancy appended by the harness.
  obs::MetricsSnapshot metrics;

  /// Structured per-rank blocking report when status == kDeadlock (the
  /// same data the diagnostic renders as text). Sorted by rank.
  std::vector<simk::DeadlockError::BlockedRank> blocked_ranks;

  /// True when any rank executed a wildcard (ANY_SOURCE/waitany) receive.
  /// The protocol checker uses this to pick the right independence
  /// relation for DPOR reduction.
  bool used_wildcard_recv = false;
};

/// Executes `prog` under `config`. Never throws for conditions arising in
/// the *target* program or machine — memory-cap overruns, deadlocks,
/// budget violations, and target-program errors are all reported through
/// RunOutcome::status. The instrumentation hooks may be null.
RunOutcome run_program(const ir::Program& prog, const RunConfig& config,
                       ir::TimerRecorder* timers = nullptr,
                       ir::BranchProfiler* branches = nullptr,
                       ir::KernelMetaRecorder* kernel_meta = nullptr);

/// Figure-2 calibration: runs `timer_program` under kMeasured on
/// `calib_procs` processes and returns the {w_<task> -> sec/iter} table.
///
/// `required_params` (typically SimplifyResult::params) names every
/// parameter the simplified program will read; tasks the measurement run
/// never executed — e.g. inside a branch not taken at the calibration
/// configuration — are filled with 0 so prediction can proceed (they
/// contributed nothing to the measured run either; an acknowledged
/// limitation of measurement-based parameterization, §3.3).
std::map<std::string, double> calibrate(
    const ir::Program& timer_program, int calib_procs,
    const MachineSpec& machine,
    const std::set<std::string>& required_params = {},
    std::uint64_t seed = 20260704);

/// §3.3 alternative (a): task times *estimated by the compiler's machine
/// model* instead of measured with timers. Runs the original program once
/// (direct execution, to observe actual iteration counts, branch
/// fractions and working sets) and derives each w_<task> analytically —
/// free of timer noise, but sharing the constant-w_i transfer limitation.
/// Run it at the *target* configuration to also remove the cache
/// working-set transfer error (at the cost of a full direct-execution
/// pass there).
std::map<std::string, double> estimate_params(
    const ir::Program& original, int calib_procs, const MachineSpec& machine,
    const std::set<std::string>& required_params = {},
    std::uint64_t seed = 20260704);

}  // namespace stgsim::harness
