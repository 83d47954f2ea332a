#include "harness/runner.hpp"

#include <algorithm>
#include <optional>

#include "harness/affinity.hpp"
#include "support/check.hpp"

namespace stgsim::harness {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kMeasured: return "measured";
    case Mode::kDirectExec: return "MPI-SIM-DE";
    case Mode::kAnalytical: return "MPI-SIM-AM";
  }
  return "?";
}

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kConservative: return "conservative";
    case Schedule::kOptimistic: return "optimistic";
  }
  return "?";
}

bool parse_schedule(const std::string& text, Schedule* out) {
  for (const Schedule s : {Schedule::kConservative, Schedule::kOptimistic}) {
    if (text == schedule_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

const char* run_status_name(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kOutOfMemory: return "out_of_memory";
    case RunStatus::kDeadlock: return "deadlock";
    case RunStatus::kBudgetExceeded: return "budget_exceeded";
    case RunStatus::kInternalError: return "internal_error";
  }
  return "?";
}

MachineSpec ibm_sp_machine() {
  MachineSpec m;
  m.name = "IBM SP";
  m.key = "ibm_sp";
  m.net = net::ibm_sp();
  m.compute = machine::ibm_sp_node();
  return m;
}

MachineSpec origin2000_machine() {
  MachineSpec m;
  m.name = "SGI Origin 2000";
  m.key = "origin2000";
  m.net = net::origin2000();
  m.compute = machine::origin2000_node();
  return m;
}

RunOutcome run_program(const ir::Program& prog, const RunConfig& config,
                       ir::TimerRecorder* timers, ir::BranchProfiler* branches,
                       ir::KernelMetaRecorder* kernel_meta) {
  STGSIM_CHECK_GT(config.nprocs, 0);

  smpi::World::Options wopts;
  wopts.net = config.machine.net;
  wopts.compute = config.machine.compute;
  if (config.mode == Mode::kMeasured) {
    // The "real machine" has the imperfections the simulator's model
    // ignores; this is where DE's (small) prediction error comes from.
    wopts.net.model_contention = config.machine.emulation_contention;
    wopts.net.jitter_frac = config.machine.emulation_net_jitter;
    wopts.compute.compute_jitter_frac = config.machine.emulation_compute_jitter;
  }

  if (config.abstract_comm) {
    wopts.comm_fidelity = smpi::World::Options::CommFidelity::kAbstract;
  }
  wopts.coll = config.machine.coll;
  wopts.faults = config.faults;
  wopts.obs = config.obs;
  wopts.unsafe_floor_slack = config.unsafe_floor_slack;

  simk::EngineConfig ec;
  ec.num_processes = config.nprocs;
  ec.memory_cap_bytes = config.memory_cap_bytes;
  ec.fiber_stack_bytes = config.fiber_stack_bytes;
  ec.seed = config.seed;
  ec.max_virtual_time = config.max_virtual_time;
  ec.max_messages = config.max_messages;
  ec.max_host_seconds = config.max_host_seconds;
  ec.observer = config.obs;
  ec.oracle = config.oracle;
  ec.inject = config.inject;
  const bool optimistic = config.schedule == Schedule::kOptimistic;
  if (optimistic) {
    ec.optimistic = true;
    ec.checkpoint_interval = config.checkpoint_interval;
    STGSIM_CHECK(config.mode != Mode::kMeasured)
        << "optimistic schedule: emulation (contention/jitter state) cannot "
           "be rolled back";
    STGSIM_CHECK(timers == nullptr && branches == nullptr &&
                 kernel_meta == nullptr)
        << "optimistic schedule: calibration/profiling recorders cannot be "
           "rolled back";
  }
  if (config.threads > 1) {
    ec.host_workers = config.threads;
    STGSIM_CHECK(timers == nullptr && branches == nullptr)
        << "calibration/profiling require one host worker";
    STGSIM_CHECK(config.mode != Mode::kMeasured)
        << "emulation (NIC contention state) requires one host worker";
  }

  ir::ExecOptions xopts;
  xopts.timers = timers;
  xopts.branches = branches;
  xopts.kernel_meta = kernel_meta;

  RunOutcome out;
  out.nprocs = config.nprocs;
  // The plan is compiled once per run and shared read-only by every rank
  // (and by the affinity walk); declared before the engine so it outlives
  // any fiber the engine tears down. Plan compilation rejects malformed
  // programs, and world construction builds the routed platform, which
  // validates the topology parameters (torus extents vs rank count,
  // fat-tree radix, ...): both can throw, inside the try, so either
  // becomes an internal_error outcome like any other model-check failure.
  std::optional<ir::Plan> plan;
  std::optional<simk::Engine> engine;
  std::optional<smpi::World> world;
  try {
    plan.emplace(prog);
    if (config.threads > 1 && config.partition != simk::PartitionMode::kBlock) {
      if (config.partition == simk::PartitionMode::kComm) {
        const simk::Affinity aff = comm_affinity(*plan, config.nprocs);
        ec.partition = simk::make_partition(config.partition, config.nprocs,
                                            config.threads, &aff);
      } else {
        ec.partition = simk::make_partition(config.partition, config.nprocs,
                                            config.threads, nullptr);
      }
    }
    engine.emplace(ec);
    world.emplace(wopts, config.nprocs);
    for (const auto& [k, v] : config.params) world->set_param(k, v);
    if (config.obs != nullptr) {
      // Per-link utilization + hop histogram; relaxed atomic counters that
      // never feed back into timing, so digests stay identical.
      world->network().enable_link_stats();
    }
    // Wildcard (ANY_SOURCE/waitany) commits are gated on the latency
    // floor; set it up front so
    // even a run whose first operation is a wildcard receive is bounded
    // correctly. The floor includes the fault plan's always-on global
    // latency factors (a sound, possibly larger bound that never changes
    // which candidate commits).
    engine->set_wildcard_min_latency(world->wildcard_latency_floor());
    if (optimistic) {
      // Rollback must also rewind the layers above the engine that keep
      // per-rank state: smpi protocol counters and the obs shard. Both are
      // rebuilt exactly by the coast-forward replay. (Comm itself lives on
      // the fiber stack and is recreated with the fiber.)
      engine->set_rollback_reset([&world, &config](int rank) {
        world->stats(rank) = smpi::RankStats{};
        if (config.obs != nullptr) config.obs->reset_rank(rank);
      });
    }
    engine->set_body([&](simk::Process& p) {
      smpi::Comm comm(*world, p);
      ir::execute(*plan, comm, xopts);
    });
    simk::RunResult rr = engine->run();
    out.predicted_time = rr.completion;
    out.per_rank = std::move(rr.per_rank_completion);
    out.sim_host_seconds = rr.host_seconds;
    out.peak_target_bytes = rr.peak_target_bytes;
    out.messages = rr.messages_delivered;
    out.slices = rr.slices;
    out.stats = world->aggregate_stats();
    out.per_rank_stats = world->all_stats();
    out.parallel = engine->parallel_stats();
    if (config.obs != nullptr) {
      out.metrics = config.obs->snapshot();
      const auto ps = engine->payload_stats();
      const auto as = engine->arena_stats();
      out.metrics.add("pool.payload_outstanding",
                      static_cast<double>(ps.outstanding));
      out.metrics.add("pool.payload_retained_bytes",
                      static_cast<double>(ps.retained_bytes));
      out.metrics.add("pool.msg_arena_live", static_cast<double>(as.live));
      out.metrics.add("pool.msg_arena_capacity",
                      static_cast<double>(as.capacity));
      out.metrics.add("memory.peak_target_bytes",
                      static_cast<double>(rr.peak_target_bytes));
      out.metrics.add("engine.messages_delivered",
                      static_cast<double>(rr.messages_delivered));
      out.metrics.add("engine.fiber_slices", static_cast<double>(rr.slices));
      out.metrics.hop_hist = world->network().hop_hist();
      for (const auto& l : world->network().link_usage()) {
        out.metrics.links.push_back({l.name, l.messages, l.bytes});
      }
      if (config.threads > 1) {
        // Threaded-conservative protocol metrics. Message-locality counts
        // are deterministic for a fixed partition; rounds and the
        // mailbox/barrier split depend on host timing and are excluded
        // from digests.
        const simk::ParallelStats& ps2 = out.parallel;
        out.metrics.add("parallel.workers",
                        static_cast<double>(config.threads));
        out.metrics.add("parallel.rounds", static_cast<double>(ps2.rounds));
        out.metrics.add("parallel.intra_messages",
                        static_cast<double>(ps2.intra_messages));
        out.metrics.add("parallel.mailbox_messages",
                        static_cast<double>(ps2.mailbox_messages));
        out.metrics.add("parallel.barrier_messages",
                        static_cast<double>(ps2.barrier_messages));
        out.metrics.add("parallel.cross_messages",
                        static_cast<double>(ps2.cross_messages()));
        for (std::size_t w = 0; w < ps2.worker_slices.size(); ++w) {
          out.metrics.add("parallel.worker" + std::to_string(w) + ".slices",
                          static_cast<double>(ps2.worker_slices[w]));
        }
      }
      if (optimistic) {
        // Time Warp protocol counters. Deterministic for sequential-hosted
        // optimistic runs; under the threaded scheduler rollback counts
        // depend on host timing and are excluded from digests (like
        // rounds / the mailbox split above).
        const simk::ParallelStats& ps3 = out.parallel;
        out.metrics.add("parallel.rollbacks",
                        static_cast<double>(ps3.rollbacks));
        out.metrics.add("parallel.anti_messages",
                        static_cast<double>(ps3.anti_messages));
        out.metrics.add("parallel.gvt_passes",
                        static_cast<double>(ps3.gvt_passes));
        out.metrics.add("parallel.fossil_finalized",
                        static_cast<double>(ps3.fossil_finalized));
        out.metrics.add("parallel.checkpoints_taken",
                        static_cast<double>(ps3.checkpoints_taken));
        out.metrics.add("parallel.replayed_events",
                        static_cast<double>(ps3.replayed_events));
        out.metrics.add("parallel.log_bytes_peak",
                        static_cast<double>(ps3.log_bytes_peak));
        out.metrics.rollback_depth_hist = ps3.rollback_depth_hist;
      }
    }
  } catch (const MemoryCapExceeded& e) {
    out.status = RunStatus::kOutOfMemory;
    out.diagnostic = e.what();
    out.peak_target_bytes = engine ? engine->memory().peak_bytes() : 0;
  } catch (const simk::DeadlockError& e) {
    out.status = RunStatus::kDeadlock;
    out.diagnostic = e.what();
    out.blocked_ranks = e.blocked();
  } catch (const simk::BudgetExceededError& e) {
    out.status = RunStatus::kBudgetExceeded;
    out.diagnostic = std::string(simk::budget_kind_name(e.kind())) +
                     " budget: " + e.what();
  } catch (const smpi::TargetProgramError& e) {
    // Structured target-program fault (e.g. receive buffer too small):
    // reported as internal_error with the smpi-level diagnostic, no check
    // banner.
    out.status = RunStatus::kInternalError;
    out.diagnostic = e.what();
  } catch (const std::exception& e) {
    // Anything else is a defect in the *target* program (or a model check
    // it tripped); the simulator itself stays alive and reports it.
    out.status = RunStatus::kInternalError;
    out.diagnostic = e.what();
  }
  out.used_wildcard_recv = engine && engine->saw_wildcard_recv();
  return out;
}

std::map<std::string, double> calibrate(
    const ir::Program& timer_program, int calib_procs,
    const MachineSpec& machine, const std::set<std::string>& required_params,
    std::uint64_t seed) {
  ir::TimerRecorder timers;
  RunConfig cfg;
  cfg.nprocs = calib_procs;
  cfg.machine = machine;
  cfg.mode = Mode::kMeasured;
  cfg.seed = seed;
  RunOutcome out = run_program(timer_program, cfg, &timers);
  STGSIM_CHECK(out.ok()) << "calibration run failed ("
                         << run_status_name(out.status)
                         << "): " << out.diagnostic;
  auto params = timers.to_params();
  for (const auto& name : required_params) {
    params.emplace(name, 0.0);  // unmeasured task: never ran at calibration
  }
  return params;
}

std::map<std::string, double> estimate_params(
    const ir::Program& original, int calib_procs, const MachineSpec& machine,
    const std::set<std::string>& required_params, std::uint64_t seed) {
  ir::KernelMetaRecorder meta;
  RunConfig cfg;
  cfg.nprocs = calib_procs;
  cfg.machine = machine;
  cfg.mode = Mode::kDirectExec;  // observe exact counts, without noise
  cfg.seed = seed;
  RunOutcome out =
      run_program(original, cfg, nullptr, nullptr, &meta);
  STGSIM_CHECK(out.ok()) << "estimation run failed ("
                         << run_status_name(out.status)
                         << "): " << out.diagnostic;

  std::map<std::string, double> params;
  for (const auto& [task, m] : meta.records()) {
    if (m.iters <= 0.0) continue;
    const double flops_avg = m.flops_weighted / m.iters;
    params["w_" + task] = machine::seconds_per_iteration(
        machine.compute, flops_avg, m.ws_bytes_max);
  }
  for (const auto& name : required_params) params.emplace(name, 0.0);
  return params;
}

}  // namespace stgsim::harness
