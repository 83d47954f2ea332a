#include "mc/checker.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "mc/oracles.hpp"
#include "mc/schedule.hpp"
#include "support/check.hpp"

namespace stgsim::mc {

using harness::RunConfig;
using harness::RunOutcome;
using harness::RunStatus;

namespace {

std::string format_blocked(
    const std::vector<simk::DeadlockError::BlockedRank>& blocked) {
  std::vector<const simk::DeadlockError::BlockedRank*> sorted;
  for (const auto& b : blocked) sorted.push_back(&b);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* x, const auto* y) { return x->rank < y->rank; });
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto* b = sorted[i];
    if (i > 0) os << ", ";
    os << "rank " << b->rank << " " << b->waiting_what << "(src=";
    if (b->waiting_src == simk::MatchSpec::kAnySource) {
      os << "ANY";
    } else {
      os << b->waiting_src;
    }
    os << ",tag=" << b->waiting_tag << ")@" << b->clock;
  }
  os << "}";
  return os.str();
}

std::vector<simk::ChoiceOption> committed_schedule(
    const RecordingOracle& oracle) {
  std::vector<simk::ChoiceOption> steps;
  steps.reserve(oracle.log().size());
  for (const StepLog& s : oracle.log()) steps.push_back(s.chosen);
  return steps;
}

}  // namespace

const char* divergence_kind_name(Divergence::Kind k) {
  switch (k) {
    case Divergence::Kind::kDigest: return "digest";
    case Divergence::Kind::kStatus: return "status";
    case Divergence::Kind::kDeadlockReport: return "deadlock_report";
    case Divergence::Kind::kThreadedDigest: return "threaded_digest";
  }
  return "?";
}

CheckReport check_program(const ir::Program& prog, const CheckOptions& opts) {
  CheckReport rep;
  if (opts.base.mode == harness::Mode::kMeasured) {
    rep.error =
        "check requires --mode de or am: measured mode's seeded noise and "
        "NIC contention state are order-dependent by design, so digest "
        "invariance is not a checkable claim there";
    return rep;
  }
  if (opts.base.nprocs > 8) {
    rep.error = "check supports at most 8 ranks (got " +
                std::to_string(opts.base.nprocs) +
                "); schedule spaces beyond that are not exhaustively "
                "explorable";
    return rep;
  }

  // Exploration-run configuration: sequential scheduler under oracle
  // control, no per-run wall budget (schedule-nondeterministic — the
  // exploration-level deadline below bounds total time).
  RunConfig mc_cfg = opts.base;
  mc_cfg.threads = 0;
  mc_cfg.max_host_seconds = 0.0;
  mc_cfg.obs = nullptr;
  mc_cfg.oracle = nullptr;

  // Canonical reference: the plain sequential scheduler, same config
  // (including any injected fault such as Inject::kUnsafeWildcard — the
  // check asserts schedule-invariance of the engine *as configured*).
  // Exception: when checking the optimistic schedule the contract is
  // "optimistic commits the *conservative* sequential digest", so the
  // canonical run drops the optimistic schedule (and its injection) and
  // every explored/threaded run keeps it.
  RunConfig canon_cfg = mc_cfg;
  if (opts.base.schedule == harness::Schedule::kOptimistic) {
    canon_cfg.schedule = harness::Schedule::kConservative;
    canon_cfg.inject = simk::Inject::kNone;
  }
  rep.canonical = harness::run_program(prog, canon_cfg);
  rep.canonical_digest = harness::run_digest_hex(rep.canonical);
  rep.used_wildcard_recv = rep.canonical.used_wildcard_recv;
  if (rep.canonical.status != RunStatus::kOk &&
      rep.canonical.status != RunStatus::kDeadlock) {
    rep.error = std::string("canonical run ended in ") +
                harness::run_status_name(rep.canonical.status) + ": " +
                rep.canonical.diagnostic;
    return rep;
  }
  const std::uint64_t canon_digest = harness::run_digest(rep.canonical);
  const std::uint64_t canon_deadlock_key =
      harness::deadlock_report_key(rep.canonical.blocked_ranks);

  std::set<std::uint64_t> digests;
  auto run_one = [&](RecordingOracle& oracle) -> bool {
    RunConfig rc = mc_cfg;
    rc.oracle = &oracle;
    RunOutcome out;
    try {
      out = harness::run_program(prog, rc);
    } catch (const ScheduleAbandoned&) {
      return true;  // pruned prefix; nothing to check
    } catch (const DepthExceeded&) {
      return true;  // clipped run; terminal state unknown, skip the gate
    }
    digests.insert(harness::run_digest(out));

    Divergence d;
    bool diverged = false;
    if (out.status != rep.canonical.status) {
      d.kind = Divergence::Kind::kStatus;
      d.description = std::string("terminal status: ") +
                      harness::run_status_name(rep.canonical.status) +
                      " vs " + harness::run_status_name(out.status) +
                      (out.diagnostic.empty() ? "" : " (" + out.diagnostic +
                                                         ")");
      diverged = true;
    } else if (rep.canonical.status == RunStatus::kDeadlock) {
      if (harness::deadlock_report_key(out.blocked_ranks) !=
          canon_deadlock_key) {
        d.kind = Divergence::Kind::kDeadlockReport;
        d.description = "blocked-rank report: " +
                        format_blocked(rep.canonical.blocked_ranks) + " vs " +
                        format_blocked(out.blocked_ranks);
        diverged = true;
      }
    } else if (harness::run_digest(out) != canon_digest) {
      d.kind = Divergence::Kind::kDigest;
      d.description = harness::describe_run_divergence(rep.canonical, out);
      diverged = true;
    }
    if (diverged) {
      d.schedule = committed_schedule(oracle);
      d.observed = std::move(out);
      rep.divergences.push_back(std::move(d));
      if (!opts.keep_going) return false;
    }
    return true;
  };

  ExploreOptions eo;
  eo.max_schedules = opts.max_schedules;
  eo.max_depth = opts.max_depth;
  eo.max_host_seconds = opts.max_host_seconds;
  eo.use_dpor = opts.use_dpor;
  eo.indep = make_independence(rep.used_wildcard_recv);
  rep.stats = explore(run_one, eo);
  rep.distinct_schedule_digests = digests.size();

  // Threaded cross-check: the conservative threaded scheduler promises
  // bit-identical results for any mailbox drain order; perturb it.
  if (opts.threaded_workers >= 2 && rep.divergences.empty()) {
    for (int trial = 0; trial < opts.threaded_trials; ++trial) {
      const std::uint64_t seed =
          opts.drain_seed + static_cast<std::uint64_t>(trial);
      DrainPermuteOracle oracle(seed, opts.threaded_workers);
      RunConfig tc = mc_cfg;
      tc.threads = opts.threaded_workers;
      tc.oracle = &oracle;
      RunOutcome out = harness::run_program(prog, tc);
      ++rep.threaded_trials_run;
      bool diverged = false;
      Divergence d;
      d.kind = Divergence::Kind::kThreadedDigest;
      d.drain_seed = seed;
      d.workers = opts.threaded_workers;
      if (out.status != rep.canonical.status) {
        d.description = std::string("terminal status: ") +
                        harness::run_status_name(rep.canonical.status) +
                        " vs " + harness::run_status_name(out.status);
        diverged = true;
      } else if (rep.canonical.status == RunStatus::kDeadlock) {
        if (harness::deadlock_report_key(out.blocked_ranks) !=
            canon_deadlock_key) {
          d.description = "blocked-rank report: " +
                          format_blocked(rep.canonical.blocked_ranks) +
                          " vs " + format_blocked(out.blocked_ranks);
          diverged = true;
        }
      } else if (harness::run_digest(out) != canon_digest) {
        d.description = harness::describe_run_divergence(rep.canonical, out);
        diverged = true;
      }
      if (diverged) {
        d.observed = std::move(out);
        rep.divergences.push_back(std::move(d));
        if (!opts.keep_going) break;
      }
    }
  }
  return rep;
}

json::Value counterexample_to_json(const Divergence& d,
                                   const CheckReport& report,
                                   const json::Value& spec) {
  json::Value doc = json::Value::object();
  doc.set("version", 1);
  doc.set("kind", "stgsim-schedule");
  doc.set("divergence", divergence_kind_name(d.kind));
  doc.set("description", d.description);

  json::Value canon = json::Value::object();
  canon.set("digest", report.canonical_digest);
  canon.set("status", harness::run_status_name(report.canonical.status));
  doc.set("canonical", std::move(canon));

  json::Value obs = json::Value::object();
  obs.set("digest", harness::run_digest_hex(d.observed));
  obs.set("status", harness::run_status_name(d.observed.status));
  if (!d.observed.diagnostic.empty()) {
    obs.set("diagnostic", d.observed.diagnostic);
  }
  doc.set("observed", std::move(obs));

  if (d.kind == Divergence::Kind::kThreadedDigest) {
    doc.set("workers", d.workers);
    doc.set("drain_seed", static_cast<std::uint64_t>(d.drain_seed));
  } else {
    doc.set("steps", schedule_to_json(d.schedule));
  }
  if (!spec.is_null()) doc.set("spec", spec);
  return doc;
}

}  // namespace stgsim::mc
