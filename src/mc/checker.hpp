// The protocol checker behind `stgsim check`.
//
// For small configurations (≤ 8 ranks) it systematically explores the
// engine's message-delivery and match orderings and asserts, across every
// explored schedule:
//   (1) digest invariance — the committed run digest is bit-identical to
//       the plain sequential scheduler's, and
//   (2) deadlock determinism — every schedule terminates; or, when the
//       program deadlocks, every schedule deadlocks with the same
//       structured blocked-rank report (home_worker excluded).
// A threaded cross-check then perturbs the mailbox drain order under
// --workers N and requires the same digest again.
//
// Divergences carry the full committed schedule so they serialize into
// counterexample files that `stgsim check --replay` reproduces
// deterministically. See DESIGN.md §13.
#pragma once

#include <string>
#include <vector>

#include "harness/digest.hpp"
#include "harness/runner.hpp"
#include "ir/program.hpp"
#include "mc/explorer.hpp"
#include "support/json.hpp"

namespace stgsim::mc {

struct CheckOptions {
  /// Base run configuration. The checker forces threads=0, oracle and
  /// max_host_seconds=0 for exploration runs
  /// (a per-run wall budget is schedule-nondeterministic; the exploration
  /// wall budget below bounds total time instead). mode must be
  /// kDirectExec or kAnalytical: kMeasured's seeded noise and NIC
  /// contention state are order-dependent by design, so digest
  /// invariance does not hold there and is not a checkable claim.
  harness::RunConfig base;

  std::uint64_t max_schedules = 256;
  std::size_t max_depth = 0;        ///< 0 = unlimited
  double max_host_seconds = 20.0;   ///< whole-exploration wall budget
  bool use_dpor = true;
  bool keep_going = false;  ///< record all divergences, not just the first

  /// Threaded cross-check: run the threaded scheduler with this many
  /// workers under `trials` seeded drain-order permutations and require
  /// the canonical digest each time. 0 workers skips the cross-check.
  int threaded_workers = 2;
  int threaded_trials = 4;
  std::uint64_t drain_seed = 1;
};

struct Divergence {
  enum class Kind {
    kDigest,           ///< explored schedule committed a different digest
    kStatus,           ///< different terminal status than canonical
    kDeadlockReport,   ///< deadlocked, but with a different blocked set
    kThreadedDigest,   ///< threaded drain-permutation trial diverged
  };

  Kind kind = Kind::kDigest;
  std::string description;  ///< first differing fields, human-readable
  /// The committed schedule (empty for threaded trials, which are
  /// identified by drain_seed/workers instead).
  std::vector<simk::ChoiceOption> schedule;
  std::uint64_t drain_seed = 0;  ///< kThreadedDigest only
  int workers = 0;               ///< kThreadedDigest only
  harness::RunOutcome observed;
};

const char* divergence_kind_name(Divergence::Kind k);

struct CheckReport {
  /// Non-empty when the check could not run at all (canonical run ended
  /// in a status other than ok/deadlock, unsupported mode, ...). The CLI
  /// maps this to the internal-error exit code.
  std::string error;

  harness::RunOutcome canonical;  ///< plain sequential run, no oracle
  std::string canonical_digest;
  bool used_wildcard_recv = false;
  ExploreStats stats;
  std::uint64_t distinct_schedule_digests = 0;
  int threaded_trials_run = 0;
  std::vector<Divergence> divergences;

  bool ok() const { return error.empty() && divergences.empty(); }
};

/// Runs the full check. Never throws for target-program conditions; setup
/// errors are reported via CheckReport::error.
CheckReport check_program(const ir::Program& prog, const CheckOptions& opts);

/// Serializes one divergence into the counterexample envelope consumed by
/// `stgsim check --replay` (DESIGN.md §13). `spec` is the CLI's RunSpec
/// document (app + options) so the replay can rebuild the identical run;
/// pass a null Value if unavailable.
json::Value counterexample_to_json(const Divergence& d,
                                   const CheckReport& report,
                                   const json::Value& spec);

}  // namespace stgsim::mc
