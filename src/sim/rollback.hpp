// Per-process state log for the optimistic (Time Warp) scheduler mode.
//
// The optimistic mode does not snapshot fiber stacks (incompatible with
// sanitizers and with RAII state living on the stack). Instead every
// process keeps a *consumption log* — a copy of every message it has
// matched, in match order (payloads refcount-shared with the pool, not
// cloned) — and rollback is coast-forward replay: the fiber is unwound,
// recreated, and re-executed with its receives fed from the log and its
// sends (already delivered the first time) suppressed. Target bodies are
// deterministic given their rng seed and receive sequence, so replay
// reproduces the pre-rollback state exactly, at which point execution
// continues for real.
//
// Replay starts from the newest *checkpoint* at-or-before the rollback
// point, not from rank start. A checkpoint pairs the engine's replay
// cursors (consume cursor, send ordinal, clock, rng state, per-dst seq
// counters) with an opaque blob the application layer serialized at a
// quiescent statement boundary (no pending requests); restoring the blob
// and replaying consumed[cursor, k) reproduces the state at k. Because
// checkpoints are plain copyable data — unlike fibers — they are an
// inexhaustible rollback supply, which is what makes it sound to *free*
// log entries below the newest GVT-committed checkpoint (fossil pruning):
// no future rollback can target the freed prefix. Peak log memory is
// O(checkpoint interval), not O(history). See DESIGN.md §15.
//
// Only a *saving* process keeps any of this. Every process starts clean:
// it logs nothing, records no send and takes no checkpoint, because only a
// speculative step (an optimistic wildcard commit, or consuming a message
// whose sender was saving) can ever be rolled back. A clean process becomes
// saving at its first speculative step if it has consumed nothing yet (rank
// start is its restore point); otherwise the step waits for the bound, and
// the checkpoint it arms starts the saving (DESIGN.md §15.1).
//
// Logs per process:
//  * consumed — ConsumedEntry per matched message (the replay feed),
//    indexed by *absolute* cursor i as consumed[i - consumed_base]; fossil
//    pruning advances consumed_base to a committed checkpoint's cursor.
//  * checkpoints — restore points, cursor-ordered. Rollback to k pops
//    checkpoints with cursor > k and restores from the new back (or falls
//    back to replay-from-zero while no checkpoint exists yet).
//  * sends — SendRecord per delivered send, so speculative output past a
//    rollback point can be cancelled with anti-messages. Fossil-collected
//    up to GVT (a committed send can never need an anti).
//  * records — WildcardRecord per *speculative* wildcard commit still
//    inside the rollback horizon. A message arriving later that such a
//    record would have preferred (earlier (arrival, src)) is a causality
//    violation and triggers rollback. GVT finalizes records (erases them)
//    once no earlier-timestamped message can still appear.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "support/vtime.hpp"

namespace stgsim::simk {

/// One consumed (matched) message: a copy (payload refcount-shared with
/// the engine's pool) plus the send ordinal the consumer had reached,
/// which tells rollback which sends were issued before / after this match.
struct ConsumedEntry {
  Message msg;
  std::uint64_t sends_before = 0;  ///< send_ordinal at match time
};

/// A restore point: the engine-side cursors plus the application layer's
/// opaque state blob, captured at a quiescent statement boundary after the
/// consume cursor reached `cursor`. Copyable by design — restoring never
/// consumes the checkpoint, so one checkpoint services any number of
/// rollbacks.
struct Checkpoint {
  std::uint64_t cursor = 0;        ///< absolute consume cursor at capture
  std::uint64_t send_ordinal = 0;  ///< absolute send ordinal at capture
  VTime clock = 0;                 ///< process virtual clock at capture
  std::array<std::uint64_t, 4> rng{};  ///< xoshiro256** state
  /// Per-destination next message sequence numbers (flat map, as kept by
  /// the process). Suppressed replay sends still consume seqs, so these
  /// must be restored, not recomputed.
  std::vector<std::pair<int, std::uint64_t>> next_seq;
  /// Application-layer state (smpi counters, rank stats, obs shard,
  /// interpreter frame/arrays/position), serialized by the app layer. The
  /// engine treats it as opaque bytes.
  std::vector<std::uint8_t> app_blob;

  std::size_t bytes() const {
    return sizeof(Checkpoint) + next_seq.capacity() * sizeof(next_seq[0]) +
           app_blob.capacity();
  }
};

/// One delivered send, identified at the receiver by (sender rank, seq).
struct SendRecord {
  int dst = -1;
  std::uint64_t seq = 0;
  VTime sent_at = 0;
  VTime arrival = 0;
};

/// A wildcard commit that is still speculative: the receive chose the
/// earliest-(arrival, src) candidate *queued at the time*, but a slower
/// rank may still produce an earlier one. Self-contained copy of the
/// matching rule (waitany alternatives deep-copied into `alts`, so the
/// record never dangles into a fiber stack).
struct WildcardRecord {
  std::vector<MatchSpec> alts;  ///< non-empty iff the spec was a union
  MatchSpec spec;               ///< used when alts is empty
  VTime arrival = 0;            ///< committed candidate's arrival
  int src = -1;                 ///< committed candidate's source
  std::uint64_t consumed_index = 0;  ///< index into OptState::consumed

  bool accepts(const Message& m) const {
    if (!alts.empty()) {
      for (const MatchSpec& a : alts) {
        if (a.accepts(m)) return true;
      }
      return false;
    }
    return spec.accepts(m);
  }
};

/// All optimistic-mode state of one process. Empty/inert unless
/// EngineConfig::optimistic is set.
struct OptState {
  std::uint64_t rng_seed = 0;  ///< per-rank seed, reapplied on rollback

  /// Keeps the logs below; permanent once set. A clean process only counts
  /// its consumptions (in consumed_base) and its sends (send_ordinal).
  bool saving = false;
  /// A promotion admitted the clean process's parked speculative step: the
  /// fiber takes it on resume without reading the bound again.
  bool admitted = false;

  // Consumption log. Absolute cursor i lives at consumed[i - consumed_base];
  // fossil pruning frees the front and advances consumed_base (only ever to
  // a committed checkpoint's cursor, so every reachable rollback target
  // stays replayable).
  std::vector<ConsumedEntry> consumed;
  std::uint64_t consumed_base = 0;

  // Checkpoints, cursor-ordered (strictly increasing). Capture is driven
  // by the engine setting checkpoint_due once since_checkpoint reaches
  // EngineConfig::checkpoint_interval; the application layer polls the flag
  // at statement boundaries and calls Process::take_checkpoint with its
  // blob.
  std::vector<Checkpoint> checkpoints;
  std::uint64_t since_checkpoint = 0;
  bool checkpoint_due = false;

  // Restore handoff: rollback into a checkpoint copies its blob here and
  // arms the flag; the recreated fiber consumes it at startup instead of
  // initializing fresh state.
  std::vector<std::uint8_t> restore_blob;
  bool restore_armed = false;

  // Send log. sends[i] is the send with ordinal send_base + i;
  // send_ordinal counts sends issued by the *current incarnation* of the
  // fiber (reset to 0 on rollback). During replay, sends with ordinal <
  // suppress_below were already delivered and are dropped (after a
  // consistency check against the log).
  std::vector<SendRecord> sends;
  std::uint64_t send_base = 0;
  std::uint64_t send_ordinal = 0;
  std::uint64_t suppress_below = 0;

  std::vector<WildcardRecord> records;

  // Replay feed: absolute cursors [replay_next, replay_limit) are handed
  // to the re-executing fiber in order; replay is over when they meet.
  // replay_next starts at the restored checkpoint's cursor (0 if none).
  std::uint64_t replay_next = 0;
  std::uint64_t replay_limit = 0;

  // Fiber lifecycle. A rollback discovered from scheduler or another
  // fiber's context cannot unwind the victim's fiber in place (fiber
  // switches only happen from scheduler context): pending_unwind defers
  // the unwind + recreation to the next resume. rollback_abort makes the
  // old fiber throw FiberAborted at its suspended yield point. fresh is
  // true while the attached fiber has never run (nothing to unwind).
  bool pending_unwind = false;
  bool rollback_abort = false;
  bool fresh = true;

  // Fossil-collection cursor: first absolute consumed index whose arrival
  // has not passed GVT yet (send-log pruning point, and upper bound for
  // log pruning). Monotone except on rollback. Invariant: consumed_base <=
  // fossil_cursor <= every future rollback target.
  std::uint64_t fossil_cursor = 0;

  bool replaying() const { return replay_next < replay_limit; }

  /// Absolute consume cursor: the index the *next* match will occupy.
  std::uint64_t cursor() const {
    return replaying() ? replay_next : consumed_base + consumed.size();
  }

  /// Log entry at absolute cursor i.
  ConsumedEntry& entry(std::uint64_t i) {
    return consumed[static_cast<std::size_t>(i - consumed_base)];
  }
  const ConsumedEntry& entry(std::uint64_t i) const {
    return consumed[static_cast<std::size_t>(i - consumed_base)];
  }
};

}  // namespace stgsim::simk
