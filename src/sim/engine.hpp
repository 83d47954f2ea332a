// Process-oriented parallel discrete-event simulation kernel.
//
// This is our reimplementation of the MPI-Sim substrate (paper §2.1): every
// target process is a fiber with its own virtual clock; local computation
// advances the clock without context switches; communication is exchanged
// as timestamped messages. Because target programs are deterministic and
// receive completion uses max(local clock, arrival time), simulation
// results are independent of the order in which processes are scheduled —
// the property direct-execution simulators rely on. Wildcard receives are
// the exception and are guarded by a conservative safety bound.
//
// One driver decides which process runs next: rounds of
// run_partition_round over EngineConfig::host_workers workers, separated by
// barriers. Processes are partitioned over the workers; each round's pick
// step is one of three pickers:
//  * Heap (one worker, no oracle): the worker's ready heap, lowest clock
//    first, inline on the caller's thread. Clocks cannot race, so wildcard
//    receives are checked against the safety bound mid-slice and the run
//    can record a *slice trace* (host-time cost of every execution slice
//    and the message dependencies between slices). Replaying the trace
//    under a k-worker list schedule (replay_host_trace) predicts the
//    wall-clock on k host processors, as the paper's Figs. 14-16 measure
//    MPI-Sim on a parallel host.
//  * Oracle (EngineConfig::oracle with one worker, MC mode): a
//    ScheduleOracle picks every resume, in-flight lane delivery and
//    wildcard tie.
//  * Partition round (several workers): threads of a persistent pool, each
//    popping its own heap lowest-clock-first. Every cross-partition
//    message rides an unbounded SPSC lane that its destination worker
//    drains between slices, so it is consumed mid-round. Deterministic
//    receives complete at max(clock, arrival) on per-source FIFO
//    channels, so host delivery order cannot change them; wildcard
//    receives park until the round barrier, where they are promoted
//    against the safety bound. Results stay bit-identical to one worker.
//    See DESIGN.md §10 for the protocol and its safety argument.
// Every picker runs either protocol: conservative (wildcard receives wait
// for the safety bound) or optimistic (Time Warp, EngineConfig::optimistic:
// processes execute speculatively past the safe bound; causality
// violations trigger rollback via coast-forward replay from a per-process
// consumption log (sim/rollback.hpp), speculative output is cancelled with
// anti-messages, and periodic GVT passes fossil-collect the logs).
// Committed results are bit-identical across pickers, worker counts and
// protocols. See DESIGN.md §15.
//
// Hot-path data structures (all per-engine, no global state):
//  * runnable processes sit in an IndexedMinHeap keyed by virtual clock;
//  * each process's inbox is a flat vector of per-source channels holding
//    intrusively-linked nodes from a shared ObjectArena<Message>;
//  * direct-execution payloads live in a size-classed PayloadPool.
// All three recycle storage, so steady-state simulation performs no heap
// allocation per message.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/mailbox.hpp"
#include "sim/message.hpp"
#include "sim/pool.hpp"
#include "sim/rollback.hpp"
#include "support/check.hpp"
#include "support/indexed_heap.hpp"
#include "support/memtrack.hpp"
#include "support/rng.hpp"
#include "support/vtime.hpp"

namespace stgsim::simk {

/// Instrumentation hooks the engine invokes on scheduling and messaging
/// events. All methods have empty default bodies; the engine calls them
/// only when an observer is installed (EngineConfig::observer), so the
/// disabled path costs a single predictable branch per event.
///
/// Threading contract: callbacks carrying a `rank` are invoked either on
/// the worker thread that owns that rank's partition or on the scheduler
/// thread between rounds — never from two threads at once for the same
/// rank. An implementation that shards its state per rank therefore needs
/// no locks. `on_send` runs on the *sender's* context and should shard by
/// `m.src`.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// A process slice begins: `rank` is resumed at virtual time `clock`.
  virtual void on_resume(int rank, VTime clock) {
    (void)rank; (void)clock;
  }
  /// `rank` blocks at `clock` waiting for a message matching `spec`.
  virtual void on_block(int rank, VTime clock, const MatchSpec& spec) {
    (void)rank; (void)clock; (void)spec;
  }
  /// A delivery (or wildcard safety-bound promotion) wakes `rank`; the
  /// waking message arrives at `arrival` (kVTimeNever when unknown).
  virtual void on_wake(int rank, VTime clock, VTime arrival) {
    (void)rank; (void)clock; (void)arrival;
  }
  /// A message was handed to the engine for delivery.
  virtual void on_send(const Message& m) { (void)m; }
  /// One matching attempt by `rank`: `probes` queued messages were
  /// inspected; `hit` says whether one was removed.
  virtual void on_match(int rank, std::uint64_t probes, bool hit) {
    (void)rank; (void)probes; (void)hit;
  }
};

/// One schedulable step at an engine choice point, exposed to a
/// ScheduleOracle when the engine runs under model-checking control.
/// Options are labels, not indices: a schedule replayed against a fresh
/// engine run matches options by value, so a recorded prefix stays valid
/// as long as the engine is deterministic up to the controlled choices.
struct ChoiceOption {
  enum class Kind : std::uint8_t {
    kResume,    ///< resume ready process `rank`
    kDeliver,   ///< deliver the head of in-flight lane `src` -> `dst`
    kWildcard,  ///< stuck-promotion tie: wake parked wildcard `rank`
  };

  Kind kind = Kind::kResume;
  int rank = -1;  ///< kResume / kWildcard
  int src = -1;   ///< kDeliver
  int dst = -1;   ///< kDeliver
  int tag = 0;    ///< kDeliver: user tag of the lane-head message

  bool operator==(const ChoiceOption& o) const {
    return kind == o.kind && rank == o.rank && src == o.src && dst == o.dst &&
           tag == o.tag;
  }
};

/// Schedule-control hook (EngineConfig::oracle). With an oracle installed
/// and one host worker, the engine runs in MC mode: sends are buffered in
/// per-(src,dst) FIFO lanes instead of landing in the destination inbox
/// immediately, and every nondeterministic choice — which ready rank runs
/// next, which lane delivers its head message, which of several tied
/// parked wildcards is promoted first — is routed through choose(). With
/// several host workers only the mailbox drain
/// order is exposed (permute_drain_order); simulated results must not
/// depend on it, which is exactly what a checker perturbs it to prove.
class ScheduleOracle {
 public:
  virtual ~ScheduleOracle() = default;

  /// Picks one of `options` (never empty); must return an index < size.
  /// May throw to abandon the run: the engine tears fibers down cleanly
  /// and rethrows the exception out of Engine::run().
  virtual std::size_t choose(const std::vector<ChoiceOption>& options) = 0;

  /// Threaded scheduler: may reorder `from_workers`, the order in which
  /// `worker` drains its incoming mailboxes. Must remain a permutation.
  /// Called concurrently from worker threads — implementations shard or
  /// synchronize their own state.
  virtual void permute_drain_order(int worker,
                                   std::vector<int>& from_workers) {
    (void)worker;
    (void)from_workers;
  }
};

class Engine;

/// Queued-message node; lives in the engine's ObjectArena.
using MsgNode = ObjectArena<Message>::Node;

/// Handle a target-process body uses to interact with the simulation.
class Process {
 public:
  ~Process();

  int rank() const { return rank_; }
  int world_size() const;

  VTime now() const { return clock_; }

  /// Charges `dt` of local computation to this process's virtual clock.
  /// Enforces the virtual-time budget and (periodically) the host
  /// wall-clock watchdog. Defined after Engine.
  void advance(VTime dt);

  /// clock = max(clock, t); used for receive/transfer completions.
  /// Enforces the virtual-time budget. Defined after Engine.
  void lift_clock(VTime t);

  /// Sends a message. msg.src must equal rank(); seq is assigned here.
  void send(Message msg);

  /// Copies `n` bytes into a buffer from the engine's payload pool (the
  /// allocation-free path for direct-execution sends).
  PayloadBuf make_payload(const void* data, std::size_t n);

  /// Non-blocking probe-and-remove: returns true and fills *out if a
  /// message matching `spec` is available now.
  bool try_match(const MatchSpec& spec, Message* out);

  /// Non-destructive probe: reports whether a matching message is
  /// available and, if so, its arrival time (for earliest-completion
  /// selection among several candidates, e.g. waitany).
  bool peek_match(const MatchSpec& spec, VTime* arrival) const;

  /// Blocks until a matching message is available, removes and returns it.
  /// Receive *completion time* is the caller's business (lift_clock).
  Message blocking_match(const MatchSpec& spec);

  /// Deterministic per-process random stream.
  Rng& rng() { return rng_; }

  // --- Optimistic-mode checkpoint handshake (no-ops under conservative
  // runs). The engine decides *when* a checkpoint is due (every
  // checkpoint_interval committed consumptions); the application layer
  // decides *where* it is safe (a quiescent statement boundary with no
  // pending requests) and what goes in the blob. See DESIGN.md §15.

  /// True when the engine wants a checkpoint. Poll at safe boundaries.
  bool checkpoint_due() const { return opt_.checkpoint_due; }
  /// Captures a restore point: engine cursors + the caller's state blob.
  /// Call only from this process's own fiber, with no pending requests.
  void take_checkpoint(std::vector<std::uint8_t> app_blob);
  /// Non-null when this fiber incarnation must restore from a checkpoint
  /// blob instead of initializing fresh state (set by rollback, consumed
  /// once at body startup via clear_pending_restore).
  const std::vector<std::uint8_t>* pending_restore() const {
    return opt_.restore_armed ? &opt_.restore_blob : nullptr;
  }
  void clear_pending_restore() {
    opt_.restore_armed = false;
    opt_.restore_blob.clear();
    opt_.restore_blob.shrink_to_fit();
  }

  /// Tracker charged for this run's simulated program data.
  MemoryTracker& memory();

  Engine& engine() { return *engine_; }

  /// Slot for the layer above (smpi::Comm) to attach its state.
  void* user = nullptr;

 private:
  friend class Engine;

  /// One FIFO of queued messages from a single source. Three words when
  /// empty; nodes come from the engine's arena, so inbox overhead is
  /// bounded by peak in-flight messages, not message churn.
  struct Channel {
    int src = -1;
    MsgNode* head = nullptr;
    MsgNode* tail = nullptr;
  };

  Channel* find_channel(int src) {
    for (auto& ch : channels_) {
      if (ch.src == src) return &ch;
    }
    return nullptr;
  }
  const Channel* find_channel(int src) const {
    for (const auto& ch : channels_) {
      if (ch.src == src) return &ch;
    }
    return nullptr;
  }
  Channel& channel(int src) {
    if (Channel* ch = find_channel(src)) return *ch;
    channels_.push_back(Channel{src, nullptr, nullptr});
    return channels_.back();
  }
  /// Removes `node` from `ch`; `prev` is its predecessor (null at the
  /// head). The caller takes the node back to the arena.
  void unlink(Channel& ch, MsgNode* node, MsgNode* prev) {
    if (prev != nullptr) {
      prev->next = node->next;
    } else {
      ch.head = node->next;
    }
    if (ch.tail == node) ch.tail = prev;
    --inbox_size_;
  }

  /// Next outgoing seq for `dst` (flat map: senders talk to few peers).
  std::uint64_t next_seq_for(int dst) {
    for (auto& e : next_seq_) {
      if (e.first == dst) return e.second++;
    }
    next_seq_.push_back({dst, 1});
    return 0;
  }

  /// How many advance() calls between host wall-clock watchdog probes
  /// (clock_gettime per charge would be measurable on hot loops).
  static constexpr int kWatchdogStride = 4096;

  Engine* engine_ = nullptr;
  int rank_ = -1;
  VTime clock_ = 0;
  VTime vtime_budget_ = kVTimeNever;  ///< from EngineConfig.max_virtual_time
  int watchdog_countdown_ = kWatchdogStride;
  Rng rng_;

  std::unique_ptr<Fiber> fiber_;
  OptState opt_;  ///< optimistic-mode logs; inert under conservative runs
  bool finished_ = false;
  bool blocked_ = false;
  const MatchSpec* waiting_on_ = nullptr;  // valid while blocked_
  bool wildcard_parked_ = false;  ///< blocked wildcard with an unsafe match
  int home_worker_ = 0;

  // Inbox: per-source channels in send (seq) order. Channel order is
  // first-delivery order; all cross-channel choices use explicit
  // (arrival, src) tie-breaks, so iteration order never affects results.
  std::vector<Channel> channels_;
  std::uint64_t inbox_size_ = 0;

  // Next seq per destination for outgoing messages.
  std::vector<std::pair<int, std::uint64_t>> next_seq_;

  // Host-trace state: current slice id and its start instant.
  std::uint64_t current_slice_ = 0;
  double slice_begin_sec_ = 0.0;
  double resume_ready_sec_ = 0.0;  // host_avail of the message that woke us
};

/// One execution slice in the host trace: process `lp` ran for
/// `duration_sec` of host time; it could not start before its dependencies
/// (send points inside earlier slices) were produced.
struct Slice {
  int lp = 0;
  double duration_sec = 0.0;
  /// (producer slice index, host-time offset of the send within it,
  ///  producer lp) for every message consumed to unblock/feed this slice.
  struct Dep {
    std::uint64_t slice;
    double offset_sec;
    int producer_lp;
  };
  std::vector<Dep> deps;
};

/// Knobs for replaying a slice trace on an emulated parallel host.
struct HostModel {
  double per_slice_overhead_sec = 0.4e-6;   ///< scheduler/context switch
  double cross_worker_msg_sec = 3.0e-6;     ///< remote delivery overhead

  /// Multiplier applied to measured slice durations (and send offsets):
  /// set to the target-era slowdown to model the simulator running on the
  /// same machine generation it predicts, as the paper's did.
  double duration_scale = 1.0;
};

/// Test-only fault injections (`stgsim check --inject`): each plants a
/// known protocol race for the schedule checker to rediscover. Never set
/// outside tests and CI.
enum class Inject {
  kNone,
  /// Conservative scheduler: wildcard receives commit to the first
  /// matching message on sight, skipping the safety bound (the pre-fix
  /// racy behavior).
  kUnsafeWildcard,
  /// Optimistic scheduler: wildcard commits are finalized immediately
  /// instead of being tracked until GVT passes them, so stragglers never
  /// trigger the rollback that would correct the commit.
  kCommitBeforeGvt,
};

struct EngineConfig {
  int num_processes = 1;

  /// Workers of the partition-round driver. 1 runs inline on the caller's
  /// thread; more run on a thread pool, in rounds separated by barriers.
  int host_workers = 1;

  /// rank -> worker map for the partition-round driver (from
  /// simk::make_partition or custom). Empty means the historical block
  /// partition. Size must equal num_processes; values in
  /// [0, host_workers). Never affects simulated results — only which
  /// thread executes each rank.
  std::vector<int> partition;

  std::size_t fiber_stack_bytes = 256 * 1024;
  std::size_t memory_cap_bytes = 0;  ///< 0 = uncapped
  std::uint64_t seed = 0x5eedULL;

  /// Record the slice trace (one host worker, conservative, no oracle).
  bool record_host_trace = false;

  /// Instrumentation sink (not owned; must outlive the engine). Null
  /// disables all observer callbacks at the cost of one branch per event.
  EngineObserver* observer = nullptr;

  /// Schedule-control hook (not owned; must outlive the engine). With one
  /// host worker this switches the engine into MC mode: the oracle makes
  /// the pick step of the partition round (see ScheduleOracle). With
  /// several it only perturbs the mailbox drain order. Incompatible with
  /// record_host_trace.
  ScheduleOracle* oracle = nullptr;

  /// Test-only protocol race to plant (kUnsafeWildcard needs the
  /// conservative scheduler, kCommitBeforeGvt the optimistic one).
  Inject inject = Inject::kNone;

  /// Optimistic (Time Warp) scheduler mode: processes execute
  /// speculatively past the conservative safety bound; a straggler or
  /// anti-message arriving in a process's past triggers rollback
  /// (coast-forward replay from the consumption log, see sim/rollback.hpp)
  /// and anti-messages for its speculative output; periodic GVT passes
  /// drive fossil collection. Committed results are bit-identical to the
  /// conservative protocol. Works under every picker and every worker
  /// count. Incompatible with record_host_trace.
  bool optimistic = false;

  /// Optimistic mode: scheduler iterations between exact GVT / fossil
  /// passes (one-worker runs, oracle-driven ones included). The baseline
  /// is max(this, process count); the engine then retunes it from
  /// consumption-log pressure.
  std::uint64_t gvt_interval = 256;

  /// Optimistic mode: committed consumptions between per-rank checkpoints
  /// (engine cursors + an app-layer state blob, see sim/rollback.hpp).
  /// Checkpoints bound both rollback cost (coast-forward replays at most
  /// ~interval entries) and log memory (fossil collection frees entries
  /// below the newest GVT-committed checkpoint). 0 disables checkpointing:
  /// replay-from-zero, unbounded log — the pre-checkpoint behavior.
  std::uint64_t checkpoint_interval = 64;

  /// Auto-tune the per-rank checkpoint interval from observed rollbacks:
  /// halve it (floor 1) when a rank rolls back, grow it (cap 8x the
  /// configured value) after long rollback-free stretches. Never affects
  /// committed results — only where restore points sit.
  bool checkpoint_adaptive = true;

  /// Optimistic mode: bound on speculation depth. A ready rank whose clock
  /// is more than this far past GVT sits out the rest of its round
  /// (rollback-storm damper). 0 = unbounded speculation. Applied only with
  /// host_workers > 1: one worker (MC included) never rolls back.
  VTime speculation_window = 0;

  // Run budgets (0 = unlimited). When a budget is exceeded the run is torn
  // down cleanly and BudgetExceededError is thrown, so a pathological
  // target program (unbounded loop, livelocked protocol) terminates with a
  // diagnosis instead of spinning forever.
  VTime max_virtual_time = 0;       ///< cap on any process's virtual clock
  std::uint64_t max_messages = 0;   ///< cap on delivered messages
  double max_host_seconds = 0.0;    ///< cap on real wall-clock for the run
};

/// Counters describing one run; the round, message and per-worker fields
/// stay empty with one worker. Message counts are deterministic for a
/// fixed partition and fault plan; `rounds` and the mailbox/barrier split
/// depend on host timing (a message races the end of the round it was
/// sent in) — they are excluded from run digests.
struct ParallelStats {
  std::uint64_t rounds = 0;
  std::uint64_t intra_messages = 0;  ///< both endpoints on one worker
  /// Cross-partition messages drained by their destination worker during
  /// a round.
  std::uint64_t mailbox_messages = 0;
  /// Cross-partition messages left in a lane for the scheduler's barrier
  /// drain (pushed after their destination worker left the round).
  std::uint64_t barrier_messages = 0;

  std::uint64_t cross_messages() const {
    return mailbox_messages + barrier_messages;
  }

  /// Bucket k>0 counts rounds whose minimum unfinished clock advanced by
  /// [2^(k-1), 2^k) ns since the previous round; bucket 0 counts
  /// zero-advance rounds. Published as `window_advance_hist`, its
  /// historical name, in the run-outcome JSON.
  std::vector<std::uint64_t> window_advance_hist;

  /// Per-worker virtual time spent executing slices (sum over executed
  /// slices of the resumed rank's clock delta) and slice counts.
  std::vector<VTime> worker_busy_vtime;
  std::vector<std::uint64_t> worker_slices;

  // Optimistic-mode counters (all zero under the conservative protocol).
  // Deterministic with one worker; with several, rollback/anti counts
  // depend on host timing. Excluded from run digests either way.
  std::uint64_t rollbacks = 0;         ///< causality-violation rollbacks
  std::uint64_t anti_messages = 0;     ///< anti-messages sent
  std::uint64_t gvt_passes = 0;        ///< GVT computations that advanced
  std::uint64_t fossil_finalized = 0;  ///< wildcard records finalized
  std::uint64_t checkpoints_taken = 0; ///< restore points captured
  std::uint64_t replayed_events = 0;   ///< log entries re-fed by rollbacks
  std::uint64_t log_bytes_peak = 0;    ///< peak consumption-log bytes

  /// Bucket k>0 counts rollbacks that discarded [2^(k-1), 2^k) consumed
  /// entries; bucket 0 counts rollbacks that discarded none (pure send
  /// cancellation / annihilated-head cases).
  std::vector<std::uint64_t> rollback_depth_hist;
};

struct RunResult {
  VTime completion = 0;  ///< max over ranks of virtual finish time
  std::vector<VTime> per_rank_completion;

  double host_seconds = 0.0;  ///< real wall-clock of this simulation run
  std::uint64_t messages_delivered = 0;
  std::uint64_t slices = 0;
  std::size_t peak_target_bytes = 0;
  std::size_t final_target_bytes = 0;
};

/// Thrown when every unfinished process is blocked and nothing can match.
/// Carries a structured snapshot of every blocked rank (its virtual clock
/// and the MatchSpec it is waiting on) for programmatic inspection.
class DeadlockError : public std::runtime_error {
 public:
  struct BlockedRank {
    int rank = -1;
    VTime clock = 0;
    int waiting_src = -2;  ///< MatchSpec::kAnySource for wildcard; -2 none
    int waiting_tag = -1;
    std::string waiting_what;  ///< MatchSpec::what, e.g. "recv"
    int home_worker = 0;  ///< owning partition (0 with one worker)
  };

  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
  DeadlockError(const std::string& what, std::vector<BlockedRank> blocked)
      : std::runtime_error(what), blocked_(std::move(blocked)) {}

  const std::vector<BlockedRank>& blocked() const { return blocked_; }

 private:
  std::vector<BlockedRank> blocked_;
};

/// Thrown when a run budget (EngineConfig::max_*) is exceeded.
class BudgetExceededError : public std::runtime_error {
 public:
  enum class Kind { kVirtualTime, kMessages, kHostWallClock };

  BudgetExceededError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

inline const char* budget_kind_name(BudgetExceededError::Kind k) {
  switch (k) {
    case BudgetExceededError::Kind::kVirtualTime: return "virtual time";
    case BudgetExceededError::Kind::kMessages: return "delivered messages";
    case BudgetExceededError::Kind::kHostWallClock: return "host wall clock";
  }
  return "unknown";
}

/// Thrown *inside* target-process fibers when the run is being torn down
/// (another process failed, or a deadlock was detected); it unwinds the
/// fiber stack so RAII state (arrays, inboxes) is released. Target code
/// must not swallow it.
struct FiberAborted {};

class Engine {
 public:
  using ProcessBody = std::function<void(Process&)>;

  explicit Engine(EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The body every process runs (rank via Process::rank()).
  void set_body(ProcessBody body) { body_ = std::move(body); }

  /// Optimistic mode: called with a rank just before its fiber is
  /// re-executed after a rollback, so layers above the engine (smpi
  /// per-rank stats, obs shards) can reset state the replay will rebuild.
  /// Like set_body, installed after construction (the harness builds the
  /// world only after the engine exists).
  void set_rollback_reset(std::function<void(int)> fn) {
    rollback_reset_ = std::move(fn);
  }

  /// Runs the simulation to completion. Callable once per Engine.
  RunResult run();

  const EngineConfig& config() const { return config_; }
  MemoryTracker& memory() { return memory_; }

  /// Recorded slice trace (empty unless config.record_host_trace).
  const std::vector<Slice>& host_trace() const { return trace_; }

  /// Lower bound on the arrival time of any message that could still be
  /// sent: min over unfinished processes of their clock, plus
  /// `min_latency`. `exclude_rank` (when >= 0) is left out of the scan —
  /// pass the blocked receiver itself, which cannot send while it waits.
  VTime wildcard_safe_bound(VTime min_latency, int exclude_rank = -1) const;

  /// Minimum over-the-wire latency used in the wildcard safety bound.
  /// Zero (the default) is always conservative-correct but forces every
  /// contested wildcard receive through the stuck-promotion slow path;
  /// the smpi layer sets it to Network::min_latency().
  void set_wildcard_min_latency(VTime min_latency) {
    wildcard_min_latency_.store(min_latency, std::memory_order_relaxed);
  }

  /// True when a wildcard receive by `p` may commit to a queued message
  /// arriving at `arrival`: no other unfinished process can still produce
  /// an earlier-arriving match. Always false during a threaded round
  /// (other ranks' clocks are racing); such receives park and are
  /// promoted at the barrier.
  bool wildcard_commit_safe(const Process& p, VTime arrival) const;

  /// Pool/arena accounting — simulator overhead, distinct from the
  /// MemoryTracker's target-visible bytes. Capacity is bounded by peak
  /// in-flight demand, never by total message churn.
  PayloadPool::Stats payload_stats() { return payload_pool_.stats(); }
  ObjectArena<Message>::Stats arena_stats() { return msg_arena_.stats(); }

  /// Round, message and Time Warp counters (see ParallelStats). Valid once
  /// run() returned.
  const ParallelStats& parallel_stats() const { return pstats_; }

  /// Test hook: optimistic log/checkpoint geometry of one rank, for
  /// asserting the fossil-pruning invariant (no entry below the newest
  /// GVT-committed checkpoint survives collection).
  struct OptDebug {
    std::uint64_t consumed_base = 0;
    std::uint64_t consumed_size = 0;
    std::uint64_t fossil_cursor = 0;
    std::uint64_t log_bytes = 0;
    std::vector<std::uint64_t> checkpoint_cursors;
  };
  OptDebug opt_debug(int rank) const;

  /// True once any wildcard receive (ANY_SOURCE / waitany union) was
  /// attempted this run. A schedule checker uses this to decide whether
  /// deliveries into one inbox from distinct sources commute.
  bool saw_wildcard_recv() const {
    return saw_wildcard_recv_.load(std::memory_order_relaxed);
  }

 private:
  friend class Process;

  struct WorkerStat;  // defined below (used by opt_stat)

  /// Routes a message to its destination. During a threaded round a
  /// cross-partition message goes to the lane toward its destination
  /// worker; otherwise it is inserted into the destination inbox directly
  /// (in MC mode, into its in-flight lane).
  void deliver(Message&& msg);
  /// The direct-insert tail of deliver(): channel insert, message budget,
  /// wake-or-park. In MC mode deliver() buffers into an in-flight lane
  /// instead and oracle_pick calls this when the oracle picks the lane.
  void deliver_now(Message&& msg);
  /// Queues `m` in its channel of `p`'s inbox in seq order: a tail append
  /// unless a Time Warp rollback requeued higher-seq messages (under the
  /// conservative protocol, anything but an append is a FIFO violation).
  MsgNode* insert_sorted(Process& p, Message&& m);
  /// oracle->choose() with its range check. An oracle exception unwinds
  /// the fibers through run_rounds like any other round error.
  std::size_t oracle_choose(const std::vector<ChoiceOption>& options);
  /// The MC-mode pick step of run_partition_round: offers every rank in
  /// `heap` and every in-flight lane head to the oracle. A resume removes
  /// the rank from `heap` and returns it; a delivery hands the lane head
  /// to deliver_now and returns -1. See DESIGN.md §13 for the choice-point
  /// model.
  int oracle_pick(IndexedMinHeap<VTime>& heap);
  /// Partition-round driver: runs rounds of run_partition_round (inline
  /// with one worker, on a WorkerPool otherwise) separated by barriers
  /// that drain the lanes, promote wildcards and pass GVT.
  void run_rounds();
  /// One round of worker `w`: execute the partition, draining incoming
  /// mailboxes between slices, until no local work remains and the round
  /// is quiescing.
  void run_partition_round(int worker);
  /// Pops every queued message from `worker`'s incoming lanes and hands it
  /// to deliver_now. Returns how many it delivered.
  std::uint64_t drain_mailboxes(int worker);
  void resume_process(Process& p);
  [[noreturn]] void raise_deadlock();

  /// Unblocks `p` and queues it on its worker's ready list. `arrival` is
  /// the waking message's arrival time (for the observer).
  void wake_process(Process& p, VTime arrival);
  /// Queues `p` on its worker's ready list (the round moves it into its
  /// heap), without wake_process's unblock/observer step.
  void make_ready(Process& p);

  // --- Optimistic (Time Warp) mode; see DESIGN.md §15 ---

  /// (Re)creates `p`'s fiber around body_; used at startup and after a
  /// rollback unwound the speculative incarnation.
  void attach_fresh_fiber(Process& p);
  /// Copy for the consumption log: fields copied, payload refcount-shared
  /// with the pool (PayloadBuf::share) — no byte copy.
  Message clone_message(const Message& m);
  /// Replay feed: hands `p` the next logged consumption instead of
  /// touching the inbox. Called from try_match while p is replaying.
  bool opt_feed_replay(Process& p, const MatchSpec& spec, Message* out);
  /// Records a speculative wildcard commit (called from blocking_match).
  void opt_record_wildcard(Process& p, const MatchSpec& spec,
                           const Message& m);
  /// Straggler check for a just-queued message: if any live wildcard
  /// record of `dst` would have preferred it, rolls `dst` back to the
  /// earliest violated commit. Returns true if a rollback happened.
  bool opt_check_violation(Process& dst, const MsgNode* node);
  /// Annihilates `anti`'s positive counterpart: unlinks it from the inbox,
  /// or rolls `dst` back past its consumption.
  void opt_apply_anti(Process& dst, const Message& anti);
  /// Rolls `p` back to consumption index `k`: cancels speculative sends
  /// with anti-messages, requeues consumed messages >= k (dropping entry k
  /// itself when `drop_entry`, i.e. it was annihilated), resets execution
  /// state, and schedules the coast-forward replay.
  void opt_rollback(Process& p, std::uint64_t k, bool drop_entry);
  /// Performs the deferred fiber unwind + recreation scheduled by
  /// opt_rollback (runs at the next resume, from scheduler context).
  void opt_finish_unwind(Process& p);
  /// Drains this context's pending anti-messages iteratively, so a
  /// rollback cascade never recurses deeper than one level per message.
  void opt_flush_antis();
  /// Exact GVT pass for one-worker rounds and the round barrier: min over
  /// unfinished clocks (and MC in-flight lanes), then fossil-collects
  /// every rank.
  void opt_gvt_pass();
  /// Fossil collection for one rank at GVT `g`: finalizes (erases)
  /// wildcard records with arrival < g, prunes the committed send-log
  /// prefix that no future rollback can cancel, and frees consumption-log
  /// entries below the newest checkpoint whose cursor the fossil cursor
  /// has passed (no future rollback can replay below that checkpoint).
  void opt_fossil_rank(Process& p, VTime g);
  /// Bookkeeping after `p` consumed a message (live match or replay feed):
  /// advances the checkpoint countdown, arming checkpoint_due when the
  /// effective interval elapses, and grows the adaptive interval after
  /// long rollback-free stretches.
  void opt_note_consume(Process& p);
  /// Process::take_checkpoint body: captures cursors + blob into
  /// OptState::checkpoints.
  void opt_take_checkpoint(Process& p, std::vector<std::uint8_t> blob);
  /// Consumption-log byte accounting (per-rank current + engine peak).
  void opt_log_charge(Process& p, const Message& m);
  void opt_log_release(Process& p, const Message& m);
  std::uint64_t opt_fold_log_bytes();
  static std::size_t opt_entry_bytes(const Message& m);
  /// True when the optimistic speculation window throttles `p`: a
  /// multi-worker run, `p`'s clock more than config.speculation_window
  /// past GVT, and the previous round made progress
  /// (opt_throttle_override_).
  bool opt_throttled(const Process& p) const;
  /// Re-arms the exact-GVT countdown (one-worker runs): the cadence
  /// shrinks while consumption-log bytes grow and stretches back out
  /// while they shrink (bounds [16, 4x baseline]).
  void opt_retune_gvt();
  /// This thread's worker stat cell (slot 0 outside pool workers).
  WorkerStat& opt_stat();
  /// Records `p` (blocked on a wildcard spec with at least one queued
  /// match) for later safety-bound promotion.
  void park_wildcard(Process& p);
  /// Wakes every parked process whose best queued match has passed the
  /// safety bound. When `stuck` (no process can run, so the queued message
  /// set is final), and no parked process is bound-safe, wakes exactly the
  /// one with the smallest (arrival, rank) — the choice is then exact.
  /// Single-threaded contexts only (one-worker round / round barrier).
  void promote_safe_wildcards(bool stuck);

  /// Raises BudgetExceededError: thrown in place when called from inside a
  /// target fiber (unwinding it through the body wrapper), or routed
  /// through abort_run when called from scheduler context (so suspended
  /// fibers still unwind and release RAII state).
  [[noreturn]] void raise_budget(BudgetExceededError::Kind kind,
                                 const std::string& what);

  /// True when max_host_seconds is set and the run has exceeded it.
  bool host_budget_exhausted() const;

  double now_host_sec() const;

  /// Ends the current slice of `p` and starts a fresh one (trace only).
  void split_slice(Process& p);

  /// Stores the first exception thrown by a process body.
  void note_error(std::exception_ptr e);
  /// Resumes every blocked fiber so it unwinds via FiberAborted, then
  /// rethrows the pending error (or `fallback` if none).
  [[noreturn]] void abort_run(std::exception_ptr fallback);

  EngineConfig config_;
  ProcessBody body_;

  // Pools are declared before procs_ so they outlive the processes whose
  // destructors recycle queued nodes — and payload_pool_ before
  // msg_arena_, whose chunk teardown releases payload buffers.
  PayloadPool payload_pool_;
  ObjectArena<Message> msg_arena_;

  std::vector<std::unique_ptr<Process>> procs_;
  MemoryTracker memory_;

  std::vector<Slice> trace_;
  std::atomic<std::uint64_t> messages_delivered_{0};
  // Per-engine resume count. Not the global Fiber::switch_count(): several
  // engines run concurrently under the campaign job pool, and a shared
  // counter would bleed one run's slices into another's RunResult.
  std::atomic<std::uint64_t> slices_{0};
  bool ran_ = false;

  // Per-worker ready lists (every wake lands on its rank's worker list;
  // the round moves it into the worker's heap) and ready heaps
  // (persistent across rounds; drained within each). threaded_run_ marks
  // a multi-worker run (clocks race); threaded_phase_ marks the part of it
  // where pool workers are executing a round.
  std::vector<std::vector<int>> worker_ready_;
  std::vector<IndexedMinHeap<VTime>> worker_heaps_;
  bool threaded_run_ = false;
  bool threaded_phase_ = false;

  // mailboxes_[w * workers + v] carries messages from worker w to worker
  // v; round_running_ lets an idle worker leave the round as soon as it is
  // the last one that could still produce work.
  std::vector<std::unique_ptr<SpscLane<Message>>> mailboxes_;
  std::atomic<int> round_running_{0};
  std::atomic<bool> has_error_{false};

  // Per-worker protocol counters, padded so workers never share a line.
  struct alignas(64) WorkerStat {
    static constexpr int kDepthBuckets = 24;

    std::uint64_t intra = 0;
    std::uint64_t mailbox = 0;
    std::uint64_t barrier = 0;
    std::uint64_t slices = 0;
    VTime busy_vtime = 0;
    // Optimistic-mode counters (slot 0 with one worker).
    std::uint64_t rollbacks = 0;
    std::uint64_t antis = 0;
    std::uint64_t fossil = 0;
    std::uint64_t replayed = 0;
    std::uint64_t depth_hist[kDepthBuckets] = {};  ///< log2(discarded entries)
  };
  std::vector<WorkerStat> worker_stats_;
  ParallelStats pstats_;

  // Optimistic-mode engine state. Anti-message cascades are queued per
  // context and drained iteratively from deliver_now's tail (flag guards
  // re-entry), so a chain of N cascading rollbacks costs O(1) stack.
  // gvt_ / gvt_passes_ are atomic for the threaded driver's mid-round
  // estimates; the floors/out-mins arrays implement the asynchronous GVT
  // (min of worker clock floors and in-transit mailbox arrivals).
  std::function<void(int)> rollback_reset_;
  std::vector<std::vector<Message>> opt_anti_queues_;
  std::vector<char> opt_flushing_;
  std::atomic<VTime> gvt_{0};
  std::atomic<std::uint64_t> gvt_passes_{0};
  std::unique_ptr<std::atomic<VTime>[]> opt_floor_;
  std::unique_ptr<std::atomic<VTime>[]> opt_out_min_;

  // Consumption-log byte accounting: global current/peak across ranks
  // (atomic: the threaded driver logs on worker threads).
  std::atomic<std::uint64_t> opt_log_bytes_{0};
  std::atomic<std::uint64_t> opt_log_bytes_peak_{0};

  // Adaptive GVT cadence for one-worker optimistic runs (oracle or not):
  // countdown to the next pass, re-armed to opt_gvt_interval_ which the
  // pass itself retunes from log pressure (within [16, 4x the baseline]).
  // A pass is an O(P) scan, so the adaptive baseline scales with the
  // rank count — a fixed cadence turns GVT into O(P/interval) amortized
  // work per scheduler pop, which at 4096+ ranks dominates the run. The
  // pressure threshold scales the same way: "the logs hold one eager
  // message per rank" is steady state, not an emergency.
  std::uint64_t opt_gvt_interval_ = 256;
  std::uint64_t opt_gvt_countdown_ = 256;
  std::uint64_t opt_gvt_base_ = 256;
  std::uint64_t opt_gvt_pressure_bytes_ = std::uint64_t{1} << 20;
  std::uint64_t opt_log_bytes_last_pass_ = 0;

  // Speculation-window throttling: a worker sets over-window heap minima
  // aside for the rest of its round and requeues them at round end; the
  // barrier sets this one-round override when a whole round made no
  // progress (the window-defining minimum rank may be blocked on a
  // throttled peer).
  std::atomic<bool> opt_throttle_override_{false};

  // Wildcard safety: ranks blocked on a wildcard receive whose queued
  // candidate has not passed the safety bound yet. One-worker deliveries
  // park into the global list; deliveries during a threaded round park
  // into the current worker's list, merged at the barrier. The latency
  // floor is atomic only because smpi::Comm instances set it (to the same
  // value) from every rank's fiber, including worker threads.
  std::atomic<VTime> wildcard_min_latency_{0};
  std::vector<int> wildcard_pending_;
  std::vector<std::vector<int>> worker_wildcard_pending_;

  // MC mode (oracle + one worker): sends buffer into per-
  // (src,dst) FIFO lanes and delivery of a lane head is itself a
  // schedulable step. Declared after the pools so queued payloads are
  // released before the pools tear down. Lanes are kept sorted by
  // (src,dst) so the option list the oracle sees has a canonical order.
  struct InflightLane {
    int src = -1;
    int dst = -1;
    std::deque<Message> q;

    InflightLane(int s, int d) : src(s), dst(d) {}
    // Copy deleted explicitly (Message is move-only; deque's copy ctor is
    // declared regardless, which would otherwise win move_if_noexcept).
    InflightLane(InflightLane&&) = default;
    InflightLane& operator=(InflightLane&&) = default;
    InflightLane(const InflightLane&) = delete;
    InflightLane& operator=(const InflightLane&) = delete;
  };
  InflightLane& inflight_lane(int src, int dst);
  std::vector<InflightLane> inflight_;
  std::size_t inflight_total_ = 0;

  ScheduleOracle* oracle_ = nullptr;
  bool mc_active_ = false;  ///< oracle installed and one host worker
  std::atomic<bool> saw_wildcard_recv_{false};

  EngineObserver* observer_ = nullptr;

  std::mutex error_mutex_;
  std::exception_ptr error_;
  bool aborting_ = false;

  double host_t0_sec_ = 0.0;
};

// Defined here (not in-class) because they consult the Engine for budget
// enforcement. Both run in fiber context, so a budget violation throws
// straight through the process body into the engine's error path.

inline void Process::advance(VTime dt) {
  STGSIM_DCHECK(dt >= 0);
  clock_ += dt;
  if (clock_ > vtime_budget_) {
    engine_->raise_budget(
        BudgetExceededError::Kind::kVirtualTime,
        "virtual-time budget exceeded: rank " + std::to_string(rank_) +
            " reached " + vtime_to_string(clock_));
  }
  if (--watchdog_countdown_ <= 0) {
    watchdog_countdown_ = kWatchdogStride;
    if (engine_->host_budget_exhausted()) {
      engine_->raise_budget(
          BudgetExceededError::Kind::kHostWallClock,
          "host wall-clock watchdog fired in rank " + std::to_string(rank_));
    }
  }
}

inline void Process::lift_clock(VTime t) {
  if (t > clock_) {
    clock_ = t;
    if (clock_ > vtime_budget_) {
      engine_->raise_budget(
          BudgetExceededError::Kind::kVirtualTime,
          "virtual-time budget exceeded: rank " + std::to_string(rank_) +
              " reached " + vtime_to_string(clock_));
    }
  }
}

/// Replays `trace` on an emulated `workers`-processor host (block mapping
/// of processes to workers) and returns the predicted wall-clock seconds.
double replay_host_trace(const std::vector<Slice>& trace, int num_processes,
                         int workers, const HostModel& model = {});

}  // namespace stgsim::simk
