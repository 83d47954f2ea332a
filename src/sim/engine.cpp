#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "sim/worker_pool.hpp"

namespace stgsim::simk {

namespace {

/// The partition-round worker this thread runs: set by run_partition_round,
/// so it is 0 on every thread that is not a pool worker (the caller of a
/// one-worker run, or a multi-worker run's barrier). Indexes the
/// per-worker stat cells and anti-message queues.
thread_local int g_current_worker = 0;

/// The process whose fiber this thread is currently executing (null in
/// scheduler context). Used to assert a rank never rolls itself back.
thread_local void* g_current_proc = nullptr;

double steady_now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by this thread. Slice durations use this rather than
/// wall time so preemption by other host processes cannot poison the
/// recorded trace (a slice on a dedicated parallel host would not be
/// preempted).
double thread_cpu_sec() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::~Process() {
  // Unconsumed messages (legal at exit, like unmatched MPI sends) go back
  // to the engine's arena; the arena outlives procs_ by declaration order.
  if (engine_ == nullptr) return;
  for (auto& ch : channels_) {
    MsgNode* n = ch.head;
    while (n != nullptr) {
      MsgNode* next = n->next;
      engine_->msg_arena_.recycle(n);
      n = next;
    }
    ch.head = ch.tail = nullptr;
  }
}

int Process::world_size() const { return engine_->config().num_processes; }

MemoryTracker& Process::memory() { return engine_->memory(); }

PayloadBuf Process::make_payload(const void* data, std::size_t n) {
  return engine_->payload_pool_.make(data, n);
}

void Process::send(Message msg) {
  STGSIM_DCHECK(msg.src == rank_);
  STGSIM_DCHECK(msg.dst >= 0 && msg.dst < world_size());
  STGSIM_DCHECK(msg.arrival >= msg.sent_at);
  msg.seq = next_seq_for(msg.dst);
  if (engine_->config().record_host_trace) {
    msg.producer_slice = current_slice_;
    msg.producer_offset_sec = thread_cpu_sec() - slice_begin_sec_;
  }
  if (engine_->observer_ != nullptr) engine_->observer_->on_send(msg);
  if (engine_->config_.optimistic) {
    const std::uint64_t ord = opt_.send_ordinal++;
    if (ord < opt_.suppress_below) {
      // Coast-forward replay of a rolled-back prefix: this send was
      // already delivered (and logged) by the original execution, so
      // re-issuing it would duplicate the message. Verify the replay
      // reproduces the log, then drop it. Ordinals below send_base were
      // fossil-collected (committed past GVT) and are dropped unchecked.
      if (ord >= opt_.send_base) {
        const SendRecord& sr =
            opt_.sends[static_cast<std::size_t>(ord - opt_.send_base)];
        STGSIM_CHECK(sr.dst == msg.dst && sr.seq == msg.seq)
            << "optimistic replay diverged on rank " << rank_ << ": send #"
            << ord << " went to " << msg.dst << " seq " << msg.seq
            << ", log has dst " << sr.dst << " seq " << sr.seq;
      }
      return;
    }
    opt_.sends.push_back(
        SendRecord{msg.dst, msg.seq, msg.sent_at, msg.arrival});
  }
  engine_->deliver(std::move(msg));
}

bool Process::try_match(const MatchSpec& spec, Message* out) {
  if (engine_->config_.optimistic && opt_.replaying()) {
    // Rollback replay: consumptions come from the log, not the inbox
    // (saw_wildcard_recv_ was already set by the original execution).
    return engine_->opt_feed_replay(*this, spec, out);
  }
  auto take = [&](Channel& ch, MsgNode* node, MsgNode* prev) {
    unlink(ch, node, prev);
    *out = engine_->msg_arena_.release(node);
    if (engine_->config_.optimistic) {
      // Consumption log: the replay feed and the anti-message lookup both
      // need the message back after the fiber has destroyed its copy.
      // clone_message shares the payload (refcount bump, no byte copy).
      ConsumedEntry e;
      e.msg = engine_->clone_message(*out);
      e.sends_before = opt_.send_ordinal;
      engine_->opt_log_charge(*this, e.msg);
      opt_.consumed.push_back(std::move(e));
      engine_->opt_note_consume(*this);
    }
    if (engine_->config().record_host_trace) {
      // Consuming a message is a dependency point: end the current slice
      // here and begin a new one gated on the message's production point.
      // (On a parallel host this is exactly where the process could have
      // had to block, letting its worker run other processes meanwhile.)
      engine_->split_slice(*this);
      engine_->trace_[current_slice_].deps.push_back(
          {out->producer_slice, out->producer_offset_sec, out->src});
    }
  };

  // Probe accounting for the observer: one local increment per inspected
  // node, reported once per attempt (never per node).
  std::uint64_t probes = 0;
  auto report = [&](bool hit) {
    if (engine_->observer_ != nullptr) {
      engine_->observer_->on_match(rank_, probes, hit);
    }
    return hit;
  };

  if (spec.src != MatchSpec::kAnySource && spec.any_of == nullptr) {
    Channel* ch = find_channel(spec.src);
    if (ch == nullptr) return report(false);
    MsgNode* prev = nullptr;
    for (MsgNode* n = ch->head; n != nullptr; prev = n, n = n->next) {
      ++probes;
      if (spec.accepts(n->value)) {
        take(*ch, n, prev);
        return report(true);
      }
    }
    return report(false);
  }

  // Wildcard: per MPI, messages from one source are matched in send order;
  // across sources we pick the earliest arrival (ties by source id) among
  // each channel's first acceptable message. The explicit tie-break makes
  // channel iteration order irrelevant.
  engine_->saw_wildcard_recv_.store(true, std::memory_order_relaxed);
  Channel* best_ch = nullptr;
  MsgNode* best_node = nullptr;
  MsgNode* best_prev = nullptr;
  VTime best_arrival = kVTimeNever;
  int best_src = -1;
  for (auto& ch : channels_) {
    MsgNode* prev = nullptr;
    for (MsgNode* n = ch.head; n != nullptr; prev = n, n = n->next) {
      ++probes;
      if (spec.accepts(n->value)) {
        if (n->value.arrival < best_arrival ||
            (n->value.arrival == best_arrival && ch.src < best_src)) {
          best_ch = &ch;
          best_node = n;
          best_prev = prev;
          best_arrival = n->value.arrival;
          best_src = ch.src;
        }
        break;  // only the first acceptable message per channel competes
      }
    }
  }
  if (best_ch == nullptr) return report(false);
  take(*best_ch, best_node, best_prev);
  return report(true);
}

bool Process::peek_match(const MatchSpec& spec, VTime* arrival) const {
  if (engine_->config_.optimistic && opt_.replaying()) {
    // Replay: probes must see what the original execution saw — the next
    // logged consumption — not the inbox (which holds messages that were
    // unconsumed at rollback, possibly matching a different request).
    const Message& m = opt_.entry(opt_.replay_next).msg;
    if (!spec.accepts(m)) return false;
    if (arrival != nullptr) *arrival = m.arrival;
    return true;
  }
  VTime best = kVTimeNever;
  for (const auto& ch : channels_) {
    if (spec.src != MatchSpec::kAnySource && spec.src != ch.src) continue;
    for (const MsgNode* n = ch.head; n != nullptr; n = n->next) {
      if (spec.accepts(n->value)) {
        best = std::min(best, n->value.arrival);
        break;  // send order: only the first acceptable per channel
      }
    }
  }
  if (best == kVTimeNever) return false;
  if (arrival != nullptr) *arrival = best;
  return true;
}

Message Process::blocking_match(const MatchSpec& spec) {
  Message out;
  if (engine_->config_.optimistic) {
    // Optimistic mode: commit on sight. A wildcard commit is speculative —
    // record it so a straggler that would have won the (arrival, src)
    // choice triggers rollback (the conservative safety bound, enforced
    // after the fact). The loop re-probes after every wake: the waking
    // message may have been annihilated by an anti-message before this
    // fiber actually ran.
    for (;;) {
      const bool fed = opt_.replaying();
      if (try_match(spec, &out)) {
        if (!fed && spec.is_wildcard()) {
          engine_->opt_record_wildcard(*this, spec, out);
        }
        return out;
      }
      blocked_ = true;
      waiting_on_ = &spec;
      if (engine_->observer_ != nullptr) {
        engine_->observer_->on_block(rank_, clock_, spec);
      }
      Fiber::yield_to_scheduler();
      if (engine_->aborting_ || opt_.rollback_abort) throw FiberAborted{};
    }
  }
  if (!spec.is_wildcard()) {
    if (try_match(spec, &out)) return out;
    blocked_ = true;
    waiting_on_ = &spec;
  } else {
    // A wildcard receive may only commit when no slower-clocked process
    // can still produce an earlier-arriving match. If the best queued
    // candidate is not yet bound-safe (or we are inside a threaded round,
    // where the bound cannot be evaluated), block and park for promotion.
    VTime arrival = kVTimeNever;
    if (peek_match(spec, &arrival) &&
        engine_->wildcard_commit_safe(*this, arrival)) {
      STGSIM_CHECK(try_match(spec, &out));
      return out;
    }
    blocked_ = true;
    waiting_on_ = &spec;
    if (arrival != kVTimeNever) engine_->park_wildcard(*this);
  }
  if (engine_->observer_ != nullptr) {
    engine_->observer_->on_block(rank_, clock_, spec);
  }
  Fiber::yield_to_scheduler();
  if (engine_->aborting_) throw FiberAborted{};
  // The engine only wakes us when a match is available.
  STGSIM_CHECK(try_match(spec, &out))
      << "process " << rank_ << " woke without a matching message";
  return out;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(EngineConfig config) : config_(config) {
  STGSIM_CHECK_GT(config_.num_processes, 0);
  STGSIM_CHECK_GT(config_.host_workers, 0);
  memory_.set_cap(config_.memory_cap_bytes);
  observer_ = config_.observer;
  oracle_ = config_.oracle;
  mc_active_ = oracle_ != nullptr && config_.host_workers == 1;
  if (mc_active_) {
    STGSIM_CHECK(!config_.record_host_trace)
        << "host-trace recording is meaningless under MC schedule control";
  }
  if (config_.host_workers > 1) {
    STGSIM_CHECK(!config_.record_host_trace)
        << "host-trace recording requires a single host worker";
  }
  if (config_.optimistic) {
    STGSIM_CHECK(!config_.record_host_trace)
        << "host-trace recording requires the conservative protocol "
           "(rollback replay would double-count slices)";
    STGSIM_CHECK(config_.inject != Inject::kUnsafeWildcard)
        << "unsafe-wildcard injection targets the conservative safety "
           "bound; use commit-before-gvt against the optimistic scheduler";
    if (config_.gvt_interval == 0) config_.gvt_interval = 256;
  } else {
    STGSIM_CHECK(config_.inject != Inject::kCommitBeforeGvt)
        << "commit-before-gvt injection requires the optimistic scheduler";
  }
}

Engine::~Engine() = default;

VTime Engine::wildcard_safe_bound(VTime min_latency, int exclude_rank) const {
  VTime lo = kVTimeNever;
  for (const auto& p : procs_) {
    if (p->finished_ || p->rank_ == exclude_rank) continue;
    lo = std::min(lo, p->clock_);
  }
  if (lo == kVTimeNever) return kVTimeNever;
  return lo + min_latency;
}

bool Engine::wildcard_commit_safe(const Process& p, VTime arrival) const {
  if (config_.optimistic) {
    // Optimistic mode never uses the conservative bound: cross-source
    // choices must flow through blocking_match so the commit is recorded
    // for straggler detection (the smpi waitany fast path commits only
    // single-candidate, fixed-source completions, which are not choices).
    return false;
  }
  if (config_.inject == Inject::kUnsafeWildcard) {
    // Test-only fault injection: commit on sight, reproducing the racy
    // pre-safety-bound behavior for the schedule checker to rediscover.
    return true;
  }
  if (threaded_phase_) return false;  // clocks race during a round
  if (mc_active_) {
    // MC mode: never commit mid-slice. Wildcards park and are promoted
    // only when every in-flight lane is drained, so the candidate set the
    // promotion scan evaluates is final (mirrors the threaded barrier).
    return false;
  }
  const VTime bound = wildcard_safe_bound(
      wildcard_min_latency_.load(std::memory_order_relaxed), p.rank_);
  // kVTimeNever: no other unfinished process exists, so the queued message
  // set is final and any match is safe.
  return bound == kVTimeNever || arrival < bound;
}

double Engine::now_host_sec() const { return steady_now_sec() - host_t0_sec_; }

void Engine::deliver(Message&& msg) {
  Process& dst = *procs_[static_cast<std::size_t>(msg.dst)];

  if (threaded_phase_) {
    const int w = g_current_worker;
    if (dst.home_worker_ != w) {
      // Cross-partition: ride the (sender worker, destination worker) lane,
      // which the destination drains between its slices. The lane is FIFO
      // and carries every message between the two partitions, so each
      // per-(src,dst) channel keeps its send order. (Payload buffers
      // allocated on this worker travel with the message; the pool is
      // spinlocked.)
      if (config_.optimistic) {
        // Asynchronous GVT: record the smallest arrival this worker has
        // put in transit since the last barrier (monotone min, reset at
        // the barrier), so mid-round estimates account for messages the
        // destination has not drained yet.
        std::atomic<VTime>& om = opt_out_min_[static_cast<std::size_t>(w)];
        VTime cur = om.load(std::memory_order_relaxed);
        while (msg.arrival < cur &&
               !om.compare_exchange_weak(cur, msg.arrival,
                                         std::memory_order_relaxed)) {
        }
      }
      mailboxes_[static_cast<std::size_t>(w) *
                     static_cast<std::size_t>(config_.host_workers) +
                 static_cast<std::size_t>(dst.home_worker_)]
          ->push(std::move(msg));
      return;
    }
    ++worker_stats_[static_cast<std::size_t>(w)].intra;
  }

  if (mc_active_) {
    // MC mode: the message becomes *in flight*. Handing it to the inbox is
    // a separate schedulable step so the oracle can explore delivery
    // orders across lanes (per-lane FIFO is preserved by the deque).
    InflightLane& lane = inflight_lane(msg.src, msg.dst);
    lane.q.push_back(std::move(msg));
    ++inflight_total_;
    return;
  }

  deliver_now(std::move(msg));
}

Engine::InflightLane& Engine::inflight_lane(int src, int dst) {
  auto it = inflight_.begin();
  for (; it != inflight_.end(); ++it) {
    if (it->src == src && it->dst == dst) return *it;
    if (it->src > src || (it->src == src && it->dst > dst)) break;
  }
  it = inflight_.insert(it, InflightLane(src, dst));
  return *it;
}

MsgNode* Engine::insert_sorted(Process& p, Message&& m) {
  Process::Channel& ch = p.channel(m.src);
  // In-order arrival (every conservative message, and the optimistic
  // no-rollback common case) appends at the tail in O(1). Only a Time Warp
  // rollback at the *receiver* can requeue higher-seq messages ahead of a
  // re-sent (post-replay) lower-seq one, forcing the head scan.
  MsgNode* prev = ch.tail;
  MsgNode* next = nullptr;
  if (prev != nullptr && prev->value.seq >= m.seq) {
    STGSIM_DCHECK(config_.optimistic)
        << "FIFO violation on channel " << m.src << "->" << m.dst;
    prev = nullptr;
    next = ch.head;
    while (next->value.seq < m.seq) {
      prev = next;
      next = next->next;
    }
    STGSIM_DCHECK(next->value.seq != m.seq);
  }
  MsgNode* node = msg_arena_.acquire(std::move(m));
  node->next = next;
  if (prev != nullptr) {
    prev->next = node;
  } else {
    ch.head = node;
  }
  if (next == nullptr) ch.tail = node;
  ++p.inbox_size_;
  return node;
}

void Engine::deliver_now(Message&& msg) {
  Process& dst = *procs_[static_cast<std::size_t>(msg.dst)];

  if (config_.optimistic && msg.anti) {
    opt_apply_anti(dst, msg);
    opt_flush_antis();
    return;
  }

  MsgNode* node = insert_sorted(dst, std::move(msg));
  const std::uint64_t delivered = ++messages_delivered_;
  if (config_.max_messages > 0 && delivered > config_.max_messages) {
    if (threaded_phase_ && Fiber::current() == nullptr) {
      // Mailbox drain on a worker thread: raising here would tear down
      // fibers owned by other workers. Record the violation; every worker
      // sees has_error_ and ends its round, and the scheduler aborts at
      // the barrier.
      note_error(std::make_exception_ptr(BudgetExceededError(
          BudgetExceededError::Kind::kMessages,
          "message budget exceeded: " + std::to_string(delivered) +
              " messages delivered (cap " +
              std::to_string(config_.max_messages) + ")")));
    } else {
      raise_budget(BudgetExceededError::Kind::kMessages,
                   "message budget exceeded: " + std::to_string(delivered) +
                       " messages delivered (cap " +
                       std::to_string(config_.max_messages) + ")");
    }
  }

  if (config_.optimistic && opt_check_violation(dst, node)) {
    // The message landed in dst's past: opt_check_violation rolled dst
    // back (scheduling included) and the queued message will be matched
    // by the re-execution. Drain any cascade the rollback started.
    opt_flush_antis();
    return;
  }

  if (dst.blocked_) {
    // Wake only if the newly available message completes a match, so a
    // process never context-switches spuriously.
    const MatchSpec& spec = *dst.waiting_on_;
    const Message& m = node->value;
    bool can_match = false;
    if (spec.src == MatchSpec::kAnySource || spec.src == m.src ||
        spec.any_of != nullptr) {
      // The new message is last in its channel; it can only be matched if
      // no earlier message in the same channel also matches (that one
      // would have woken us already) — so testing the new message alone
      // is exact.
      can_match = spec.accepts(m);
    }
    if (can_match) {
      if (!config_.optimistic && spec.is_wildcard() &&
          (threaded_run_ || !wildcard_commit_safe(dst, m.arrival))) {
        // Conservative: a slower-clocked rank could still send an
        // earlier-arriving match (or, in a threaded round, we cannot
        // tell): defer the wakeup until the safety bound passes. If an
        // already-queued candidate has an even earlier arrival, it is
        // safe whenever this one is, and try_match picks it on resume.
        // (Optimistic mode never parks: it commits on sight and corrects
        // with rollback.)
        park_wildcard(dst);
        return;
      }
      wake_process(dst, m.arrival);
    }
  }
}

void Engine::wake_process(Process& p, VTime arrival) {
  p.blocked_ = false;
  p.waiting_on_ = nullptr;
  p.wildcard_parked_ = false;
  if (observer_ != nullptr) observer_->on_wake(p.rank_, p.clock_, arrival);
  make_ready(p);
}

void Engine::make_ready(Process& p) {
  // Local deliveries and lane drains happen on the destination's own
  // worker; barrier drains and promotions happen between rounds — both
  // may touch this list, never at the same time.
  worker_ready_[static_cast<std::size_t>(p.home_worker_)].push_back(p.rank_);
}

void Engine::park_wildcard(Process& p) {
  STGSIM_DCHECK(p.blocked_ && p.waiting_on_ != nullptr);
  if (p.wildcard_parked_) return;
  p.wildcard_parked_ = true;
  if (threaded_phase_) {
    worker_wildcard_pending_[static_cast<std::size_t>(g_current_worker)]
        .push_back(p.rank_);
  } else {
    wildcard_pending_.push_back(p.rank_);
  }
}

// ---------------------------------------------------------------------------
// Optimistic (Time Warp) mode. See DESIGN.md §15 for the protocol.
// ---------------------------------------------------------------------------

void Engine::attach_fresh_fiber(Process& p) {
  Process* raw = &p;
  p.fiber_ = std::make_unique<Fiber>(
      [this, raw] {
        try {
          body_(*raw);
        } catch (const FiberAborted&) {
          // Clean teardown: unwound by Engine::abort_run or a rollback.
        } catch (...) {
          note_error(std::current_exception());
        }
      },
      config_.fiber_stack_bytes);
  p.opt_.fresh = true;
}

Message Engine::clone_message(const Message& m) {
  Message c;
  c.src = m.src;
  c.dst = m.dst;
  c.tag = m.tag;
  c.kind = m.kind;
  c.anti = m.anti;
  c.sent_at = m.sent_at;
  c.arrival = m.arrival;
  c.seq = m.seq;
  c.aux = m.aux;
  c.wire_bytes = m.wire_bytes;
  // Refcount-share the payload instead of deep-cloning: payload bytes are
  // immutable after creation, so the log's copy and the receiver's copy
  // can alias the same pooled storage.
  c.payload = m.payload.share();
  return c;
}

Engine::WorkerStat& Engine::opt_stat() {
  return worker_stats_[static_cast<std::size_t>(g_current_worker)];
}

bool Engine::opt_feed_replay(Process& p, const MatchSpec& spec,
                             Message* out) {
  OptState& o = p.opt_;
  const ConsumedEntry& e = o.entry(o.replay_next);
  STGSIM_CHECK(spec.accepts(e.msg))
      << "optimistic replay diverged on rank " << p.rank_ << ": receive #"
      << o.replay_next << " does not accept the logged message (src "
      << e.msg.src << " tag " << e.msg.tag << ")";
  *out = clone_message(e.msg);
  ++o.replay_next;
  ++opt_stat().replayed;
  opt_note_consume(p);
  if (observer_ != nullptr) observer_->on_match(p.rank_, 1, true);
  return true;
}

void Engine::opt_note_consume(Process& p) {
  OptState& o = p.opt_;
  ++o.consumes_since_rollback;
  const std::uint64_t iv = o.effective_interval;
  if (iv == 0) return;  // checkpointing disabled
  if (++o.since_checkpoint < iv) return;
  o.checkpoint_due = true;
  // Adaptive growth: after a long rollback-free stretch the restore points
  // are pure overhead — stretch the interval back out (capped at 8x the
  // configured value; rollback halves it again, see opt_rollback).
  if (config_.checkpoint_adaptive &&
      o.consumes_since_rollback >= 8 * iv &&
      iv < 8 * config_.checkpoint_interval) {
    o.effective_interval = std::min(iv * 2, 8 * config_.checkpoint_interval);
  }
}

std::size_t Engine::opt_entry_bytes(const Message& m) {
  return sizeof(ConsumedEntry) + m.payload.size();
}

void Engine::opt_log_charge(Process& p, const Message& m) {
  // Plain per-rank counter: a rank's log is only ever touched by its
  // owning worker. The global figure is folded from the per-rank counters at GVT passes and at run end — see
  // opt_fold_log_bytes — so the per-message cost is one add instead of
  // two contended atomic RMWs. The reported peak is therefore sampled at
  // fold points, which is where the log is largest anyway (a fold runs
  // immediately before fossil collection prunes it).
  p.opt_.log_bytes += opt_entry_bytes(m);
}

void Engine::opt_log_release(Process& p, const Message& m) {
  const std::size_t n = opt_entry_bytes(m);
  STGSIM_DCHECK(p.opt_.log_bytes >= n);
  p.opt_.log_bytes -= n;
}

std::uint64_t Engine::opt_fold_log_bytes() {
  // Scheduler thread only (one-worker rounds, or a threaded run at a
  // barrier / before its own fossil sweep): workers are quiesced, so plain
  // reads of the per-rank counters and plain stores of the global are
  // race-free.
  std::uint64_t sum = 0;
  for (const auto& p : procs_) sum += p->opt_.log_bytes;
  opt_log_bytes_.store(sum, std::memory_order_relaxed);
  if (sum > opt_log_bytes_peak_.load(std::memory_order_relaxed)) {
    opt_log_bytes_peak_.store(sum, std::memory_order_relaxed);
  }
  return sum;
}

void Process::take_checkpoint(std::vector<std::uint8_t> app_blob) {
  engine_->opt_take_checkpoint(*this, std::move(app_blob));
}

void Engine::opt_take_checkpoint(Process& p, std::vector<std::uint8_t> blob) {
  OptState& o = p.opt_;
  STGSIM_DCHECK(config_.optimistic && o.checkpoint_due);
  Checkpoint cp;
  cp.cursor = o.cursor();
  // send_ordinal is absolute within every incarnation: a restored fiber
  // starts at its checkpoint's ordinal, a from-zero replay starts at 0, so
  // the running counter is the capture value in all cases (mid-replay
  // included).
  cp.send_ordinal = o.send_ordinal;
  cp.clock = p.clock_;
  cp.rng = p.rng_.state();
  cp.next_seq = p.next_seq_;
  cp.app_blob = std::move(blob);
  // Cursor-ordered by construction (the consume cursor is monotone within
  // one incarnation and rollback pops checkpoints past its target), but a
  // replaying incarnation may re-reach a cursor an older checkpoint
  // already covers; keep the log strictly increasing.
  while (!o.checkpoints.empty() && o.checkpoints.back().cursor >= cp.cursor) {
    o.checkpoints.pop_back();
  }
  o.checkpoints.push_back(std::move(cp));
  ++o.checkpoints_taken;
  o.since_checkpoint = 0;
  o.checkpoint_due = false;
}

void Engine::opt_record_wildcard(Process& p, const MatchSpec& spec,
                                 const Message& m) {
  if (config_.inject == Inject::kCommitBeforeGvt) {
    // Injected fault: the commit is finalized on the spot, so no straggler
    // can ever correct it — the race `stgsim check` must rediscover.
    return;
  }
  WildcardRecord rec;
  if (spec.any_of != nullptr) {
    rec.alts.assign(spec.any_of, spec.any_of + spec.any_of_count);
    for (MatchSpec& a : rec.alts) {
      STGSIM_DCHECK(a.any_of == nullptr) << "nested waitany unions";
      a.any_of = nullptr;
    }
  } else {
    rec.spec = spec;
  }
  rec.arrival = m.arrival;
  rec.src = m.src;
  STGSIM_DCHECK(!p.opt_.consumed.empty());
  rec.consumed_index = p.opt_.consumed_base + p.opt_.consumed.size() - 1;
  p.opt_.records.push_back(std::move(rec));
}

bool Engine::opt_check_violation(Process& dst, const MsgNode* node) {
  if (config_.inject == Inject::kCommitBeforeGvt) return false;
  OptState& o = dst.opt_;
  if (o.records.empty()) return false;
  const Message& m = node->value;
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t k = kNone;
  for (const WildcardRecord& rec : o.records) {
    // The commit rule is min (arrival, src) over each channel's first
    // acceptable message; m landed in the record's past iff it would have
    // won that comparison.
    if (!(m.arrival < rec.arrival ||
          (m.arrival == rec.arrival && m.src < rec.src))) {
      continue;
    }
    if (!rec.accepts(m)) continue;
    // Shadow check: if an earlier queued message in m's channel is also
    // acceptable, the commit scan would pick that one, not m — and it
    // already passed (or predates) this record's check.
    bool shadowed = false;
    for (const MsgNode* n = dst.find_channel(m.src)->head;
         n != nullptr && n != node; n = n->next) {
      if (rec.accepts(n->value)) {
        shadowed = true;
        break;
      }
    }
    if (shadowed) continue;
    if (k == kNone || rec.consumed_index < k) k = rec.consumed_index;
  }
  if (k == kNone) return false;
  opt_rollback(dst, k, /*drop_entry=*/false);
  return true;
}

void Engine::opt_apply_anti(Process& dst, const Message& anti) {
  STGSIM_DCHECK(anti.anti);
  // Still queued? Per-lane FIFO guarantees the anti arrived after its
  // positive counterpart, so the message is either in the inbox or in the
  // consumption log.
  if (Process::Channel* ch = dst.find_channel(anti.src)) {
    MsgNode* prev = nullptr;
    for (MsgNode* n = ch->head; n != nullptr; prev = n, n = n->next) {
      if (n->value.seq == anti.seq) {
        dst.unlink(*ch, n, prev);
        msg_arena_.recycle(n);
        messages_delivered_.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
      if (n->value.seq > anti.seq) break;  // channels stay seq-sorted
    }
  }
  // Retained log scan only: pruned entries are committed below GVT, and a
  // committed consumption can never be annihilated (its anti would have
  // had to be sent from a rollback below GVT).
  const auto& log = dst.opt_.consumed;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Message& cm = log[i].msg;
    if (cm.src == anti.src && cm.seq == anti.seq) {
      messages_delivered_.fetch_sub(1, std::memory_order_relaxed);
      opt_rollback(dst, dst.opt_.consumed_base + static_cast<std::uint64_t>(i),
                   /*drop_entry=*/true);
      return;
    }
  }
  STGSIM_CHECK(false) << "anti-message " << anti.src << "->" << anti.dst
                      << " seq " << anti.seq
                      << " has no positive counterpart";
}

void Engine::opt_rollback(Process& p, std::uint64_t k, bool drop_entry) {
  STGSIM_DCHECK(g_current_proc != static_cast<void*>(&p))
      << "rank " << p.rank_ << " cannot roll itself back mid-slice";
  OptState& o = p.opt_;
  STGSIM_CHECK(k >= o.consumed_base &&
               k < o.consumed_base + o.consumed.size())
      << "rollback target " << k << " outside retained log ["
      << o.consumed_base << ", "
      << o.consumed_base + o.consumed.size() << ") on rank " << p.rank_;
  {
    WorkerStat& ws = opt_stat();
    ++ws.rollbacks;
    const std::uint64_t depth = o.consumed_base + o.consumed.size() - k;
    int bucket = 0;
    while (bucket + 1 < WorkerStat::kDepthBuckets &&
           (std::uint64_t{1} << bucket) <= depth) {
      ++bucket;
    }
    if (depth == 0) bucket = 0;
    ++ws.depth_hist[bucket];
  }
  // Adaptive shrink: a rollback means up to effective_interval entries of
  // replay; frequent rollbacks favor closer restore points.
  if (config_.checkpoint_adaptive && o.effective_interval > 1) {
    o.effective_interval /= 2;
  }
  o.consumes_since_rollback = 0;

  // 1) Cancel speculative output: every send issued at or after the
  //    rolled-back consumption gets an anti-message. Queued (not sent
  //    inline) so an annihilation cascade unwinds iteratively; per-lane
  //    FIFO still puts each anti behind its positive and ahead of any
  //    post-replay re-send.
  const std::uint64_t s_k = o.entry(k).sends_before;
  STGSIM_CHECK(s_k >= o.send_base)
      << "rollback past the fossil-collected send horizon on rank "
      << p.rank_;
  const std::size_t keep = static_cast<std::size_t>(s_k - o.send_base);
  auto& queue = opt_anti_queues_[static_cast<std::size_t>(g_current_worker)];
  for (std::size_t i = keep; i < o.sends.size(); ++i) {
    const SendRecord& sr = o.sends[i];
    Message a;
    a.src = p.rank_;
    a.dst = sr.dst;
    a.seq = sr.seq;
    a.anti = true;
    a.sent_at = sr.sent_at;
    a.arrival = sr.arrival;
    ++opt_stat().antis;
    queue.push_back(std::move(a));
  }
  o.sends.resize(keep);

  // 2) Un-consume: requeue every logged message from index k on (dropping
  //    entry k itself when it was annihilated by an anti). Reinserted in
  //    seq order per channel — rolled-back seqs can interleave with
  //    still-queued ones a wildcard receive skipped.
  const std::size_t k_rel = static_cast<std::size_t>(k - o.consumed_base);
  for (std::size_t i = o.consumed.size(); i-- > k_rel;) {
    ConsumedEntry& e = o.consumed[i];
    opt_log_release(p, e.msg);
    if (drop_entry && i == k_rel) continue;
    insert_sorted(p, std::move(e.msg));
  }
  o.consumed.resize(k_rel);

  // 3) Speculative wildcard commits at or past the rollback point are
  //    gone; the re-execution re-decides them against the corrected inbox.
  o.records.erase(
      std::remove_if(o.records.begin(), o.records.end(),
                     [k](const WildcardRecord& r) {
                       return r.consumed_index >= k;
                     }),
      o.records.end());

  // 4) Reset execution state for coast-forward replay. Checkpoints past
  //    the rollback point capture state the rollback just discarded; pop
  //    them, then replay from the newest survivor (or from rank start
  //    while none exists yet — only possible before the first checkpoint,
  //    when consumed_base is still 0, so the full feed is retained).
  while (!o.checkpoints.empty() && o.checkpoints.back().cursor > k) {
    o.checkpoints.pop_back();
  }
  o.replay_limit = k;
  o.suppress_below = s_k;
  o.fossil_cursor = std::min(o.fossil_cursor, k);
  o.since_checkpoint = 0;
  o.checkpoint_due = false;
  p.watchdog_countdown_ = Process::kWatchdogStride;
  if (!o.checkpoints.empty()) {
    const Checkpoint& cp = o.checkpoints.back();
    o.replay_next = cp.cursor;
    o.send_ordinal = cp.send_ordinal;
    p.next_seq_ = cp.next_seq;
    p.clock_ = cp.clock;
    p.rng_.set_state(cp.rng);
    // Copy, don't alias: a checkpoint taken mid-replay may reallocate the
    // checkpoints vector while the blob is still being consumed.
    o.restore_blob = cp.app_blob;
    o.restore_armed = true;
  } else {
    STGSIM_CHECK(o.consumed_base == 0)
        << "rank " << p.rank_
        << ": log pruned without a checkpoint to replay from";
    o.replay_next = 0;
    o.send_ordinal = 0;
    o.restore_armed = false;
    o.restore_blob.clear();
    p.next_seq_.clear();
    p.clock_ = 0;
    p.rng_.reseed(o.rng_seed);
  }
  if (p.fiber_ != nullptr && p.fiber_->finished()) {
    attach_fresh_fiber(p);  // ran to completion; nothing to unwind
  } else if (!o.fresh) {
    // The speculative incarnation is suspended on its own stack; ucontext
    // switches only happen from scheduler context, so defer the unwind to
    // the next resume. (A second rollback before that just lands here
    // again.) A fresh fiber has never run and needs nothing.
    o.pending_unwind = true;
  }
  // The reset hook zeroes layered per-rank state (smpi stats, obs shard)
  // that a from-zero replay rebuilds; a checkpoint restore instead
  // overwrites that state from the blob, so the hook would only be
  // redundant work (the blob is applied before anything records).
  if (!o.restore_armed && rollback_reset_) rollback_reset_(p.rank_);

  // 5) Scheduling: make the rank runnable exactly once.
  const bool was_queued = !p.blocked_ && !p.finished_;
  p.finished_ = false;
  p.blocked_ = false;
  p.waiting_on_ = nullptr;
  p.wildcard_parked_ = false;
  if (!was_queued) make_ready(p);
}

void Engine::opt_finish_unwind(Process& p) {
  OptState& o = p.opt_;
  o.pending_unwind = false;
  o.rollback_abort = true;
  p.fiber_->resume();  // throws FiberAborted at the suspended yield point
  STGSIM_CHECK(p.fiber_->finished())
      << "rolled-back fiber on rank " << p.rank_ << " did not unwind";
  o.rollback_abort = false;
  attach_fresh_fiber(p);
}

void Engine::opt_flush_antis() {
  const auto w = static_cast<std::size_t>(g_current_worker);
  if (opt_flushing_[w]) return;  // already draining further up the stack
  auto& q = opt_anti_queues_[w];
  if (q.empty()) return;
  opt_flushing_[w] = 1;
  // Index-based walk: applying an anti can trigger a cascading rollback
  // that appends more antis (and reallocates q).
  std::size_t i = 0;
  while (i < q.size()) {
    Message a = std::move(q[i++]);
    deliver(std::move(a));
  }
  q.clear();
  opt_flushing_[w] = 0;
}

Engine::OptDebug Engine::opt_debug(int rank) const {
  const OptState& o = procs_[static_cast<std::size_t>(rank)]->opt_;
  OptDebug d;
  d.consumed_base = o.consumed_base;
  d.consumed_size = o.consumed.size();
  d.fossil_cursor = o.fossil_cursor;
  d.log_bytes = o.log_bytes;
  d.checkpoint_cursors.reserve(o.checkpoints.size());
  for (const Checkpoint& cp : o.checkpoints) {
    d.checkpoint_cursors.push_back(cp.cursor);
  }
  return d;
}

bool Engine::opt_throttled(const Process& p) const {
  const VTime w = config_.speculation_window;
  // One worker (MC included) never rolls back, so there is nothing to damp.
  if (w <= 0 || !threaded_run_) return false;
  if (opt_throttle_override_.load(std::memory_order_relaxed)) return false;
  const VTime g = gvt_.load(std::memory_order_relaxed);
  if (g > kVTimeNever - w) return false;  // saturate instead of overflow
  return p.clock_ > g + w;
}

void Engine::opt_retune_gvt() {
  const std::uint64_t cur = opt_log_bytes_.load(std::memory_order_relaxed);
  // Log pressure rising past the threshold: fossil-collect more
  // aggressively. Pressure flat or falling: back off toward (and past) the
  // baseline cadence, up to 4x — GVT passes are O(P) and pure overhead
  // when the logs stay small. Inputs are virtual-state byte counts, not
  // host timing, so the cadence (and the run) stays deterministic.
  if (cur > opt_log_bytes_last_pass_ && cur > opt_gvt_pressure_bytes_) {
    opt_gvt_interval_ = std::max<std::uint64_t>(16, opt_gvt_interval_ / 2);
  } else if (opt_gvt_interval_ < 4 * opt_gvt_base_) {
    opt_gvt_interval_ = std::min(
        4 * opt_gvt_base_, opt_gvt_interval_ + opt_gvt_interval_ / 4 + 1);
  }
  opt_log_bytes_last_pass_ = cur;
  opt_gvt_countdown_ = opt_gvt_interval_;
}

void Engine::opt_gvt_pass() {
  // Capture the retained-log high-water mark before fossil collection
  // below shrinks it; the retune that follows the pass reads the fold.
  opt_fold_log_bytes();
  VTime g = kVTimeNever;
  for (const auto& p : procs_) {
    if (!p->finished_) g = std::min(g, p->clock_);
  }
  // MC mode: messages parked in in-flight lanes (including antis) are
  // in transit and bound future deliveries.
  for (const auto& lane : inflight_) {
    for (const Message& m : lane.q) g = std::min(g, m.arrival);
  }
  if (g == kVTimeNever) return;
  if (g <= gvt_.load(std::memory_order_relaxed)) return;
  gvt_.store(g, std::memory_order_relaxed);
  gvt_passes_.fetch_add(1, std::memory_order_relaxed);
  for (const auto& p : procs_) opt_fossil_rank(*p, g);
}

void Engine::opt_fossil_rank(Process& p, VTime g) {
  OptState& o = p.opt_;
  if (!o.records.empty()) {
    // A record with arrival < g is final: any message still to come has
    // timestamp >= g and can no longer win the (arrival, src) choice.
    auto it = std::remove_if(
        o.records.begin(), o.records.end(),
        [g](const WildcardRecord& r) { return r.arrival < g; });
    opt_stat().fossil += static_cast<std::uint64_t>(o.records.end() - it);
    o.records.erase(it, o.records.end());
  }
  // Send-log pruning. Every future rollback targets a consumed entry with
  // arrival >= g (violations target live records; anti-cancellations
  // target entries whose anti — in transit or yet to be sent — has
  // arrival >= g), so sends issued before the first such entry can never
  // need an anti-message. Skip ranks mid-replay: their send_ordinal is
  // transiently rewound.
  if (o.replaying() || o.pending_unwind) return;
  const std::uint64_t log_end = o.consumed_base + o.consumed.size();
  while (o.fossil_cursor < log_end &&
         o.entry(o.fossil_cursor).msg.arrival < g) {
    ++o.fossil_cursor;
  }
  const std::uint64_t keep_from = o.fossil_cursor < log_end
                                      ? o.entry(o.fossil_cursor).sends_before
                                      : o.send_ordinal;
  if (keep_from > o.send_base) {
    const std::size_t drop =
        static_cast<std::size_t>(keep_from - o.send_base);
    STGSIM_DCHECK(drop <= o.sends.size());
    o.sends.erase(o.sends.begin(),
                  o.sends.begin() + static_cast<std::ptrdiff_t>(drop));
    o.send_base = keep_from;
  }
  // Consumption-log pruning, gated on checkpoints. Every future rollback
  // target k satisfies k >= fossil_cursor, and the restore point for k is
  // the newest checkpoint with cursor <= k — which is at or after the
  // newest checkpoint with cursor <= fossil_cursor. Entries below *that*
  // checkpoint can therefore never be replayed again: free them (payload
  // refcounts drop with the entries) and advance consumed_base. Older
  // checkpoints are superseded at the same time. Peak retained log is
  // O(checkpoint interval + per-statement fan-in), not O(history).
  if (o.checkpoints.empty()) return;
  std::size_t ci = o.checkpoints.size();
  while (ci > 0 && o.checkpoints[ci - 1].cursor > o.fossil_cursor) --ci;
  if (ci == 0) return;  // no committed checkpoint yet
  const std::uint64_t new_base = o.checkpoints[ci - 1].cursor;
  if (ci > 1) {
    o.checkpoints.erase(o.checkpoints.begin(),
                        o.checkpoints.begin() +
                            static_cast<std::ptrdiff_t>(ci - 1));
  }
  if (new_base > o.consumed_base) {
    const std::size_t n = static_cast<std::size_t>(new_base - o.consumed_base);
    for (std::size_t i = 0; i < n; ++i) {
      opt_log_release(p, o.consumed[i].msg);
    }
    o.consumed.erase(o.consumed.begin(),
                     o.consumed.begin() + static_cast<std::ptrdiff_t>(n));
    o.consumed_base = new_base;
  }
}

void Engine::promote_safe_wildcards(bool stuck) {
  // One O(P) scan gives the two smallest unfinished clocks; excluding the
  // parked receiver itself then costs O(1) per candidate.
  VTime min1 = kVTimeNever, min2 = kVTimeNever;
  int argmin = -1;
  for (const auto& q : procs_) {
    if (q->finished_) continue;
    if (q->clock_ < min1) {
      min2 = min1;
      min1 = q->clock_;
      argmin = q->rank_;
    } else if (q->clock_ < min2) {
      // Covers duplicates of min1 too: excluding argmin still leaves a
      // process at that clock, so min2 must equal min1 then.
      min2 = q->clock_;
    }
  }
  const VTime lat = wildcard_min_latency_.load(std::memory_order_relaxed);

  bool promoted = false;
  VTime best_arrival = kVTimeNever;
  int best_rank = -1;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < wildcard_pending_.size(); ++i) {
    const int rank = wildcard_pending_[i];
    Process& p = *procs_[static_cast<std::size_t>(rank)];
    if (!p.blocked_ || !p.wildcard_parked_) continue;  // woken since; drop
    VTime arrival = kVTimeNever;
    STGSIM_CHECK(p.peek_match(*p.waiting_on_, &arrival))
        << "parked wildcard receive on rank " << rank
        << " lost its queued candidate";
    const VTime lo = (p.rank_ == argmin) ? min2 : min1;
    if (lo == kVTimeNever || arrival < lo + lat) {
      wake_process(p, arrival);
      promoted = true;
      continue;
    }
    if (arrival < best_arrival ||
        (arrival == best_arrival && rank < best_rank)) {
      best_arrival = arrival;
      best_rank = rank;
    }
    wildcard_pending_[keep++] = rank;
  }
  wildcard_pending_.resize(keep);

  if (!promoted && stuck && best_rank >= 0) {
    // Nothing can run, so no further message will ever be queued: the
    // earliest-arrival candidate is exactly what the safety bound would
    // eventually admit. Wake only that one; its commit may unblock others
    // for real (bound-safe) promotion later.
    if (mc_active_) {
      // Several parked ranks tied at the same candidate arrival is the one
      // point where the (arrival, rank) rule is a genuine tie-break rather
      // than a timestamp-forced choice. Expose the tie to the oracle so
      // the checker can prove the committed results do not depend on it.
      std::vector<ChoiceOption> tied;
      for (int rank : wildcard_pending_) {
        Process& q = *procs_[static_cast<std::size_t>(rank)];
        VTime arrival = kVTimeNever;
        STGSIM_CHECK(q.peek_match(*q.waiting_on_, &arrival));
        if (arrival == best_arrival) {
          ChoiceOption c;
          c.kind = ChoiceOption::Kind::kWildcard;
          c.rank = rank;
          tied.push_back(c);
        }
      }
      if (tied.size() > 1) {
        best_rank = tied[oracle_choose(tied)].rank;
      }
    }
    Process& p = *procs_[static_cast<std::size_t>(best_rank)];
    wake_process(p, best_arrival);
    wildcard_pending_.erase(
        std::find(wildcard_pending_.begin(), wildcard_pending_.end(),
                  best_rank));
  }
}

void Engine::resume_process(Process& p) {
  if (config_.optimistic && p.opt_.pending_unwind) opt_finish_unwind(p);
  STGSIM_DCHECK(!p.finished_ && !p.blocked_);
  if (observer_ != nullptr) observer_->on_resume(p.rank_, p.clock_);
  slices_.fetch_add(1, std::memory_order_relaxed);
  if (config_.record_host_trace) {
    p.current_slice_ = trace_.size();
    trace_.push_back(Slice{p.rank_, 0.0, {}});
    p.slice_begin_sec_ = thread_cpu_sec();
  }
  p.opt_.fresh = false;
  g_current_proc = &p;
  p.fiber_->resume();
  g_current_proc = nullptr;
  if (config_.record_host_trace) {
    trace_[p.current_slice_].duration_sec =
        thread_cpu_sec() - p.slice_begin_sec_;
  }
  if (p.fiber_->finished()) {
    p.finished_ = true;
  } else {
    STGSIM_CHECK(p.blocked_)
        << "process " << p.rank_ << " yielded without blocking or finishing";
  }
}

void Engine::split_slice(Process& p) {
  const double now = thread_cpu_sec();
  trace_[p.current_slice_].duration_sec = now - p.slice_begin_sec_;
  p.current_slice_ = trace_.size();
  trace_.push_back(Slice{p.rank_, 0.0, {}});
  p.slice_begin_sec_ = now;
}

void Engine::note_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_) error_ = std::move(e);
  has_error_.store(true, std::memory_order_release);
}

void Engine::abort_run(std::exception_ptr fallback) {
  aborting_ = true;
  // Unwind every suspended fiber so its RAII state (arrays, requests,
  // inbox payloads) is destroyed; never-started fibers hold no state.
  // Every started fiber is suspended at a blocking_match yield, which
  // throws FiberAborted once aborting_ is set: a blocked one, one woken but
  // not yet resumed, and a rolled-back one whose old incarnation was never
  // re-resumed (no fresh fiber is attached during an abort).
  for (auto& p : procs_) {
    if (p->finished_ || p->fiber_ == nullptr || p->opt_.fresh) continue;
    p->opt_.pending_unwind = false;
    p->blocked_ = false;
    p->waiting_on_ = nullptr;
    p->fiber_->resume();
    p->finished_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::move(fallback);
  }
  std::rethrow_exception(error_);
}

void Engine::raise_deadlock() {
  std::vector<DeadlockError::BlockedRank> blocked;
  for (const auto& p : procs_) {
    if (p->finished_) continue;
    DeadlockError::BlockedRank b;
    b.rank = p->rank_;
    b.clock = p->clock_;
    b.home_worker = p->home_worker_;
    if (p->waiting_on_ != nullptr) {
      b.waiting_src = p->waiting_on_->src;
      b.waiting_tag = p->waiting_on_->user_tag;
      b.waiting_what = p->waiting_on_->what;
    } else {
      b.waiting_what = "(not blocked)";
    }
    blocked.push_back(std::move(b));
  }

  auto describe = [](std::ostream& os, const DeadlockError::BlockedRank& b) {
    os << " rank " << b.rank << " @" << vtime_to_string(b.clock) << " in "
       << b.waiting_what << "(src=";
    if (b.waiting_src == MatchSpec::kAnySource) {
      os << "ANY";
    } else {
      os << b.waiting_src;
    }
    os << ", tag=";
    if (b.waiting_tag < 0) {
      os << "ANY";
    } else {
      os << b.waiting_tag;
    }
    os << ");";
  };

  std::ostringstream os;
  os << "simulation deadlock: " << blocked.size()
     << " unfinished process(es) blocked with no matching message in flight"
     << " and no future wakeup;";
  if (threaded_run_) {
    // Per-partition detail: which worker owns the blocked ranks and what
    // each is waiting on, so a parallel deadlock report reads like the
    // one-worker one instead of an undifferentiated rank list.
    std::map<int, std::vector<const DeadlockError::BlockedRank*>> by_worker;
    for (const auto& b : blocked) by_worker[b.home_worker].push_back(&b);
    for (const auto& [w, ranks] : by_worker) {
      os << " worker " << w << " (" << ranks.size() << " blocked):";
      std::size_t shown = 0;
      for (const auto* b : ranks) {
        if (shown++ == 4) {
          os << " ... (" << ranks.size() - 4 << " more);";
          break;
        }
        describe(os, *b);
      }
    }
  } else {
    std::size_t shown = 0;
    for (const auto& b : blocked) {
      if (shown++ == 8) {
        os << " ... (" << blocked.size() - 8 << " more)";
        break;
      }
      describe(os, b);
    }
  }
  abort_run(std::make_exception_ptr(DeadlockError(os.str(), std::move(blocked))));
}

void Engine::raise_budget(BudgetExceededError::Kind kind,
                          const std::string& what) {
  auto err = std::make_exception_ptr(BudgetExceededError(kind, what));
  if (Fiber::current() != nullptr) {
    // In fiber context: unwind this process body; the wrapper records the
    // error and the scheduler aborts the rest of the run.
    std::rethrow_exception(err);
  }
  abort_run(std::move(err));
}

bool Engine::host_budget_exhausted() const {
  return config_.max_host_seconds > 0.0 &&
         now_host_sec() > config_.max_host_seconds;
}

RunResult Engine::run() {
  STGSIM_CHECK(!ran_) << "Engine::run() is single-shot";
  ran_ = true;
  STGSIM_CHECK(body_ != nullptr) << "set_body() before run()";

  procs_.reserve(static_cast<std::size_t>(config_.num_processes));
  SplitMix64 seeder(config_.seed);
  for (int r = 0; r < config_.num_processes; ++r) {
    auto p = std::make_unique<Process>();
    p->engine_ = this;
    p->rank_ = r;
    if (config_.max_virtual_time > 0) {
      p->vtime_budget_ = config_.max_virtual_time;
    }
    const std::uint64_t rank_seed = seeder.next();
    p->rng_.reseed(rank_seed);
    p->opt_.rng_seed = rank_seed;
    if (!config_.partition.empty()) {
      STGSIM_CHECK_EQ(config_.partition.size(),
                      static_cast<std::size_t>(config_.num_processes));
      const int w = config_.partition[static_cast<std::size_t>(r)];
      STGSIM_CHECK(w >= 0 && w < config_.host_workers)
          << "partition maps rank " << r << " to worker " << w;
      p->home_worker_ = w;
    } else {
      p->home_worker_ = static_cast<int>(
          static_cast<long long>(r) * config_.host_workers /
          config_.num_processes);
    }
    attach_fresh_fiber(*p);
    procs_.push_back(std::move(p));
  }

  const auto nctx = static_cast<std::size_t>(config_.host_workers);
  worker_ready_.assign(nctx, {});
  worker_stats_.assign(nctx, WorkerStat{});
  if (config_.optimistic) {
    opt_anti_queues_.clear();
    opt_anti_queues_.resize(nctx);
    opt_flushing_.assign(nctx, 0);
    opt_floor_ = std::make_unique<std::atomic<VTime>[]>(nctx);
    opt_out_min_ = std::make_unique<std::atomic<VTime>[]>(nctx);
    for (std::size_t i = 0; i < nctx; ++i) {
      opt_floor_[i].store(0, std::memory_order_relaxed);
      opt_out_min_[i].store(kVTimeNever, std::memory_order_relaxed);
    }
    for (auto& p : procs_) {
      p->opt_.effective_interval = config_.checkpoint_interval;
    }
    // The GVT baseline is at least the rank count, so the O(P) pass costs
    // O(1) amortized per scheduler pop regardless of scale, and ~16 KiB of
    // logged state per rank is steady state (one in-flight eager message
    // each), not memory pressure.
    opt_gvt_base_ = std::max<std::uint64_t>(
        config_.gvt_interval,
        static_cast<std::uint64_t>(config_.num_processes));
    opt_gvt_pressure_bytes_ = std::max<std::uint64_t>(
        std::uint64_t{1} << 20,
        (std::uint64_t{16} << 10) *
            static_cast<std::uint64_t>(config_.num_processes));
    opt_gvt_interval_ = opt_gvt_base_;
    opt_gvt_countdown_ = opt_gvt_interval_;
    opt_log_bytes_last_pass_ = 0;
    opt_log_bytes_.store(0, std::memory_order_relaxed);
    opt_log_bytes_peak_.store(0, std::memory_order_relaxed);
    opt_throttle_override_.store(false, std::memory_order_relaxed);
  }

  host_t0_sec_ = steady_now_sec();

  run_rounds();

  if (config_.optimistic) {
    pstats_.rollback_depth_hist.assign(WorkerStat::kDepthBuckets, 0);
    for (const auto& ws : worker_stats_) {
      pstats_.rollbacks += ws.rollbacks;
      pstats_.anti_messages += ws.antis;
      pstats_.fossil_finalized += ws.fossil;
      pstats_.replayed_events += ws.replayed;
      for (int b = 0; b < WorkerStat::kDepthBuckets; ++b) {
        pstats_.rollback_depth_hist[static_cast<std::size_t>(b)] +=
            ws.depth_hist[b];
      }
    }
    while (!pstats_.rollback_depth_hist.empty() &&
           pstats_.rollback_depth_hist.back() == 0) {
      pstats_.rollback_depth_hist.pop_back();
    }
    for (const auto& p : procs_) {
      pstats_.checkpoints_taken += p->opt_.checkpoints_taken;
    }
    pstats_.gvt_passes = gvt_passes_.load(std::memory_order_relaxed);
    // Final fold: a run whose last stretch never hit a GVT pass (or that
    // disabled checkpointing and grew the log to the end) still reports
    // its true high-water mark.
    opt_fold_log_bytes();
    pstats_.log_bytes_peak =
        opt_log_bytes_peak_.load(std::memory_order_relaxed);
  }

  RunResult res;
  res.per_rank_completion.reserve(procs_.size());
  for (const auto& p : procs_) {
    STGSIM_CHECK(p->finished_);
    res.per_rank_completion.push_back(p->clock_);
    res.completion = std::max(res.completion, p->clock_);
  }
  res.host_seconds = now_host_sec();
  res.messages_delivered = messages_delivered_;
  res.slices = config_.record_host_trace
                   ? trace_.size()
                   : slices_.load(std::memory_order_relaxed);
  res.peak_target_bytes = memory_.peak_bytes();
  res.final_target_bytes = memory_.current_bytes();
  return res;
}

std::size_t Engine::oracle_choose(const std::vector<ChoiceOption>& options) {
  STGSIM_DCHECK(!options.empty());
  // Under MC the oracle is only consulted inside run_partition_round (the
  // barrier's promotion never finds a tie there: the round's own stuck
  // promotion already woke a rank or found no candidate), so an oracle
  // exception (the checker's prefix-abandon) reaches run_rounds, which
  // unwinds the suspended fibers.
  const std::size_t idx = oracle_->choose(options);
  STGSIM_CHECK_LT(idx, options.size())
      << "schedule oracle chose out of range";
  return idx;
}

int Engine::oracle_pick(IndexedMinHeap<VTime>& heap) {
  // Canonical option order: every ready rank ascending, then the head of
  // every non-empty in-flight lane in (src, dst) order.
  std::vector<ChoiceOption> options;
  for (int r = 0; r < config_.num_processes; ++r) {
    if (!heap.contains(r)) continue;
    ChoiceOption c;
    c.kind = ChoiceOption::Kind::kResume;
    c.rank = r;
    options.push_back(c);
  }
  for (const auto& lane : inflight_) {
    if (lane.q.empty()) continue;
    ChoiceOption c;
    c.kind = ChoiceOption::Kind::kDeliver;
    c.src = lane.src;
    c.dst = lane.dst;
    c.tag = lane.q.front().tag;
    options.push_back(c);
  }
  const ChoiceOption c = options[oracle_choose(options)];
  if (c.kind == ChoiceOption::Kind::kResume) {
    heap.erase(c.rank);
    return c.rank;
  }
  InflightLane& lane = inflight_lane(c.src, c.dst);
  Message m = std::move(lane.q.front());
  lane.q.pop_front();
  --inflight_total_;
  deliver_now(std::move(m));
  return -1;
}

std::uint64_t Engine::drain_mailboxes(int worker) {
  const int workers = config_.host_workers;
  // No peers: nothing to drain, and no drain order for an oracle to permute.
  if (workers == 1) return 0;
  std::uint64_t drained = 0;
  Message m;
  auto drain_from = [&](int u) {
    SpscLane<Message>& lane =
        *mailboxes_[static_cast<std::size_t>(u) *
                        static_cast<std::size_t>(workers) +
                    static_cast<std::size_t>(worker)];
    while (lane.try_pop(&m)) {
      deliver_now(std::move(m));
      ++drained;
    }
  };
  if (oracle_ != nullptr) {
    // Schedule-checker hook: the claim the drain order is held to is that
    // it never affects simulated results (every cross-channel choice has
    // an explicit tie-break). Let the oracle permute it; validate that the
    // result is still a permutation of the sender set.
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(workers) - 1);
    for (int u = 0; u < workers; ++u) {
      if (u != worker) order.push_back(u);
    }
    const std::size_t n = order.size();
    oracle_->permute_drain_order(worker, order);
    STGSIM_CHECK_EQ(order.size(), n) << "drain order must stay a permutation";
    std::uint64_t seen = 0;
    for (int u : order) {
      STGSIM_CHECK(u >= 0 && u < workers && u != worker &&
                   (seen & (1ULL << u)) == 0)
          << "drain order must stay a permutation of the sender set";
      seen |= 1ULL << u;
      drain_from(u);
    }
    return drained;
  }
  for (int u = 0; u < workers; ++u) {
    if (u == worker) continue;
    drain_from(u);
  }
  return drained;
}

void Engine::run_partition_round(int worker) {
  g_current_worker = worker;
  IndexedMinHeap<VTime>& heap = worker_heaps_[static_cast<std::size_t>(worker)];
  std::vector<int>& local_ready = worker_ready_[static_cast<std::size_t>(worker)];
  WorkerStat& ws = worker_stats_[static_cast<std::size_t>(worker)];

  // round_running_ counts workers that currently have (or may produce)
  // local work. A worker leaves the count when its heap and mailboxes are
  // both empty, rejoins if a mailbox delivery wakes one of its ranks, and
  // exits the round when the count hits zero and a last drain finds
  // nothing. A peer that rejoins after that can still push to this worker;
  // the barrier drains what it leaves.
  bool active = true;
  std::uint64_t iter = 0;
  const int workers = config_.host_workers;
  VTime opt_fossil_seen =
      config_.optimistic ? gvt_.load(std::memory_order_relaxed) : 0;
  // Ranks held out of this round because they ran past the speculation
  // window; re-queued for the next round at exit (GVT will have advanced
  // at the barrier). The scheduler thread sets opt_throttle_override_ when
  // a whole round is throttled into making no progress.
  std::vector<int> throttled;
  // Mid-round GVT publish (optimistic mode). Each worker periodically
  // publishes a single word: min(its unfinished ranks' clocks, the
  // smallest arrival it has put in transit since the barrier). One
  // combined value — not two separately-read atomics — so a reader can
  // never pair a fresh (high) clock floor with a stale (missing) in-
  // transit entry from the same worker. By induction over send chains,
  // every published value lower-bounds every in-flight and future message
  // arrival, so min over all workers is a sound (lagging) GVT estimate;
  // the barrier recomputes it exactly.
  auto opt_publish_and_fossil = [&] {
    VTime f = opt_out_min_[static_cast<std::size_t>(worker)].load(
        std::memory_order_relaxed);
    for (const auto& pp : procs_) {
      if (pp->home_worker_ == worker && !pp->finished_) {
        f = std::min(f, pp->clock_);
      }
    }
    opt_floor_[static_cast<std::size_t>(worker)].store(
        f, std::memory_order_release);
    VTime g = kVTimeNever;
    for (int v = 0; v < workers; ++v) {
      g = std::min(g, opt_floor_[static_cast<std::size_t>(v)].load(
                          std::memory_order_acquire));
    }
    if (g != kVTimeNever) {
      VTime cur = gvt_.load(std::memory_order_relaxed);
      while (g > cur) {
        if (gvt_.compare_exchange_weak(cur, g,
                                       std::memory_order_relaxed)) {
          gvt_passes_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    }
    const VTime seen = gvt_.load(std::memory_order_relaxed);
    if (seen > opt_fossil_seen) {
      opt_fossil_seen = seen;
      for (const auto& pp : procs_) {
        if (pp->home_worker_ == worker) opt_fossil_rank(*pp, seen);
      }
    }
  };
  auto take_ready = [&] {
    for (int woken : local_ready) {
      heap.push(woken, procs_[static_cast<std::size_t>(woken)]->clock_);
    }
    local_ready.clear();
  };
  // Under an oracle an in-flight lane head is work too. A conservative run
  // still ends once every rank finished (nothing is left to receive what
  // the lanes hold); an optimistic one drains them first, since an
  // undelivered anti-message or straggler can roll a finished rank back.
  auto has_work = [&] {
    if (!heap.empty()) return true;
    if (inflight_total_ == 0) return false;
    if (config_.optimistic) return true;
    return std::any_of(procs_.begin(), procs_.end(),
                       [](const auto& pp) { return !pp->finished_; });
  };
  for (;;) {
    // Cross-partition messages pushed by peers since the last check;
    // wakeups land on local_ready.
    if (threaded_run_) ws.mailbox += drain_mailboxes(worker);
    take_ready();
    if (!threaded_run_ && inflight_total_ == 0 &&
        !wildcard_pending_.empty()) {
      // One worker: no clock races, so parked wildcards are promoted
      // between slices instead of waiting for the barrier. With every
      // in-flight lane drained, no message can appear before some rank
      // runs, so each parked candidate set is final.
      promote_safe_wildcards(/*stuck=*/heap.empty());
      take_ready();
    }

    if (!has_work()) {
      if (active) {
        active = false;
        round_running_.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (has_error_.load(std::memory_order_acquire)) break;
      if (round_running_.load(std::memory_order_acquire) == 0) {
        // Everyone is idle. One last drain: a peer may have pushed right
        // before it went idle; the acquire above makes that push visible.
        const std::uint64_t drained = drain_mailboxes(worker);
        if (drained == 0) break;
        ws.mailbox += drained;
        continue;
      }
      // A peer is still running and may yet feed us through a mailbox.
      // An idle spin that never probes the watchdog could outlive the
      // budget if that peer is stuck in a long slice.
      if ((++iter & 1023U) == 0 && host_budget_exhausted()) {
        note_error(std::make_exception_ptr(BudgetExceededError(
            BudgetExceededError::Kind::kHostWallClock,
            "host wall-clock watchdog fired in worker " +
                std::to_string(worker))));
        break;
      }
      std::this_thread::yield();
      continue;
    }

    if (!active) {
      active = true;
      round_running_.fetch_add(1, std::memory_order_acq_rel);
    }
    // The round barrier only probes the wall-clock watchdog between
    // rounds; a round that never drains (e.g. two processes in the same
    // partition ping-ponging without advancing their clocks, or a rank
    // that blocks before it ever calls advance()) would otherwise spin
    // forever. Probe in-loop; the barrier tears the run down.
    if ((++iter & 1023U) == 0 && host_budget_exhausted()) {
      note_error(std::make_exception_ptr(BudgetExceededError(
          BudgetExceededError::Kind::kHostWallClock,
          "host wall-clock watchdog fired in worker " +
              std::to_string(worker))));
      break;
    }
    if (config_.optimistic) {
      if (threaded_run_) {
        if ((iter & 255U) == 0) opt_publish_and_fossil();
      } else if (--opt_gvt_countdown_ == 0) {
        // One worker: no clock races, so the exact pass replaces the
        // publish, on an adaptive cadence that amortizes its O(P) scan.
        opt_gvt_pass();
        opt_retune_gvt();
      }
    }
    int rank;
    if (mc_active_) {
      rank = oracle_pick(heap);
      if (rank < 0) continue;  // delivered an in-flight lane head
    } else {
      rank = heap.pop();
    }
    Process& p = *procs_[static_cast<std::size_t>(rank)];
    if (config_.optimistic && opt_throttled(p)) {
      throttled.push_back(rank);
      continue;
    }
    const VTime clock_before = p.clock_;
    resume_process(p);
    ws.busy_vtime += p.clock_ - clock_before;
    ++ws.slices;
    // Stop at the first error: a failed slice ends the round before any
    // other rank runs.
    if (has_error_.load(std::memory_order_acquire)) break;
  }
  if (active) round_running_.fetch_sub(1, std::memory_order_acq_rel);
  local_ready.insert(local_ready.end(), throttled.begin(), throttled.end());
}

namespace {

/// Log2-ns buckets for ParallelStats::window_advance_hist.
constexpr std::size_t kAdvanceBuckets = 48;

std::size_t advance_bucket(VTime adv) {
  if (adv <= 0) return 0;
  auto v = static_cast<std::uint64_t>(adv);
  std::size_t b = 1;
  while (v > 1 && b + 1 < kAdvanceBuckets) {
    v >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void Engine::run_rounds() {
  const int workers = config_.host_workers;
  // Several workers run on a thread pool and race each other's clocks;
  // a single worker runs inline on this thread, where the safety bound can
  // be evaluated mid-slice and the round/mailbox counters stay zero.
  threaded_run_ = workers > 1;
  worker_wildcard_pending_.assign(static_cast<std::size_t>(workers), {});
  worker_heaps_.resize(static_cast<std::size_t>(workers));
  for (auto& h : worker_heaps_) h.reset(config_.num_processes);
  const auto lanes = static_cast<std::size_t>(workers) *
                     static_cast<std::size_t>(workers);
  mailboxes_.clear();
  mailboxes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    mailboxes_.push_back(std::make_unique<SpscLane<Message>>());
  }
  pstats_ = ParallelStats{};
  if (threaded_run_) pstats_.window_advance_hist.assign(kAdvanceBuckets, 0);
  for (const auto& p : procs_) make_ready(*p);

  // A worker-side exception (simulator invariant failure) must not escape
  // a pool thread — record it and let the barrier abort the run. Pool
  // workers persist for the whole run; each pool round runs until every
  // worker is idle.
  auto run_worker = [this](int w) {
    try {
      run_partition_round(w);
    } catch (...) {
      note_error(std::current_exception());
    }
  };
  std::optional<WorkerPool> pool;
  if (threaded_run_) pool.emplace(workers, run_worker);

  auto any_ready = [&] {
    for (const auto& v : worker_ready_) {
      if (!v.empty()) return true;
    }
    return false;
  };

  VTime prev_min = kVTimeNever;
  while (true) {
    if (!any_ready()) {
      bool all_done = true;
      for (const auto& p : procs_) all_done = all_done && p->finished_;
      if (all_done) break;
      raise_deadlock();
    }
    if (host_budget_exhausted()) {
      raise_budget(BudgetExceededError::Kind::kHostWallClock,
                   "host wall-clock watchdog fired at round barrier");
    }

    if (threaded_run_) {
      VTime min_clock = kVTimeNever;
      for (const auto& p : procs_) {
        if (!p->finished_) min_clock = std::min(min_clock, p->clock_);
      }
      if (config_.optimistic) {
        // Seed the asynchronous-GVT inputs for this round: each worker's
        // clock floor starts at the global min (clocks only matter once a
        // rollback lowers them, and the triggering message's arrival is
        // covered by the sender's out_min or the sender's floor), and the
        // in-transit minimum restarts empty.
        for (int v = 0; v < workers; ++v) {
          opt_floor_[static_cast<std::size_t>(v)].store(
              min_clock, std::memory_order_relaxed);
          opt_out_min_[static_cast<std::size_t>(v)].store(
              kVTimeNever, std::memory_order_relaxed);
        }
      }
      ++pstats_.rounds;
      pstats_.window_advance_hist[advance_bucket(
          prev_min == kVTimeNever ? 0 : min_clock - prev_min)] += 1;
      prev_min = min_clock;
    }

    std::uint64_t slices_before = 0;
    for (const auto& w : worker_stats_) slices_before += w.slices;
    round_running_.store(workers, std::memory_order_relaxed);
    if (pool) {
      threaded_phase_ = true;
      pool->run_round();
      threaded_phase_ = false;
    } else {
      run_worker(0);
    }
    if (error_) abort_run(error_);

    // Barrier reached: deliver what peers pushed after a worker's last
    // drain, receiver by receiver. Every lane is FIFO, so per-channel
    // order survives whichever side of the barrier a message lands on.
    for (int v = 0; v < workers; ++v) {
      worker_stats_[static_cast<std::size_t>(v)].barrier +=
          drain_mailboxes(v);
    }

    // Wildcard receives always park during a threaded round (clocks
    // race); now the barrier has frozen every clock and drained every
    // lane, evaluate the safety bound. Worker lists merge in fixed
    // order, and promotion itself is (arrival, rank)-deterministic, so
    // this preserves the one-worker commit choices.
    for (auto& pending : worker_wildcard_pending_) {
      wildcard_pending_.insert(wildcard_pending_.end(), pending.begin(),
                               pending.end());
      pending.clear();
    }
    if (!wildcard_pending_.empty()) {
      promote_safe_wildcards(/*stuck=*/!any_ready());
    }

    if (config_.optimistic) {
      // Exact GVT at the barrier: every worker is idle and every lane
      // drained. (The drain above may itself have triggered rollbacks —
      // on this thread — so clocks are read after it.)
      opt_gvt_pass();
      if (threaded_run_ && config_.speculation_window > 0) {
        // A round in which every worker only stashed throttled ranks made
        // zero slices while work remains: GVT cannot advance (the minimum
        // rank is blocked on a throttled peer), so let the next round run
        // unthrottled rather than deadlock at the window edge.
        std::uint64_t slices_after = 0;
        for (const auto& w : worker_stats_) slices_after += w.slices;
        opt_throttle_override_.store(
            slices_after == slices_before && any_ready(),
            std::memory_order_relaxed);
      }
    }
  }

  if (threaded_run_) {
    for (const auto& ws : worker_stats_) {
      pstats_.intra_messages += ws.intra;
      pstats_.mailbox_messages += ws.mailbox;
      pstats_.barrier_messages += ws.barrier;
      pstats_.worker_busy_vtime.push_back(ws.busy_vtime);
      pstats_.worker_slices.push_back(ws.slices);
    }
    // Trim the histogram to the last populated bucket.
    while (!pstats_.window_advance_hist.empty() &&
           pstats_.window_advance_hist.back() == 0) {
      pstats_.window_advance_hist.pop_back();
    }
  }
  threaded_run_ = false;
}

double replay_host_trace(const std::vector<Slice>& trace, int num_processes,
                         int workers, const HostModel& model) {
  STGSIM_CHECK_GT(workers, 0);
  STGSIM_CHECK_GT(num_processes, 0);

  auto worker_of = [&](int lp) {
    return static_cast<int>(static_cast<long long>(lp) * workers /
                            num_processes);
  };

  std::vector<double> worker_free(static_cast<std::size_t>(workers), 0.0);
  std::vector<double> slice_start(trace.size(), 0.0);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Slice& s = trace[i];
    const int w = worker_of(s.lp);
    double ready = worker_free[static_cast<std::size_t>(w)];
    for (const Slice::Dep& d : s.deps) {
      STGSIM_DCHECK(d.slice <= i);
      double avail =
          slice_start[d.slice] + d.offset_sec * model.duration_scale;
      if (worker_of(d.producer_lp) != w) avail += model.cross_worker_msg_sec;
      ready = std::max(ready, avail);
    }
    slice_start[i] = ready;
    worker_free[static_cast<std::size_t>(w)] =
        ready + s.duration_sec * model.duration_scale +
        model.per_slice_overhead_sec;
  }

  double makespan = 0.0;
  for (double t : worker_free) makespan = std::max(makespan, t);
  return makespan;
}

}  // namespace stgsim::simk
