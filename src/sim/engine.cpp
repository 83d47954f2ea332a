#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

namespace stgsim::simk {

namespace {

/// The partition-round worker this thread runs: set by run_partition_round
/// (worker 0 is the caller of Engine::run, so it is 0 on every other
/// thread). Indexes the per-worker stat cells and anti-message queues; the
/// quiescence step uses the cells of the worker that arrived last. Debug
/// builds check arena ownership against it.
thread_local int g_current_worker = 0;

/// The process whose fiber this thread is currently executing (null in
/// scheduler context). Used to assert a rank never rolls itself back.
thread_local void* g_current_proc = nullptr;

double steady_now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::~Process() {
  // Unconsumed messages (legal at exit, like unmatched MPI sends) go back
  // to the home worker's arena; the arenas outlive procs_ by declaration
  // order. The workers have joined, so the owner rule no longer applies.
  if (engine_ == nullptr) return;
  ObjectArena<Message>& arena = engine_->worker_at(home_worker_).arena;
  for (auto& ch : channels_) {
    MsgNode* n = ch.head;
    while (n != nullptr) {
      MsgNode* next = n->next;
      arena.recycle(n);
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
    if (opt_.saving) {
      msg.tainted = true;
      opt_.sends.push_back(
          SendRecord{msg.dst, msg.seq, msg.sent_at, msg.arrival});
    }
  }
  engine_->deliver(std::move(msg));
}

Process::Match Process::find_match(const MatchSpec& spec,
                                   std::uint64_t* probes) {
  // Locals for the counts and the best key: the loop then keeps them in
  // registers instead of reloading through pointers on every node.
  std::uint64_t seen = 0;
  Match best;
  if (spec.src != MatchSpec::kAnySource && spec.any_of == nullptr) {
    if (Channel* ch = find_channel(spec.src)) {
      MsgNode* prev = nullptr;
      for (MsgNode* n = ch->head; n != nullptr; prev = n, n = n->next) {
        ++seen;
        if (spec.accepts(n->value)) {
          best = Match{ch, n, prev};
          break;
        }
      }
    }
  } else {
    // Wildcard: per MPI, messages from one source are matched in send
    // order; across sources we pick the earliest arrival (ties by source
    // id) among each channel's first acceptable message. The explicit
    // tie-break makes channel iteration order irrelevant.
    VTime best_arrival = kVTimeNever;
    int best_src = -1;
    for (auto& ch : channels_) {
      MsgNode* prev = nullptr;
      for (MsgNode* n = ch.head; n != nullptr; prev = n, n = n->next) {
        ++seen;
        if (spec.accepts(n->value)) {
          if (n->value.arrival < best_arrival ||
              (n->value.arrival == best_arrival && ch.src < best_src)) {
            best = Match{&ch, n, prev};
            best_arrival = n->value.arrival;
            best_src = ch.src;
          }
          break;  // only the first acceptable message per channel competes
        }
      }
    }
  }
  *probes += seen;
  return best;
}

bool Process::deferring() const {
  return engine_->config_.optimistic && !opt_.saving && opt_.cursor() > 0;
}

void Process::take(const MatchSpec& spec, const Match& f, Message* out) {
  unlink(*f.ch, f.node, f.prev);
  *out = engine_->arena_of(*this).release(f.node);
  if (!engine_->config_.optimistic) return;
  if (!opt_.saving && speculative(spec, *out)) {
    if (opt_.cursor() == 0) {
      engine_->opt_start_saving(*this);  // rank start is the restore point
    } else {
      // The bound admitted the step, so no rollback can undo it. The
      // checkpoint it arms is the restore point saving starts from.
      opt_.admitted = false;
      ++engine_->opt_stat().deferred;
      if (engine_->config_.checkpoint_interval > 0) opt_.checkpoint_due = true;
    }
  }
  if (!opt_.saving) {
    ++opt_.consumed_base;  // a clean rank only counts its consumptions
    return;
  }
  // Consumption log: the replay feed and the anti-message lookup both need
  // the message back after the fiber has destroyed its copy. clone_message
  // shares the payload (refcount bump, no byte copy).
  ConsumedEntry e;
  e.msg = engine_->clone_message(*out);
  e.sends_before = opt_.send_ordinal;
  engine_->opt_log_charge(*this, e.msg);
  opt_.consumed.push_back(std::move(e));
  engine_->opt_note_consume(*this);
}

bool Process::try_match(const MatchSpec& spec, Message* out) {
  bool deferred = false;
  return match(spec, out, &deferred);
}

bool Process::match(const MatchSpec& spec, Message* out, bool* deferred) {
  if (engine_->config_.optimistic && opt_.replaying()) {
    // Rollback replay: consumptions come from the log, not the inbox
    // (saw_wildcard_recv_ was already set by the original execution).
    return engine_->opt_feed_replay(*this, spec, out);
  }
  // Stored once: the flag shares a line with fields every message reads.
  if (spec.is_wildcard() &&
      !engine_->saw_wildcard_recv_.load(std::memory_order_relaxed)) {
    engine_->saw_wildcard_recv_.store(true, std::memory_order_relaxed);
  }
  // Probe accounting for the observer: one local increment per inspected
  // node, reported once per attempt (never per node).
  std::uint64_t probes = 0;
  const Match f = find_match(spec, &probes);
  // A clean rank past its first consumption has no restore point: its
  // speculative step waits until the bound passes the candidate.
  *deferred = f.node != nullptr && speculative(spec, f.node->value) &&
              deferring() && !opt_.admitted &&
              !engine_->bound_passed(*this, candidate(spec, f.node->value));
  const bool hit = f.node != nullptr && !*deferred;
  if (hit) take(spec, f, out);
  if (engine_->observer_ != nullptr) {
    engine_->observer_->on_match(rank_, probes, hit);
  }
  return hit;
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
  std::uint64_t probes = 0;
  // find_match only reads the inbox.
  const Match f = const_cast<Process*>(this)->find_match(spec, &probes);
  // A clean rank's speculative step is blocking_match's to take, once the
  // bound passes it.
  if (f.node == nullptr || (deferring() && speculative(spec, f.node->value))) {
    return false;
  }
  if (arrival != nullptr) *arrival = f.node->value.arrival;
  return true;
}

Message Process::blocking_match(const MatchSpec& spec) {
  Message out;
  if (engine_->config_.optimistic) {
    // Optimistic mode: commit on sight. A saving rank's wildcard commit is
    // speculative — record it so a straggler that would have won the
    // (arrival, src) choice triggers rollback (the conservative safety
    // bound, enforced after the fact). A clean rank past its first
    // consumption parks a speculative step instead, until the bound passes
    // it. The loop re-probes after every wake: the waking message may have
    // been annihilated by an anti-message before this fiber actually ran.
    for (;;) {
      const bool fed = opt_.replaying();
      bool deferred = false;
      if (match(spec, &out, &deferred)) {
        if (!fed && spec.is_wildcard() && opt_.saving) {
          engine_->opt_record_wildcard(*this, spec, out);
        }
        return out;
      }
      blocked_ = true;
      waiting_on_ = spec;
      if (deferred) engine_->park_wildcard(*this);
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
    waiting_on_ = spec;
  } else {
    // A wildcard receive may only commit when no slower-clocked process
    // can still produce an earlier-arriving match. If the best queued
    // candidate is not yet bound-safe (never, mid-slice, in MC mode), block
    // and park for promotion.
    VTime arrival = kVTimeNever;
    if (peek_match(spec, &arrival) &&
        engine_->wildcard_commit_safe(*this, arrival)) {
      STGSIM_CHECK(try_match(spec, &out));
      return out;
    }
    blocked_ = true;
    waiting_on_ = spec;
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
  workers_ = std::make_unique<Worker[]>(
      static_cast<std::size_t>(config_.host_workers));
  for (int w = 0; w < config_.host_workers; ++w) {
    worker_at(w).run_stack.emplace(config_.fiber_stack_bytes);
  }
  memory_.set_cap(config_.memory_cap_bytes);
  observer_ = config_.observer;
  oracle_ = config_.oracle;
  mc_active_ = oracle_ != nullptr && config_.host_workers == 1;
  if (config_.optimistic) {
    STGSIM_CHECK(config_.inject != Inject::kUnsafeWildcard)
        << "unsafe-wildcard injection targets the conservative safety "
           "bound; use commit-before-gvt against the optimistic scheduler";
  } else {
    STGSIM_CHECK(config_.inject != Inject::kCommitBeforeGvt)
        << "commit-before-gvt injection requires the optimistic scheduler";
  }
}

Engine::~Engine() = default;

ObjectArena<Message>& Engine::arena_of(const Process& p) {
  STGSIM_DCHECK(!threaded_run_ || p.home_worker_ == g_current_worker)
      << "rank " << p.rank_ << "'s arena (worker " << p.home_worker_
      << ") used on worker " << g_current_worker;
  return worker_at(p.home_worker_).arena;
}

ObjectArena<Message>::Stats Engine::arena_stats() const {
  ObjectArena<Message>::Stats s;
  for (int w = 0; w < config_.host_workers; ++w) {
    const ObjectArena<Message>::Stats a = worker_at(w).arena.stats();
    s.live += a.live;
    s.capacity += a.capacity;
  }
  return s;
}

Engine::ClockFloor Engine::clock_floor(int w) const {
  ClockFloor f;
  if (w < 0) {
    for (int v = 0; v < config_.host_workers; ++v) {
      const ClockFloor g = clock_floor(v);
      if (g.min < f.min) f = g;
    }
    return f;
  }
  const IndexedMinHeap<VTime>& h = worker_at(w).floor;
  if (h.empty()) return f;
  std::tie(f.min, f.argmin) = h.top();
  f.second = h.second_key(kVTimeNever);
  return f;
}

void Engine::refloor(const Process& p) {
  IndexedMinHeap<VTime>& h = worker_at(p.home_worker_).floor;
  if (!p.finished_) {
    h.push_or_update(p.rank_, p.clock_);
  } else if (h.contains(p.rank_)) {
    h.erase(p.rank_);
  }
}

VTime Engine::after_floor_latency(VTime t) const {
  // A rollback happens the moment its message arrives, so Time Warp bounds
  // arrivals by the sender's clock itself; a conservative wildcard also
  // knows every send takes at least the latency floor.
  const VTime lat = config_.optimistic
                        ? 0
                        : wildcard_min_latency_.load(std::memory_order_relaxed);
  return t > kVTimeNever - lat ? kVTimeNever : t + lat;
}

VTime Engine::peer_floor(int w) const {
  VTime b = kVTimeNever;
  for (int v = 0; v < config_.host_workers; ++v) {
    if (v == w) continue;
    b = std::min(b, floor_words_[static_cast<std::size_t>(v)].v.load(
                        std::memory_order_acquire));
  }
  return b;
}

std::uint64_t Engine::publish_floor(int w) {
  VTime word = after_floor_latency(clock_floor(w).min);
  std::uint64_t released = 0;
  for (int v = 0; v < config_.host_workers; ++v) {
    if (v == w) continue;
    Lane& out = lane(w, v);
    const std::uint64_t done = out.delivered.load(std::memory_order_acquire);
    while (!out.transit.empty() && out.transit.front().first < done) {
      out.transit.pop_front();
    }
    if (!out.transit.empty()) word = std::min(word, out.transit.front().second);
    released += done - out.settled;
    out.settled = done;
  }
  // MC mode: messages (antis included) parked in the in-flight lanes are in
  // transit and bound future deliveries.
  if (mc_active_) {
    for (const auto& l : inflight_) {
      for (const Message& m : l.q) word = std::min(word, m.arrival);
    }
  }
  WorkerStat& ws = worker_at(w).stat;
  ws.log_peak = std::max(ws.log_peak, ws.log_bytes);
  FloorWord& slot = floor_words_[static_cast<std::size_t>(w)];
  if (slot.v.load(std::memory_order_relaxed) != word) {
    slot.v.store(word, std::memory_order_release);
    // Only this worker writes the count. The release orders the word
    // before it, and it before the `delivered` stores below.
    slot.stores.store(slot.stores.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
  }
  // Only now may the senders of what this worker delivered stop counting
  // it: a rollback that delivery caused is already in the word.
  for (int u = 0; u < config_.host_workers; ++u) {
    if (u == w) continue;
    Lane& in = lane(u, w);
    if (in.delivered.load(std::memory_order_relaxed) != in.popped) {
      in.delivered.store(in.popped, std::memory_order_release);
    }
  }
  return released;
}

std::uint64_t Engine::floor_store_count() const {
  std::uint64_t n = 0;
  for (int v = 0; v < config_.host_workers; ++v) {
    n += floor_words_[static_cast<std::size_t>(v)].stores.load(
        std::memory_order_acquire);
  }
  return n;
}

bool Engine::wildcard_commit_safe(const Process& p, VTime arrival) const {
  if (config_.optimistic) {
    // Optimistic mode never uses the conservative bound here: cross-source
    // choices must flow through blocking_match so the commit is recorded
    // for straggler detection, or waits there on a clean rank (the smpi
    // waitany fast path commits only single-candidate, fixed-source
    // completions, which are not choices).
    return false;
  }
  if (config_.inject == Inject::kUnsafeWildcard) {
    // Test-only fault injection: commit on sight, reproducing the racy
    // pre-safety-bound behavior for the schedule checker to rediscover.
    return true;
  }
  return bound_passed(p, arrival);
}

VTime Engine::peers_bound(int w) const {
  if (!config_.optimistic) return peer_floor(w);
  const std::uint64_t stores = floor_store_count();
  VTime b = peer_floor(w);
  for (int v = 0; v < config_.host_workers; ++v) {
    if (v == w) continue;
    // Entries the receiver already delivered only lower the bound.
    const auto& transit = lane(w, v).transit;
    if (!transit.empty()) b = std::min(b, transit.front().second);
  }
  return floor_store_count() == stores ? b : 0;
}

bool Engine::bound_passed(const Process& p, VTime t) const {
  if (mc_active_) {
    // MC mode: never commit mid-slice. Receives park and are promoted only
    // when every in-flight lane is drained, so the candidate set the
    // promotion scan evaluates is final.
    return false;
  }
  // kVTimeNever: no other unfinished process exists, so the queued message
  // set is final and any match is safe.
  const VTime bound = std::min(
      after_floor_latency(clock_floor(p.home_worker_).without(p.rank_)),
      peers_bound(p.home_worker_));
  return bound == kVTimeNever || t < bound;
}

double Engine::now_host_sec() const { return steady_now_sec() - host_t0_sec_; }

void Engine::deliver(Message&& msg) {
  Process& dst = *procs_[static_cast<std::size_t>(msg.dst)];

  if (threaded_run_) {
    const int w = g_current_worker;
    if (dst.home_worker_ != w) {
      // Cross-partition: ride the (sender worker, destination worker) lane,
      // which the destination drains between its slices. The lane is FIFO
      // and carries every message between the two partitions, so each
      // per-(src,dst) channel keeps its send order. (Payload buffers
      // allocated on this worker travel with the message; the pool is
      // spinlocked.) The sender counts its arrival in its floor word until
      // the destination has delivered it.
      Lane& out = lane(w, dst.home_worker_);
      while (!out.transit.empty() && out.transit.back().second >= msg.arrival) {
        out.transit.pop_back();
      }
      out.transit.emplace_back(out.pushed++, msg.arrival);
      round_busy_.fetch_add(1, std::memory_order_relaxed);
      out.q.push(std::move(msg));
      return;
    }
    ++worker_at(w).stat.intra;
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
  MsgNode* node = arena_of(p).acquire(std::move(m));
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
  ++worker_at(dst.home_worker_).stat.delivered;
  if (config_.max_messages > 0) {
    // The budget needs the run-wide count the moment it is crossed.
    const std::uint64_t delivered =
        budget_delivered_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (delivered > config_.max_messages) {
      const std::string what =
          "message budget exceeded: " + std::to_string(delivered) +
          " messages delivered (cap " + std::to_string(config_.max_messages) +
          ")";
      if (threaded_run_ && Fiber::current() == nullptr) {
        // Mailbox drain on a worker thread: raising here would tear down
        // fibers owned by other workers. Record the violation; every worker
        // sees has_error_ and stops, and run_rounds aborts after the join.
        note_error(std::make_exception_ptr(
            BudgetExceededError(BudgetExceededError::Kind::kMessages, what)));
      } else {
        raise_budget(BudgetExceededError::Kind::kMessages, what);
      }
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
    const MatchSpec& spec = dst.waiting_on_;
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
      // Conservative: a slower-clocked rank could still send an
      // earlier-arriving match: defer the wakeup until the safety bound
      // passes. If an already-queued candidate has an even earlier arrival,
      // it is safe whenever this one is, and try_match picks it on resume.
      // Time Warp commits on sight and corrects with rollback, except on a
      // clean rank past its first consumption: a speculative step parks
      // there, and so does anything behind a parked candidate, for the
      // worker's promotion to admit.
      const bool waits =
          config_.optimistic
              ? dst.deferring() &&
                    (dst.wildcard_parked_ || Process::speculative(spec, m))
              : spec.is_wildcard() && !wildcard_commit_safe(dst, m.arrival);
      if (waits) {
        park_wildcard(dst);
        return;
      }
      wake_process(dst, m.arrival);
    }
  }
}

void Engine::wake_process(Process& p, VTime arrival) {
  p.blocked_ = false;
  p.wildcard_parked_ = false;
  if (observer_ != nullptr) observer_->on_wake(p.rank_, p.clock_, arrival);
  make_ready(p);
}

void Engine::make_ready(Process& p) {
  // Deliveries and promotions happen on the rank's own worker, the stuck
  // promotion in the quiescence step: never at the same time.
  worker_at(p.home_worker_).ready.push_back(p.rank_);
}

void Engine::park_wildcard(Process& p) {
  STGSIM_DCHECK(p.blocked_);
  if (p.wildcard_parked_) return;
  p.wildcard_parked_ = true;
  worker_at(p.home_worker_).parked.push_back(p.rank_);
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
      *worker_at(p.home_worker_).run_stack);
  p.opt_.fresh = true;
}

Message Engine::clone_message(const Message& m) {
  Message c;
  c.src = m.src;
  c.dst = m.dst;
  c.tag = m.tag;
  c.kind = m.kind;
  c.anti = m.anti;
  c.tainted = m.tainted;
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
  return worker_at(g_current_worker).stat;
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

void Engine::opt_start_saving(Process& p) {
  OptState& o = p.opt_;
  o.saving = true;
  o.send_base = o.send_ordinal;
  o.fossil_cursor = o.consumed_base;
  worker_at(p.home_worker_).saving.push_back(p.rank_);
}

void Engine::opt_note_consume(Process& p) {
  OptState& o = p.opt_;
  if (config_.checkpoint_interval == 0) return;  // checkpointing disabled
  if (++o.since_checkpoint >= config_.checkpoint_interval) {
    o.checkpoint_due = true;
  }
}

std::size_t Engine::opt_entry_bytes(const Message& m) {
  return sizeof(ConsumedEntry) + m.payload.size();
}

void Engine::opt_log_charge(Process& p, const Message& m) {
  // A plain counter: a rank's log is only ever touched by its owning worker
  // (or the quiescence step, with the workers stopped), so the per-message
  // cost is one add instead of a contended atomic RMW. The peak is sampled
  // at publishes, which run right before a GVT fold's fossil collection
  // prunes the log.
  worker_at(p.home_worker_).stat.log_bytes += opt_entry_bytes(m);
}

void Engine::opt_log_release(Process& p, const Message& m) {
  WorkerStat& ws = worker_at(p.home_worker_).stat;
  const std::size_t n = opt_entry_bytes(m);
  STGSIM_DCHECK(ws.log_bytes >= n);
  ws.log_bytes -= n;
}

void Process::take_checkpoint(std::vector<std::uint8_t> app_blob) {
  engine_->opt_take_checkpoint(*this, std::move(app_blob));
}

void Engine::opt_take_checkpoint(Process& p, std::vector<std::uint8_t> blob) {
  OptState& o = p.opt_;
  STGSIM_DCHECK(config_.optimistic && o.checkpoint_due);
  // A clean rank's first checkpoint follows a step the bound admitted; no
  // rollback reaches below it, so saving starts here.
  if (!o.saving) opt_start_saving(p);
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
  ++opt_stat().checkpoints;
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
        arena_of(dst).recycle(n);
        uncount_delivered(dst);
        // A parked clean rank may have lost its only candidate: it waits
        // for the next delivery instead.
        std::uint64_t probes = 0;
        if (dst.wildcard_parked_ &&
            dst.find_match(dst.waiting_on_, &probes).node == nullptr) {
          dst.wildcard_parked_ = false;
        }
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
      uncount_delivered(dst);
      opt_rollback(dst, dst.opt_.consumed_base + static_cast<std::uint64_t>(i),
                   /*drop_entry=*/true);
      return;
    }
  }
  STGSIM_CHECK(false) << "anti-message " << anti.src << "->" << anti.dst
                      << " seq " << anti.seq
                      << " has no positive counterpart";
}

void Engine::uncount_delivered(const Process& dst) {
  --worker_at(dst.home_worker_).stat.delivered;
  if (config_.max_messages > 0) {
    budget_delivered_.fetch_sub(1, std::memory_order_relaxed);
  }
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
  std::vector<Message>& queue = worker_at(g_current_worker).antis;
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
    // The speculative incarnation is suspended on its own stack; fiber
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
  p.wildcard_parked_ = false;
  if (!was_queued) make_ready(p);
  refloor(p);
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
  Worker& w = worker_at(g_current_worker);
  if (w.flushing) return;  // already draining further up the stack
  std::vector<Message>& q = w.antis;
  if (q.empty()) return;
  w.flushing = true;
  // Index-based walk: applying an anti can trigger a cascading rollback
  // that appends more antis (and reallocates q).
  std::size_t i = 0;
  while (i < q.size()) {
    Message a = std::move(q[i++]);
    deliver(std::move(a));
  }
  q.clear();
  w.flushing = false;
}

Engine::OptDebug Engine::opt_debug(int rank) const {
  const OptState& o = procs_[static_cast<std::size_t>(rank)]->opt_;
  OptDebug d;
  d.consumed_base = o.consumed_base;
  d.consumed_size = o.consumed.size();
  d.fossil_cursor = o.fossil_cursor;
  for (const ConsumedEntry& e : o.consumed) {
    d.log_bytes += opt_entry_bytes(e.msg);
  }
  d.checkpoint_cursors.reserve(o.checkpoints.size());
  for (const Checkpoint& cp : o.checkpoints) {
    d.checkpoint_cursors.push_back(cp.cursor);
    d.checkpoint_blob_bytes.push_back(cp.app_blob.size());
  }
  d.saving = o.saving;
  return d;
}

std::uint64_t Engine::deferred_admissions() const {
  std::uint64_t n = 0;
  for (int w = 0; w < config_.host_workers; ++w) n += worker_at(w).stat.deferred;
  return n;
}

void Engine::opt_fold_gvt(int w) {
  const std::uint64_t stores = floor_store_count();
  VTime g = peer_floor(-1);
  // A store between the two count reads may have moved a message's share
  // from its sender's word to its receiver's after this read passed the
  // receiver: skip this fold, a later one retries.
  if (floor_store_count() != stores) return;
  VTime cur = gvt_.load(std::memory_order_relaxed);
  while (g != kVTimeNever && g > cur) {
    if (gvt_.compare_exchange_weak(cur, g, std::memory_order_relaxed)) {
      gvt_passes_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  // Every fold follows a publish of w's word, which sampled the log peak
  // that fossil collection is about to shrink.
  Worker& self = worker_at(w);
  g = gvt_.load(std::memory_order_relaxed);
  if (g <= self.fossil_gvt) return;
  self.fossil_gvt = g;
  for (int r : self.saving) {
    opt_fossil_rank(*procs_[static_cast<std::size_t>(r)], g);
  }
}

void Engine::opt_fossil_rank(Process& p, VTime g) {
  OptState& o = p.opt_;
  if (!o.records.empty()) {
    // A record with arrival < g is final: any message still to come has
    // timestamp >= g and can no longer win the (arrival, src) choice.
    auto it = std::remove_if(
        o.records.begin(), o.records.end(),
        [g](const WildcardRecord& r) { return r.arrival < g; });
    worker_at(p.home_worker_).stat.fossil +=
        static_cast<std::uint64_t>(o.records.end() - it);
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

VTime Engine::parked_candidate(Process& p) {
  std::uint64_t probes = 0;
  const Process::Match f = p.find_match(p.waiting_on_, &probes);
  STGSIM_CHECK(f.node != nullptr)
      << "parked receive on rank " << p.rank_ << " lost its queued candidate";
  return Process::candidate(p.waiting_on_, f.node->value);
}

void Engine::promote(Process& p, VTime candidate) {
  p.opt_.admitted = config_.optimistic;
  wake_process(p, candidate);
}

bool Engine::promote_safe_wildcards(int w) {
  // One floor read and one read of the peers' words serve every parked
  // receiver; excluding the receiver itself then costs O(1).
  const ClockFloor floor = clock_floor(w);
  const VTime peers = peers_bound(w);
  std::vector<int>& parked = worker_at(w).parked;
  bool promoted = false;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < parked.size(); ++i) {
    const int rank = parked[i];
    Process& p = *procs_[static_cast<std::size_t>(rank)];
    if (!p.blocked_ || !p.wildcard_parked_) continue;  // woken since; drop
    const VTime candidate = parked_candidate(p);
    const VTime bound =
        std::min(after_floor_latency(floor.without(rank)), peers);
    if (bound == kVTimeNever || candidate < bound) {
      promote(p, candidate);
      promoted = true;
      continue;
    }
    parked[keep++] = rank;
  }
  parked.resize(keep);
  return promoted;
}

void Engine::promote_stuck_wildcard() {
  // Nothing can run, so no further message will ever be queued: the
  // least candidate is exactly what the safety bound would eventually
  // admit. Wake only that one; its commit may unblock others for real
  // (bound-safe) promotion later.
  VTime best = kVTimeNever;
  std::vector<int> tied;  // live parked ranks at `best`, in list order
  for (int w = 0; w < config_.host_workers; ++w) {
    for (int rank : worker_at(w).parked) {
      Process& p = *procs_[static_cast<std::size_t>(rank)];
      if (!p.blocked_ || !p.wildcard_parked_) continue;
      const VTime candidate = parked_candidate(p);
      if (candidate > best) continue;
      if (candidate < best) tied.clear();
      best = candidate;
      tied.push_back(rank);
    }
  }
  if (tied.empty()) return;
  int rank = *std::min_element(tied.begin(), tied.end());
  if (mc_active_ && tied.size() > 1) {
    // Several parked ranks tied at the same candidate is the one point
    // where the (candidate, rank) rule is a genuine tie-break rather than
    // a timestamp-forced choice. Expose the tie to the oracle so the
    // checker can prove the committed results do not depend on it.
    std::vector<ChoiceOption> options(tied.size());
    for (std::size_t i = 0; i < tied.size(); ++i) {
      options[i].kind = ChoiceOption::Kind::kWildcard;
      options[i].rank = tied[i];
    }
    rank = tied[oracle_choose(options)];
  }
  Process& p = *procs_[static_cast<std::size_t>(rank)];
  promote(p, best);
  std::vector<int>& home = worker_at(p.home_worker_).parked;
  home.erase(std::find(home.begin(), home.end(), rank));
}

void Engine::resume_process(Process& p) {
  if (config_.optimistic && p.opt_.pending_unwind) opt_finish_unwind(p);
  STGSIM_DCHECK(!p.finished_ && !p.blocked_);
  if (observer_ != nullptr) observer_->on_resume(p.rank_, p.clock_);
  p.opt_.fresh = false;
  g_current_proc = &p;
  p.fiber_->resume();
  g_current_proc = nullptr;
  if (p.fiber_->finished()) {
    p.finished_ = true;
  } else {
    STGSIM_CHECK(p.blocked_)
        << "process " << p.rank_ << " yielded without blocking or finishing";
  }
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
  // re-resumed (no fresh fiber is attached during an abort). Each resumes
  // on its home worker's run stack, also here after the threaded join; a
  // fiber whose frames could not be saved is lost (finished) and skipped.
  for (auto& p : procs_) {
    if (p->finished_ || p->fiber_ == nullptr || p->opt_.fresh ||
        p->fiber_->finished()) {
      continue;
    }
    p->opt_.pending_unwind = false;
    p->blocked_ = false;
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
    if (p->blocked_) {
      b.waiting_src = p->waiting_on_.src;
      b.waiting_tag = p->waiting_on_.user_tag;
      b.waiting_what = p->waiting_on_.what;
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

  host_t0_sec_ = steady_now_sec();

  run_rounds();

  // Fold the per-worker cells. The pass and message split is reported
  // with several workers only.
  RunResult res;
  if (config_.optimistic) {
    pstats_.rollback_depth_hist.assign(WorkerStat::kDepthBuckets, 0);
  }
  for (int w = 0; w < config_.host_workers; ++w) {
    WorkerStat& ws = worker_at(w).stat;
    res.messages_delivered += ws.delivered;
    res.slices += ws.slices;
    if (config_.host_workers > 1) {
      pstats_.intra_messages += ws.intra;
      pstats_.mailbox_messages += ws.mailbox;
      pstats_.worker_slices.push_back(ws.slices);
    }
    if (!config_.optimistic) continue;
    // A run whose last stretch never hit a GVT pass (or that disabled
    // checkpointing and grew the log to the end) still reports its true
    // high-water mark. Several workers prune mid-pass, each at its own
    // time, so the run's peak is the sum of the workers' peaks.
    ws.log_peak = std::max(ws.log_peak, ws.log_bytes);
    pstats_.log_bytes_peak += ws.log_peak;
    pstats_.rollbacks += ws.rollbacks;
    pstats_.anti_messages += ws.antis;
    pstats_.checkpoints_taken += ws.checkpoints;
    pstats_.fossil_finalized += ws.fossil;
    pstats_.replayed_events += ws.replayed;
    for (int b = 0; b < WorkerStat::kDepthBuckets; ++b) {
      pstats_.rollback_depth_hist[static_cast<std::size_t>(b)] +=
          ws.depth_hist[b];
    }
  }
  if (config_.optimistic) {
    while (!pstats_.rollback_depth_hist.empty() &&
           pstats_.rollback_depth_hist.back() == 0) {
      pstats_.rollback_depth_hist.pop_back();
    }
    pstats_.gvt_passes = gvt_passes_.load(std::memory_order_relaxed);
  }

  res.per_rank_completion.reserve(procs_.size());
  for (const auto& p : procs_) {
    STGSIM_CHECK(p->finished_);
    res.per_rank_completion.push_back(p->clock_);
    res.completion = std::max(res.completion, p->clock_);
  }
  res.host_seconds = now_host_sec();
  res.peak_target_bytes = memory_.peak_bytes();
  res.final_target_bytes = memory_.current_bytes();
  return res;
}

std::size_t Engine::oracle_choose(const std::vector<ChoiceOption>& options) {
  STGSIM_DCHECK(!options.empty());
  // Under MC the oracle is consulted by worker 0's pass and by the stuck
  // promotion's tie in the quiescence step. Both record an oracle exception
  // (the checker's prefix-abandon) with note_error, and run_rounds then
  // unwinds the suspended fibers and rethrows it.
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
  std::uint64_t drained = 0;
  Message m;
  auto drain_from = [&](int u) {
    Lane& in = lane(u, worker);
    while (in.q.try_pop(&m)) {
      deliver_now(std::move(m));
      ++in.popped;
      ++drained;
    }
  };
  if (oracle_ != nullptr && workers > 1) {
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
    std::vector<char> seen(static_cast<std::size_t>(workers), 0);
    for (int u : order) {
      STGSIM_CHECK(u >= 0 && u < workers && u != worker &&
                   seen[static_cast<std::size_t>(u)] == 0)
          << "drain order must stay a permutation of the sender set";
      seen[static_cast<std::size_t>(u)] = 1;
      drain_from(u);
    }
  } else {
    for (int u = 0; u < workers; ++u) {
      if (u != worker) drain_from(u);
    }
  }
  return drained;
}

bool Engine::parked_receives_checked() const {
  if (!threaded_run_) return true;
  const std::uint64_t stores = floor_store_count();
  for (int v = 0; v < config_.host_workers; ++v) {
    if (floor_words_[static_cast<std::size_t>(v)].checked.load(
            std::memory_order_acquire) < stores) {
      return false;
    }
  }
  return true;
}

void Engine::run_partition_round(int worker, Quiescence& quiescence) {
  g_current_worker = worker;
  Worker& self = worker_at(worker);
  IndexedMinHeap<VTime>& heap = self.heap;
  std::vector<int>& local_ready = self.ready;
  WorkerStat& ws = self.stat;
  std::vector<int>& parked = self.parked;
  // Time Warp: besides idle spins, a busy worker folds GVT once per
  // max(256, own ranks) iterations, so the fossil sweep costs O(1)
  // amortized per iteration.
  const std::uint64_t fold_every =
      std::max<std::uint64_t>(256, self.ranks.size());
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
    return config_.optimistic || clock_floor(-1).argmin >= 0;
  };
  // One pass: execute the partition, draining incoming mailboxes between
  // slices, until every worker is quiescent or the run failed.
  auto pass = [&] {
    // Whether this worker counts in round_busy_: it leaves when it has no
    // work and rejoins when a drain or a promotion gives it some.
    bool active = true;
    // Lane messages this worker pushed whose delivery its word no longer
    // counts, not yet taken out of round_busy_.
    std::int64_t owed = 0;
    std::uint64_t iter = 0;
    FloorWord& word = floor_words_[static_cast<std::size_t>(worker)];
    for (;;) {
      // Cross-partition messages pushed by peers since the last check
      // (wakeups land on local_ready), then this worker's floor word,
      // between slices and while idle.
      const std::uint64_t drained = drain_mailboxes(worker);
      ws.mailbox += drained;
      owed += static_cast<std::int64_t>(publish_floor(worker));
      take_ready();
      // Which words this worker's parked receives were checked against.
      // Only an idle worker's value is ever read (by the update that would
      // end the pass), so a worker with ready ranks skips it.
      const bool record = threaded_run_ && heap.empty();
      std::uint64_t checked = kNothingParked;
      if (inflight_total_ == 0 && !parked.empty()) {
        // Parked receives whose candidate passed the bound wake now (MC:
        // once every in-flight lane is drained, so each candidate set is
        // final).
        if (record) checked = floor_store_count();
        promote_safe_wildcards(worker);
        take_ready();
        if (parked.empty()) checked = kNothingParked;
      }
      if (record && word.checked.load(std::memory_order_relaxed) != checked) {
        word.checked.store(checked, std::memory_order_release);
      }

      const bool work = has_work();
      std::int64_t settle = -owed;
      if (work != active) settle += work ? kBusyWorker : -kBusyWorker;
      if (settle != 0) {
        // Zero is final: peers that read it have stopped. So the update
        // that would reach it waits until every parked receive was checked
        // against the words as they are now, and a sender settles a lane
        // message only once its own word dropped it: a receive that the
        // last words admit wakes in this pass. Only a promotion can give an
        // idle worker work without a counted message, and the stuck one
        // runs in the quiescence step, with its ranks in the next pass.
        std::int64_t busy = round_busy_.load(std::memory_order_relaxed);
        for (;;) {
          if (busy == 0) return;
          if (busy + settle == 0 && !parked_receives_checked()) break;
          if (round_busy_.compare_exchange_weak(busy, busy + settle,
                                                std::memory_order_acq_rel)) {
            owed = 0;
            active = work;
            break;
          }
        }
      }
      // Quiescent: no worker can run and nothing is in flight. A parked
      // wildcard left now waits for the quiescence step's stuck promotion.
      if (!work && (has_error_.load(std::memory_order_acquire) ||
                    round_busy_.load(std::memory_order_acquire) == 0)) {
        return;
      }
      // The quiescence step only probes the wall-clock watchdog once every
      // worker stopped; a pass that never ends (e.g. two processes in the
      // same partition ping-ponging without advancing their clocks, a rank
      // that blocks before it ever calls advance(), or an idle worker whose
      // peer is stuck in a long slice) would otherwise spin forever. Probe
      // in-loop; the caller tears the run down.
      if ((++iter & 1023U) == 0 && host_budget_exhausted()) {
        note_error(std::make_exception_ptr(BudgetExceededError(
            BudgetExceededError::Kind::kHostWallClock,
            "host wall-clock watchdog fired in worker " +
                std::to_string(worker))));
        return;
      }
      if (!work) {
        // A peer is still running and may yet feed us through a lane. Idle
        // time is free for Time Warp's fold and fossil collection, where
        // this worker has a log to collect: a fold reads every word, and
        // those lines are the ones busy peers write.
        if (config_.optimistic && !self.saving.empty()) opt_fold_gvt(worker);
        std::this_thread::yield();
        continue;
      }
      if (config_.optimistic && iter % fold_every == 0) opt_fold_gvt(worker);
      int rank;
      if (mc_active_) {
        rank = oracle_pick(heap);
        if (rank < 0) continue;  // delivered an in-flight lane head
      } else {
        rank = heap.pop();
      }
      Process& p = *procs_[static_cast<std::size_t>(rank)];
      resume_process(p);
      ++ws.slices;
      refloor(p);
      // Stop at the first error: a failed slice ends the pass before any
      // other rank runs.
      if (has_error_.load(std::memory_order_acquire)) return;
    }
  };
  do {
    // A worker-side exception (simulator invariant failure, an oracle
    // abandoning its prefix) is recorded, and the worker still arrives, so
    // the quiescence step sees the error and ends the run.
    try {
      pass();
      // The quiescence step looks for ready ranks on the ready lists only.
      while (!heap.empty()) local_ready.push_back(heap.pop());
    } catch (...) {
      note_error(std::current_exception());
    }
    quiescence.arrive_and_wait();
  } while (!run_done_);
}

void Engine::quiescence_step() noexcept {
  try {
    run_done_ = true;
    if (has_error_.load(std::memory_order_acquire)) return;
    auto any_ready = [&] {
      for (int w = 0; w < config_.host_workers; ++w) {
        if (!worker_at(w).ready.empty()) return true;
      }
      return false;
    };
    // Every lane is drained and bound-safe wildcards were promoted in the
    // pass; what is left is a parked rank that no bound admits while
    // nothing can run.
    if (!any_ready()) promote_stuck_wildcard();
    const bool more = any_ready();
    // Every worker is stopped and every lane drained, so the words can be
    // exact. Republish them first: a sender's word may still hold the
    // arrival of a message its receiver delivered after the sender last
    // published. One worker has no peer to wait for, so it folds here only
    // at the run's end.
    if (config_.optimistic && (threaded_run_ || !more)) {
      for (int w = 0; w < config_.host_workers; ++w) publish_floor(w);
      for (int w = 0; w < config_.host_workers; ++w) opt_fold_gvt(w);
    }
    // Nothing ready: every rank finished, or run_rounds reports a deadlock.
    if (!more) return;
    if (host_budget_exhausted()) {
      note_error(std::make_exception_ptr(BudgetExceededError(
          BudgetExceededError::Kind::kHostWallClock,
          "host wall-clock watchdog fired at the quiescence step")));
      return;
    }
    if (threaded_run_) ++pstats_.rounds;
    round_busy_.store(config_.host_workers * kBusyWorker,
                      std::memory_order_relaxed);
    run_done_ = false;
  } catch (...) {
    note_error(std::current_exception());
  }
}

void Engine::run_rounds() {
  const int workers = config_.host_workers;
  // Several workers run on their own threads and race each other's clocks;
  // a single worker runs on this thread, and its round and mailbox
  // counters stay zero.
  threaded_run_ = workers > 1;
  const auto nw = static_cast<std::size_t>(workers);
  // The lower-bound service, the same at every worker count: own-rank
  // lists, floor heaps and the published words; lanes with their
  // in-transit queues only where there is a peer to send to.
  for (int w = 0; w < workers; ++w) {
    worker_at(w).heap.reset(config_.num_processes);
    worker_at(w).floor.reset(config_.num_processes);
  }
  for (const auto& p : procs_) {
    worker_at(p->home_worker_).ranks.push_back(p->rank_);
    refloor(*p);
  }
  if (threaded_run_) {
    mailboxes_.clear();
    for (std::size_t i = 0; i < nw * nw; ++i) {
      mailboxes_.push_back(std::make_unique<Lane>());
    }
  }
  // Words stay valid across quiescence steps (nothing runs or arrives
  // there), so one seeding covers the run.
  floor_words_ = std::make_unique<FloorWord[]>(nw);
  for (int v = 0; v < workers; ++v) publish_floor(v);
  pstats_ = ParallelStats{};
  pstats_.rounds = threaded_run_ ? 1 : 0;
  for (const auto& p : procs_) make_ready(*p);

  // Workers start once and join once; worker 0 is this thread.
  Quiescence quiescence(workers, QuiescenceStep{this});
  round_busy_.store(workers * kBusyWorker, std::memory_order_relaxed);
  run_done_ = false;
  std::vector<std::thread> threads;
  threads.reserve(nw - 1);
  for (int w = 1; w < workers; ++w) {
    try {
      threads.emplace_back([this, w, &quiescence] {
        run_partition_round(w, quiescence);
      });
    } catch (...) {
      // No thread for worker w: record why, and arrive for it so the
      // started workers see the error at the first quiescence step.
      note_error(std::current_exception());
      quiescence.arrive_and_drop();
    }
  }
  run_partition_round(0, quiescence);
  for (auto& t : threads) t.join();

  if (error_) abort_run(error_);
  if (clock_floor(-1).min != kVTimeNever) raise_deadlock();
  threaded_run_ = false;
}

}  // namespace stgsim::simk
