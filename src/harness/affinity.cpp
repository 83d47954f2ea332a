#include "harness/affinity.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

namespace stgsim::harness {

namespace {

/// The static walk, one rank at a time, over the run's shared plan: its
/// scalar slots index the rank's environment (the dense vals_/bound_
/// pair, where an unbound slot is one the walk cannot resolve) and its
/// operands are the walked expressions. Which statements contain
/// communication is memoized on first use for every later rank.
class Walker {
 public:
  Walker(const ir::Plan& plan, int nprocs, simk::Affinity* aff)
      : plan_(plan),
        nprocs_(nprocs),
        aff_(aff),
        has_comm_(static_cast<std::size_t>(plan.program().next_id()), -1),
        vals_(static_cast<std::size_t>(plan.num_slots())),
        bound_(static_cast<std::size_t>(plan.num_slots()), 0),
        read_(static_cast<std::size_t>(plan.num_slots()), 0),
        seen_(read_.size(), 0),
        memo_(kWays * static_cast<std::size_t>(plan.num_memos())),
        inputs_(kWays * static_cast<std::size_t>(plan.num_stamps())),
        next_(static_cast<std::size_t>(plan.num_memos()), 0) {}

  void walk_rank(int rank) {
    rank_ = rank;
    std::fill(bound_.begin(), bound_.end(), 0);
    log_.clear();
    undo_.clear();
    walk_block(plan_.program().main());
  }

 private:
  // Results kept per tape: a condition over both directions of a sweep,
  // at this rank and at the one before it.
  static constexpr std::size_t kWays = 4;

  // Walks beyond this call depth are cut off; real target programs nest a
  // handful of loops, so only a recursive kCall chain could get here.
  static constexpr int kMaxDepth = 64;

  bool block_has_comm(const std::vector<ir::StmtP>& block) {
    for (const auto& s : block) {
      if (has_comm(*s)) return true;
    }
    return false;
  }

  bool has_comm(const ir::Stmt& s) {
    const auto i = static_cast<std::size_t>(s.id);
    if (i >= has_comm_.size()) has_comm_.resize(i + 1, -1);
    const std::int8_t known = has_comm_[i];
    if (known >= 0) return known != 0;
    bool r = false;
    switch (s.kind) {
      case ir::StmtKind::kSend:
      case ir::StmtKind::kRecv:
      case ir::StmtKind::kIsend:
      case ir::StmtKind::kIrecv:
        r = true;
        break;
      case ir::StmtKind::kCall: {
        const ir::Procedure* proc = plan_.at(s).callee;
        r = proc != nullptr && block_has_comm(proc->body);
        break;
      }
      default:
        r = block_has_comm(s.body) || block_has_comm(s.else_body);
        break;
    }
    // Indexed again: the recursion above may have grown has_comm_.
    has_comm_[i] = r ? 1 : 0;
    return r;
  }

  /// True if `slot` holds bound flag `bound` and, when bound, the type
  /// and bits of `value`.
  bool holds(std::size_t slot, std::uint8_t bound,
             const sym::Value& value) const {
    const sym::Value& v = vals_[slot];
    return bound_[slot] == bound &&
           (bound == 0 ||
            (v.is_int() == value.is_int() &&
             (v.is_int() ? v.as_int() == value.as_int()
                         : std::bit_cast<std::uint64_t>(v.as_real()) ==
                               std::bit_cast<std::uint64_t>(value.as_real()))));
  }

  /// True if the writes logged from undo_[from] on left every slot but
  /// `skip` as it was before its first one.
  bool restored(std::size_t from, int skip) {
    bool same = true;
    for (std::size_t i = from; i < undo_.size(); ++i) {
      const auto& [slot, bound, value] = undo_[i];
      const auto k = static_cast<std::size_t>(slot);
      if (seen_[k] != 0) continue;
      seen_[k] = 1;
      same = same && (slot == skip || holds(k, bound, value));
    }
    for (std::size_t i = from; i < undo_.size(); ++i) {
      seen_[static_cast<std::size_t>(std::get<0>(undo_[i]))] = 0;
    }
    return same;
  }

  void walk_block(const std::vector<ir::StmtP>& block) {
    for (const auto& s : block) walk(*s);
  }

  void set(int id, sym::Value v) {
    unset(id);
    vals_[static_cast<std::size_t>(id)] = v;
    bound_[static_cast<std::size_t>(id)] = 1;
  }

  void unset(int id) {
    const auto k = static_cast<std::size_t>(id);
    undo_.emplace_back(id, bound_[k], vals_[k]);
    bound_[k] = 0;
  }

  /// Evaluates plan operand `id` against the current environment. Throws
  /// like Expr::eval. A tape is a pure function of its slots' bound flags
  /// and bound values, so its last kWays results are kept with those
  /// inputs (at its plan memo and stamp cells) and one is reused, across
  /// ranks too, while its inputs hold the same bits.
  sym::Value eval(int id) {
    const ir::Plan::Operand& op = plan_.operand(id);
    for (const int slot : op.slots) read_[static_cast<std::size_t>(slot)] = 1;
    if (op.kind != ir::Plan::Operand::Kind::kTape) {
      return plan_.eval(id, vals_, bound_, scratch_);
    }
    const std::size_t n = op.slots.size();
    const std::size_t memo = kWays * static_cast<std::size_t>(op.memo);
    const std::size_t at = kWays * static_cast<std::size_t>(op.stamp);
    for (std::size_t way = 0; way < kWays; ++way) {
      bool hit = memo_[memo + way].has_value();
      for (std::size_t i = 0; hit && i < n; ++i) {
        const auto& [bound, value] = inputs_[at + way * n + i];
        hit = holds(static_cast<std::size_t>(op.slots[i]), bound, value);
      }
      if (hit) return *memo_[memo + way];
    }
    const sym::Value v = plan_.eval(id, vals_, bound_, scratch_);
    const std::size_t way = next_[static_cast<std::size_t>(op.memo)]++ % kWays;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(op.slots[i]);
      inputs_[at + way * n + i] = {bound_[k], vals_[k]};
    }
    memo_[memo + way] = v;
    return v;
  }

  void record_comm(const ir::Stmt& s) {
    std::int64_t peer = 0;
    try {
      peer = eval(plan_.at(s).e1).as_int();
    } catch (...) {
      return;  // peer depends on state the static walk cannot resolve
    }
    if (peer < 0 || peer >= nprocs_ || peer == rank_) return;
    double w = 1.0;
    try {
      const auto elems = static_cast<double>(eval(plan_.at(s).e2).as_int());
      if (elems > 0) w = elems * static_cast<double>(s.elem_bytes);
    } catch (...) {
      // Unresolvable size: count the edge with unit weight.
    }
    aff_->add(rank_, static_cast<int>(peer), w);
    log_.emplace_back(static_cast<int>(peer), w);
  }

  void walk(const ir::Stmt& s) {
    if (depth_ > kMaxDepth) return;
    switch (s.kind) {
      case ir::StmtKind::kGetRank:
        set(plan_.at(s).slot, sym::Value(rank_));
        return;
      case ir::StmtKind::kGetSize:
        set(plan_.at(s).slot, sym::Value(nprocs_));
        return;
      case ir::StmtKind::kDeclScalar:
        if (s.has_init) {
          assign(s);
        } else {
          unset(plan_.at(s).slot);
        }
        return;
      case ir::StmtKind::kAssign:
        assign(s);
        return;
      case ir::StmtKind::kReadParam:
        // Parameter values live in the smpi world, not the static frame.
        unset(plan_.at(s).slot);
        return;
      case ir::StmtKind::kSend:
      case ir::StmtKind::kRecv:
      case ir::StmtKind::kIsend:
      case ir::StmtKind::kIrecv:
        record_comm(s);
        return;
      case ir::StmtKind::kFor:
        walk_for(s);
        return;
      case ir::StmtKind::kIf:
        walk_if(s);
        return;
      case ir::StmtKind::kCall: {
        const ir::Procedure* proc = plan_.at(s).callee;
        if (proc != nullptr && block_has_comm(proc->body)) {
          ++depth_;
          walk_block(proc->body);
          --depth_;
        }
        return;
      }
      default:
        return;  // compute/collectives/timers: no placement signal
    }
  }

  void walk_for(const ir::Stmt& s) {
    if (!block_has_comm(s.body)) return;
    std::int64_t lo = 0, hi = 0;
    bool bounded = true;
    try {
      lo = eval(plan_.at(s).e1).as_int();
      hi = eval(plan_.at(s).e2).as_int();
    } catch (...) {
      bounded = false;
    }
    const int var = plan_.at(s).slot;
    ++depth_;
    if (!bounded) {
      // Unknown trip space: walk the body once with the loop variable
      // unresolved, so peer expressions independent of it still evaluate.
      unset(var);
      walk_block(s.body);
    } else if (hi >= lo) {
      // Sample the boundary iterations: neighbour-exchange peers are
      // either loop-invariant or shift by one between iterations, so
      // {lo, lo+1, hi} covers the edge structure without executing the
      // full (possibly huge) trip count.
      //
      // A sample is replayed instead when its walk cannot differ from the
      // previous one's: that walk evaluated nothing that reads the loop
      // variable, and every other slot holds what it held at that walk's
      // entry. This walk would then take the same path, make the same
      // adds in the same order and leave every slot as it found it, so
      // re-emitting the logged adds is bit-identical.
      const auto v_slot = static_cast<std::size_t>(var);
      const std::uint8_t read_before = read_[v_slot];
      const std::int64_t samples[3] = {lo, std::min(lo + 1, hi), hi};
      std::int64_t prev = lo - 1;
      std::size_t from = 0, to = 0;  // the previous walk's adds in log_
      std::size_t writes = 0;        // ... and its writes in undo_
      for (std::int64_t v : samples) {
        if (v == prev) continue;
        set(var, sym::Value(v));
        if (v != lo && read_[v_slot] == 0 && restored(writes, var)) {
          for (std::size_t i = from; i < to; ++i) {
            const auto [peer, w] = log_[i];
            aff_->add(rank_, peer, w);
            log_.emplace_back(peer, w);
          }
        } else {
          from = log_.size();
          writes = undo_.size();
          read_[v_slot] = 0;
          walk_block(s.body);
          to = log_.size();
        }
        prev = v;
      }
      read_[v_slot] |= read_before;
      unset(var);
    }
    --depth_;
  }

  void walk_if(const ir::Stmt& s) {
    bool taken = false;
    bool resolved = true;
    try {
      taken = eval(plan_.at(s).e1).as_bool();
    } catch (...) {
      resolved = false;
    }
    ++depth_;
    if (resolved) {
      walk_block(taken ? s.body : s.else_body);
    } else {
      // Condition unknown: both branches may run for some rank; an edge
      // recorded from an untaken branch only perturbs the heuristic.
      walk_block(s.body);
      walk_block(s.else_body);
    }
    --depth_;
  }

  void assign(const ir::Stmt& s) {
    const int id = plan_.at(s).slot;
    try {
      set(id, eval(plan_.at(s).e1));
    } catch (...) {
      unset(id);  // rhs unresolvable: the name becomes unknown
    }
  }

  const ir::Plan& plan_;
  const int nprocs_;
  simk::Affinity* aff_;
  std::vector<std::int8_t> has_comm_;  ///< per Stmt::id; -1 until computed
  // Per rank.
  int rank_ = 0;
  int depth_ = 0;
  std::vector<sym::Value> vals_;
  std::vector<std::uint8_t> bound_;
  std::vector<std::uint8_t> read_;  ///< slots an evaluated operand named
  /// Every add of this rank's walk (peer, weight), in order.
  std::vector<std::pair<int, double>> log_;
  /// Every write of this rank's walk: (slot, bound, value) before it.
  std::vector<std::tuple<int, std::uint8_t, sym::Value>> undo_;
  std::vector<std::uint8_t> seen_;  ///< scratch for restored()
  // Per tape and way: the last results and their inputs (bound, value).
  std::vector<std::optional<sym::Value>> memo_;
  std::vector<std::pair<std::uint8_t, sym::Value>> inputs_;
  std::vector<std::uint8_t> next_;  ///< per tape: the way to replace next
  sym::CompiledExpr::Scratch scratch_;
};

}  // namespace

simk::Affinity comm_affinity(const ir::Plan& plan, int nprocs) {
  simk::Affinity aff(nprocs);
  Walker w(plan, nprocs, &aff);
  for (int r = 0; r < nprocs; ++r) w.walk_rank(r);
  return aff;
}

}  // namespace stgsim::harness
