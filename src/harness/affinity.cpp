#include "harness/affinity.hpp"

#include <algorithm>
#include <cstdint>
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
        bound_(static_cast<std::size_t>(plan.num_slots()), 0) {}

  void walk_rank(int rank) {
    rank_ = rank;
    std::fill(bound_.begin(), bound_.end(), 0);
    walk_block(plan_.program().main());
  }

 private:
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

  void walk_block(const std::vector<ir::StmtP>& block) {
    for (const auto& s : block) walk(*s);
  }

  void set(int id, sym::Value v) {
    vals_[static_cast<std::size_t>(id)] = v;
    bound_[static_cast<std::size_t>(id)] = 1;
  }

  void unset(int id) { bound_[static_cast<std::size_t>(id)] = 0; }

  /// Evaluates plan operand `id` against the current environment. Throws
  /// like Expr::eval.
  sym::Value eval(int id) {
    return plan_.eval(id, vals_, bound_, scratch_);
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
      const std::int64_t samples[3] = {lo, std::min(lo + 1, hi), hi};
      std::int64_t prev = lo - 1;
      for (std::int64_t v : samples) {
        if (v == prev) continue;
        prev = v;
        set(var, sym::Value(v));
        walk_block(s.body);
      }
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
