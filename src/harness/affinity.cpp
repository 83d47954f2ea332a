#include "harness/affinity.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "symexpr/compiled.hpp"

namespace stgsim::harness {

namespace {

/// The static walk, one rank at a time. Per-statement state (tapes,
/// defined-variable ids, the has-communication memo) is built on first use
/// and kept for every later rank; a rank's scalar environment is the dense
/// vals_/bound_ pair indexed by variable id, where an unbound variable is
/// one the walk cannot resolve.
class Walker {
 public:
  Walker(const ir::Program& prog, int nprocs, simk::Affinity* aff)
      : prog_(prog),
        nprocs_(nprocs),
        aff_(aff),
        stmts_(static_cast<std::size_t>(prog.next_id())) {}

  void walk_rank(int rank) {
    rank_ = rank;
    std::fill(bound_.begin(), bound_.end(), 0);
    walk_block(prog_.main());
  }

 private:
  // Walks beyond this call depth are cut off; real target programs nest a
  // handful of loops, so only a recursive kCall chain could get here.
  static constexpr int kMaxDepth = 64;

  struct Tape {
    sym::CompiledExpr code;
    std::vector<int> var_ids;  ///< variable id per code.free_slots()[i]
  };

  struct StmtInfo {
    int name_id = -1;
    std::int8_t has_comm = -1;  ///< -1 until computed
    std::optional<Tape> tapes[2];
  };

  StmtInfo& info(const ir::Stmt& s) {
    STGSIM_DCHECK(s.id >= 0);
    const auto i = static_cast<std::size_t>(s.id);
    if (i >= stmts_.size()) stmts_.resize(i + 1);
    return stmts_[i];
  }

  /// Id of a variable name; a new name also gets its (unbound) slot.
  int intern(const std::string& name) {
    const auto [it, added] =
        var_ids_.try_emplace(name, static_cast<int>(var_ids_.size()));
    if (added) {
      vals_.emplace_back();
      bound_.push_back(0);
    }
    return it->second;
  }

  /// Variable id of the scalar `s` defines (s.name).
  int name_id(const ir::Stmt& s) {
    int& id = info(s).name_id;
    if (id < 0) id = intern(s.name);
    return id;
  }

  /// Tape of s.e1 (which == 0) or s.e2 (which == 1).
  const Tape& tape(const ir::Stmt& s, int which) {
    std::optional<Tape>& t = info(s).tapes[which];
    if (!t) {
      t.emplace();
      t->code = sym::CompiledExpr::compile(which == 0 ? s.e1 : s.e2);
      for (int slot : t->code.free_slots()) {
        t->var_ids.push_back(
            intern(t->code.slot_names()[static_cast<std::size_t>(slot)]));
      }
    }
    return *t;
  }

  bool block_has_comm(const std::vector<ir::StmtP>& block) {
    for (const auto& s : block) {
      if (has_comm(*s)) return true;
    }
    return false;
  }

  bool has_comm(const ir::Stmt& s) {
    const std::int8_t known = info(s).has_comm;
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
        const ir::Procedure* proc = prog_.find_procedure(s.name);
        r = proc != nullptr && block_has_comm(proc->body);
        break;
      }
      default:
        r = block_has_comm(s.body) || block_has_comm(s.else_body);
        break;
    }
    // Looked up again: the recursion above may have grown stmts_.
    info(s).has_comm = r ? 1 : 0;
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

  /// Runs a tape against the current environment. Throws like Expr::eval.
  sym::Value eval(const Tape& t) {
    const auto n = static_cast<std::size_t>(t.code.num_slots());
    if (scratch_.slots.size() < n) {
      scratch_.slots.resize(n);
      scratch_.bound.resize(n);
    }
    // A tape that threw leaves its partial operands behind.
    scratch_.stack.clear();
    const std::vector<int>& free = t.code.free_slots();
    for (std::size_t i = 0; i < free.size(); ++i) {
      const auto slot = static_cast<std::size_t>(free[i]);
      const auto id = static_cast<std::size_t>(t.var_ids[i]);
      scratch_.bound[slot] = bound_[id];
      scratch_.slots[slot] = vals_[id];
    }
    return t.code.eval(scratch_);
  }

  void record_comm(const ir::Stmt& s) {
    std::int64_t peer = 0;
    try {
      peer = eval(tape(s, 0)).as_int();
    } catch (...) {
      return;  // peer depends on state the static walk cannot resolve
    }
    if (peer < 0 || peer >= nprocs_ || peer == rank_) return;
    double w = 1.0;
    try {
      const auto elems = static_cast<double>(eval(tape(s, 1)).as_int());
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
        set(name_id(s), sym::Value(rank_));
        return;
      case ir::StmtKind::kGetSize:
        set(name_id(s), sym::Value(nprocs_));
        return;
      case ir::StmtKind::kDeclScalar:
        if (s.has_init) {
          assign(s);
        } else {
          unset(name_id(s));
        }
        return;
      case ir::StmtKind::kAssign:
        assign(s);
        return;
      case ir::StmtKind::kReadParam:
        // Parameter values live in the smpi world, not the static frame.
        unset(name_id(s));
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
        const ir::Procedure* proc = prog_.find_procedure(s.name);
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
      lo = eval(tape(s, 0)).as_int();
      hi = eval(tape(s, 1)).as_int();
    } catch (...) {
      bounded = false;
    }
    const int var = name_id(s);
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
      taken = eval(tape(s, 0)).as_bool();
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
    const int id = name_id(s);
    try {
      set(id, eval(tape(s, 0)));
    } catch (...) {
      unset(id);  // rhs unresolvable: the name becomes unknown
    }
  }

  const ir::Program& prog_;
  const int nprocs_;
  simk::Affinity* aff_;
  // Per program, shared by every rank's walk.
  std::vector<StmtInfo> stmts_;
  std::unordered_map<std::string, int> var_ids_;
  // Per rank.
  int rank_ = 0;
  int depth_ = 0;
  std::vector<sym::Value> vals_;
  std::vector<std::uint8_t> bound_;
  sym::CompiledExpr::Scratch scratch_;
};

}  // namespace

simk::Affinity comm_affinity(const ir::Program& prog, int nprocs) {
  simk::Affinity aff(nprocs);
  Walker w(prog, nprocs, &aff);
  for (int r = 0; r < nprocs; ++r) w.walk_rank(r);
  return aff;
}

}  // namespace stgsim::harness
