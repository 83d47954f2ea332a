#include "ir/plan.hpp"

#include "support/check.hpp"

namespace stgsim::ir {

/// Interns names into the plan's id spaces and compiles operands. Slot,
/// array, request-list and timer ids are assigned in first-seen order of a
/// pre-order walk; the order only fixes the frame layout of this run.
struct Plan::Builder {
  explicit Builder(Plan& p) : plan(p) {}

  int slot(const std::string& name) {
    const auto [it, added] =
        slots.try_emplace(name, static_cast<int>(plan.slot_names_.size()));
    if (added) plan.slot_names_.push_back(name);
    return it->second;
  }

  int array(const std::string& name) {
    return plan.array_ids_
        .try_emplace(name, static_cast<int>(plan.array_ids_.size()))
        .first->second;
  }

  static int intern(std::unordered_map<std::string, int>& ids,
                    const std::string& name, int* count) {
    const auto [it, added] = ids.try_emplace(name, *count);
    if (added) ++*count;
    return it->second;
  }

  int operand(const sym::Expr& e) {
    Operand op;
    if (const auto v = e.constant_value()) {
      op.value = *v;
    } else if (e.op() == sym::Op::kVar) {
      op.kind = Operand::Kind::kVar;
      op.slots.push_back(slot(e.node().var));
    } else {
      op.kind = Operand::Kind::kTape;
      op.code = sym::CompiledExpr::compile(e);
      for (const int s : op.code.free_slots()) {
        op.slots.push_back(
            slot(op.code.slot_names()[static_cast<std::size_t>(s)]));
      }
      op.memo = plan.num_memos_++;
      op.stamp = plan.num_stamps_;
      plan.num_stamps_ += static_cast<int>(op.slots.size());
    }
    plan.operands_.push_back(std::move(op));
    return static_cast<int>(plan.operands_.size()) - 1;
  }

  void add(const Stmt& s) {
    const auto i = static_cast<std::size_t>(s.id);
    if (i >= plan.stmts_.size()) plan.stmts_.resize(i + 1);
    StmtPlan& p = plan.stmts_[i];
    switch (s.kind) {
      case StmtKind::kDeclScalar:
        if (s.has_init) p.e1 = operand(s.e1);
        p.slot = slot(s.name);
        break;
      case StmtKind::kDeclArray: {
        for (const auto& e : s.extents) p.extents.push_back(operand(e));
        p.array = array(s.name);
        const auto [it, added] = storage.try_emplace(p.array, s.payload_free);
        STGSIM_CHECK(added || it->second == s.payload_free)
            << "array '" << s.name
            << "' is declared both payload-free and with storage";
        break;
      }
      case StmtKind::kAssign:
        p.e1 = operand(s.e1);
        p.slot = slot(s.name);
        break;
      case StmtKind::kFor:
        p.e1 = operand(s.e1);
        p.e2 = operand(s.e2);
        p.slot = slot(s.name);
        break;
      case StmtKind::kIf:
      case StmtKind::kDelay:
        p.e1 = operand(s.e1);
        break;
      case StmtKind::kCompute:
        p.e1 = operand(s.kernel.iters);
        break;
      case StmtKind::kIsend:
      case StmtKind::kIrecv:
        p.requests = intern(requests, s.aux_name, &plan.num_request_lists_);
        [[fallthrough]];
      case StmtKind::kSend:
      case StmtKind::kRecv:
      case StmtKind::kBcast:
        p.e1 = operand(s.e1);
        p.e2 = operand(s.e2);
        p.e3 = operand(s.e3);
        p.array = array(s.name);
        break;
      case StmtKind::kWaitall:
        p.requests = intern(requests, s.name, &plan.num_request_lists_);
        break;
      case StmtKind::kAllreduceSum:
      case StmtKind::kAllreduceMax:
      case StmtKind::kGetRank:
      case StmtKind::kGetSize:
      case StmtKind::kReadParam:
        p.slot = slot(s.name);
        break;
      case StmtKind::kTimerStart:
        p.timer = intern(timers, s.name, &plan.num_timers_);
        break;
      case StmtKind::kTimerStop:
        p.timer = intern(timers, s.name, &plan.num_timers_);
        p.e1 = operand(s.e1);
        break;
      case StmtKind::kCall:
        p.callee = plan.prog_.find_procedure(s.name);
        break;
      case StmtKind::kBarrier:
        break;
    }
  }

  /// Kernel names resolve after the walk, against the complete layout:
  /// a kernel may name a scalar or array declared after it in the text.
  void resolve_kernel(const Stmt& s) {
    StmtPlan& p = plan.stmts_[static_cast<std::size_t>(s.id)];
    const KernelSpec& k = s.kernel;
    auto add_name = [&](const std::string& name, bool writable) {
      for (KernelName& n : p.names) {
        if (n.name == name) {
          n.writable = n.writable || writable;
          return;
        }
      }
      KernelName n;
      n.name = name;
      if (const auto it = slots.find(name); it != slots.end()) {
        n.slot = it->second;
      }
      n.array = plan.array_id(name);
      n.writable = writable;
      p.names.push_back(std::move(n));
    };
    for (const auto* names : {&k.reads, &k.writes}) {
      for (const auto& name : *names) {
        add_name(name, names == &k.writes);
        const int id = plan.array_id(name);
        if (id < 0) continue;
        STGSIM_CHECK(!plan.payload_free(id))
            << "kernel " << k.task << " names payload-free array '" << name
            << "', which has no storage";
        p.working_set.push_back(id);
      }
    }
  }

  /// A communication statement on a payload-free array must itself be
  /// payload-free: it passes a null span, so no byte is copied.
  void check_comm(const Stmt& s) {
    const StmtPlan& p = plan.stmts_[static_cast<std::size_t>(s.id)];
    if (p.array < 0 || s.kind == StmtKind::kDeclArray) return;
    STGSIM_CHECK(s.payload_free || !plan.payload_free(p.array))
        << stmt_kind_name(s.kind) << " statement " << s.id
        << " moves the bytes of payload-free array '" << s.name
        << "', which has no storage";
  }

  Plan& plan;
  std::unordered_map<int, bool> storage;  ///< array id -> payload-free
  std::unordered_map<std::string, int> slots;
  std::unordered_map<std::string, int> requests;
  std::unordered_map<std::string, int> timers;
};

Plan::Plan(const Program& prog) : prog_(prog) {
  stmts_.resize(static_cast<std::size_t>(prog.next_id()));
  Builder b(*this);
  for_each_stmt(prog, [&](const Stmt& s) { b.add(s); });
  payload_free_.assign(array_ids_.size(), 0);
  for (const auto& [id, free] : b.storage) {
    payload_free_[static_cast<std::size_t>(id)] = free ? 1 : 0;
  }
  for_each_stmt(prog, [&](const Stmt& s) {
    if (s.kind == StmtKind::kCompute) b.resolve_kernel(s);
    b.check_comm(s);
  });
}

sym::Value Plan::run_tape(const Operand& op,
                          const std::vector<sym::Value>& values,
                          const std::vector<std::uint8_t>& defined,
                          sym::CompiledExpr::Scratch& scratch) {
  // The scratch slots are sized grow-only and not cleared between
  // operands: every loadable slot is written below (free slots) or managed
  // by the tape itself (Sum binders), so stale entries are unreachable.
  // The stack is cleared because a tape that threw leaves its partial
  // operands behind.
  scratch.stack.clear();
  const auto n = static_cast<std::size_t>(op.code.num_slots());
  if (scratch.slots.size() < n) {
    scratch.slots.resize(n);
    scratch.bound.resize(n);
  }
  const std::vector<int>& free = op.code.free_slots();
  for (std::size_t i = 0; i < free.size(); ++i) {
    const auto slot = static_cast<std::size_t>(free[i]);
    const auto fi = static_cast<std::size_t>(op.slots[i]);
    scratch.bound[slot] = defined[fi];
    scratch.slots[slot] = values[fi];
  }
  return op.code.eval(scratch);
}

int Plan::array_id(const std::string& name) const {
  const auto it = array_ids_.find(name);
  return it == array_ids_.end() ? -1 : it->second;
}

}  // namespace stgsim::ir
