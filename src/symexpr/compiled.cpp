#include "symexpr/compiled.hpp"

#include <atomic>
#include <utility>

namespace stgsim::sym {

namespace {
std::atomic<unsigned long long> g_compiles{0};
}  // namespace

// Emits postfix code for a DAG, resolving variables lexically: Sum binders
// shadow outer bindings and free variables of the same name. Every binder
// gets a fresh slot; free variables are interned so repeated uses share
// one slot.
class CompiledExpr::Builder {
 public:
  explicit Builder(CompiledExpr& out) : out_(out) {}

  void emit(const Node& n) {
    switch (n.op) {
      case Op::kConst: {
        const std::int32_t idx = static_cast<std::int32_t>(out_.consts_.size());
        out_.consts_.push_back(n.constant);
        out_.tape_.push_back({Code::kConst, Op::kConst, idx, 0});
        return;
      }
      case Op::kVar: {
        out_.tape_.push_back({Code::kLoad, Op::kConst, resolve(n.var), 0});
        return;
      }
      case Op::kNeg:
        emit(*n.children[0]);
        out_.tape_.push_back({Code::kNeg, Op::kConst, 0, 0});
        return;
      case Op::kNot:
        emit(*n.children[0]);
        out_.tape_.push_back({Code::kNot, Op::kConst, 0, 0});
        return;
      case Op::kSelect: {
        emit(*n.children[0]);
        const std::size_t branch = out_.tape_.size();
        out_.tape_.push_back({Code::kBranchFalse, Op::kConst, 0, 0});
        emit(*n.children[1]);
        const std::size_t jump = out_.tape_.size();
        out_.tape_.push_back({Code::kJump, Op::kConst, 0, 0});
        out_.tape_[branch].a = static_cast<std::int32_t>(out_.tape_.size());
        emit(*n.children[2]);
        out_.tape_[jump].a = static_cast<std::int32_t>(out_.tape_.size());
        return;
      }
      case Op::kSum: {
        emit(*n.children[0]);  // lo
        emit(*n.children[1]);  // hi
        const std::int32_t slot = fresh_slot(n.var);
        const std::size_t head = out_.tape_.size();
        out_.tape_.push_back({Code::kSum, Op::kConst, slot, 0});
        scopes_.push_back({n.var, slot});
        emit(*n.children[2]);  // body
        scopes_.pop_back();
        out_.tape_[head].b = static_cast<std::int32_t>(out_.tape_.size());
        return;
      }
      default:
        emit(*n.children[0]);
        emit(*n.children[1]);
        out_.tape_.push_back({Code::kBinary, n.op, 0, 0});
        return;
    }
  }

 private:
  std::int32_t fresh_slot(const std::string& name) {
    const std::int32_t slot = static_cast<std::int32_t>(out_.slot_names_.size());
    out_.slot_names_.push_back(name);
    return slot;
  }

  std::int32_t resolve(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    for (int s : out_.free_slots_) {
      if (out_.slot_names_[static_cast<std::size_t>(s)] == name) return s;
    }
    const std::int32_t slot = fresh_slot(name);
    out_.free_slots_.push_back(slot);
    return slot;
  }

  CompiledExpr& out_;
  std::vector<std::pair<std::string, std::int32_t>> scopes_;
};

CompiledExpr CompiledExpr::compile(const Expr& e) {
  g_compiles.fetch_add(1, std::memory_order_relaxed);
  CompiledExpr out;
  Builder b(out);
  b.emit(e.node());
  return out;
}

unsigned long long CompiledExpr::compile_count() {
  return g_compiles.load(std::memory_order_relaxed);
}

Value CompiledExpr::run(Scratch& s, std::size_t pc, std::size_t end) const {
  const std::size_t base = s.stack.size();
  while (pc < end) {
    const Inst& in = tape_[pc];
    switch (in.code) {
      case Code::kConst:
        s.stack.push_back(consts_[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Code::kLoad: {
        const std::size_t slot = static_cast<std::size_t>(in.a);
        if (!s.bound[slot]) {
          throw EvalError("unbound variable '" + slot_names_[slot] + "'");
        }
        s.stack.push_back(s.slots[slot]);
        ++pc;
        break;
      }
      case Code::kNeg: {
        Value& v = s.stack.back();
        v = v.is_int() ? Value(-v.as_int()) : Value(-v.as_real());
        ++pc;
        break;
      }
      case Code::kNot: {
        Value& v = s.stack.back();
        v = Value(static_cast<std::int64_t>(!v.as_bool()));
        ++pc;
        break;
      }
      case Code::kBinary: {
        const Value b = s.stack.back();
        s.stack.pop_back();
        Value& a = s.stack.back();
        a = apply_binary(in.op, a, b);
        ++pc;
        break;
      }
      case Code::kBranchFalse: {
        const Value c = s.stack.back();
        s.stack.pop_back();
        pc = c.as_bool() ? pc + 1 : static_cast<std::size_t>(in.a);
        break;
      }
      case Code::kJump:
        pc = static_cast<std::size_t>(in.a);
        break;
      case Code::kSum: {
        const Value vhi = s.stack.back();
        s.stack.pop_back();
        const Value vlo = s.stack.back();
        s.stack.pop_back();
        const std::int64_t lo = vlo.as_int();
        const std::int64_t hi = vhi.as_int();
        const std::size_t slot = static_cast<std::size_t>(in.a);
        const std::size_t body_end = static_cast<std::size_t>(in.b);
        const std::uint8_t was_bound = s.bound[slot];
        const Value prev = s.slots[slot];
        s.bound[slot] = 1;
        double racc = 0.0;
        std::int64_t iacc = 0;
        bool all_int = true;
        for (std::int64_t i = lo; i <= hi; ++i) {
          s.slots[slot] = Value(i);
          const Value v = run(s, pc + 1, body_end);
          if (v.is_int() && all_int) {
            iacc += v.as_int();
          } else {
            if (all_int) {
              racc = static_cast<double>(iacc);
              all_int = false;
            }
            racc += v.as_real();
          }
        }
        s.bound[slot] = was_bound;
        s.slots[slot] = prev;
        s.stack.push_back(all_int ? Value(iacc) : Value(racc));
        pc = body_end;
        break;
      }
    }
  }
  STGSIM_DCHECK(s.stack.size() == base + 1);
  const Value result = s.stack.back();
  s.stack.pop_back();
  return result;
}

Value CompiledExpr::eval(Scratch& s) const {
  return run(s, 0, tape_.size());
}

Value CompiledExpr::eval(const Env& env) const {
  Scratch s;
  prepare(s);
  for (int slot : free_slots_) {
    auto v = env.lookup(slot_names_[static_cast<std::size_t>(slot)]);
    if (v) {
      s.slots[static_cast<std::size_t>(slot)] = *v;
      s.bound[static_cast<std::size_t>(slot)] = 1;
    }
  }
  return eval(s);
}

}  // namespace stgsim::sym
