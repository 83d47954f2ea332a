// Compiled symbolic expressions: a flat postfix tape with slot-indexed
// variable bindings.
//
// The AM-mode hot loop evaluates the same scaling expressions millions of
// times (one delay() per eliminated compute block, loop bounds every
// iteration). Walking the shared_ptr DAG costs a virtual Env::lookup plus
// a string compare per variable per visit. CompiledExpr resolves every
// variable to a dense slot index once at compile time; evaluation is then
// a tight array walk over a vector of fixed-size instructions with a
// reusable operand stack — no allocation, no name lookups.
//
// Semantics are bit-identical to Expr::eval:
//   * int/real coercion per operator via the shared sym::apply_binary,
//   * `select` evaluates only the taken branch (jump instructions),
//   * kAnd/kOr evaluate both operands (as the tree walker does),
//   * `Sum` accumulates exactly like the tree walker (int until the first
//     real body value, then real), with the bound variable in its own
//     slot shadowing any free variable of the same name,
//   * reading an unbound slot throws EvalError, exactly when the tree
//     walker would (an unbound variable in an untaken branch is fine).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "symexpr/expr.hpp"

namespace stgsim::sym {

class CompiledExpr {
 public:
  CompiledExpr() = default;

  static CompiledExpr compile(const Expr& e);

  /// Total compile() calls process-wide (stats and tests; relaxed).
  static unsigned long long compile_count();

  /// Total slots (free variables + Sum binders).
  int num_slots() const { return static_cast<int>(slot_names_.size()); }
  /// Variable name of each slot.
  const std::vector<std::string>& slot_names() const { return slot_names_; }
  /// Slots the caller must bind before eval (Sum binders excluded).
  const std::vector<int>& free_slots() const { return free_slots_; }

  /// Reusable evaluation state: keep one per thread of evaluation and pass
  /// it to every eval call to avoid per-call allocation.
  struct Scratch {
    std::vector<Value> slots;
    std::vector<std::uint8_t> bound;
    std::vector<Value> stack;
  };

  /// Sizes scratch for this expression and clears all bindings. Bind free
  /// slots (slots[i] = v, bound[i] = 1) between prepare() and eval().
  void prepare(Scratch& s) const {
    s.slots.assign(slot_names_.size(), Value());
    s.bound.assign(slot_names_.size(), 0);
  }

  /// Evaluates the tape. Throws EvalError on use of an unbound slot or a
  /// domain error, mirroring the tree walker.
  Value eval(Scratch& s) const;

  /// Convenience (tests): binds free slots from `env`, then evaluates.
  /// Names missing from env stay unbound — an error only if actually read.
  Value eval(const Env& env) const;

 private:
  enum class Code : std::uint8_t {
    kConst,        // push consts_[a]
    kLoad,         // push slot a (throws if unbound)
    kNeg,          // arithmetic negate top of stack
    kNot,          // logical negate top of stack
    kBinary,       // pop b, a; push apply_binary(op, a, b)
    kBranchFalse,  // pop cond; if !cond jump to a
    kJump,         // jump to a
    kSum,          // pop hi, lo; loop body [pc+1, b) binding slot a
  };
  struct Inst {
    Code code;
    Op op = Op::kConst;   // kBinary only
    std::int32_t a = 0;   // const index / slot / jump target
    std::int32_t b = 0;   // kSum: pc one past the body
  };

  class Builder;

  Value run(Scratch& s, std::size_t pc, std::size_t end) const;

  std::vector<Inst> tape_;
  std::vector<Value> consts_;
  std::vector<std::string> slot_names_;
  std::vector<int> free_slots_;
};

}  // namespace stgsim::sym
