// Execution plan: the half of the IR interpreter that depends only on the
// program text, built once per run and shared read-only by every rank.
//
// The paper's point is that compile-time analysis makes a 10,000-target
// simulation cheap in host time and memory. The interpreter honours that
// by resolving, once per run, everything a rank would otherwise rediscover
// on its own:
//   * one program-wide scalar slot layout (every declared scalar, loop
//     variable, assignment target and free expression variable),
//   * one sym::CompiledExpr tape per hot operand (assignment right-hand
//     sides, loop bounds, branch conditions, delay seconds, kernel
//     iteration counts, communication peer/count/offset, declaration
//     initializers, array extents, timer counts) with its free variables
//     already mapped to those slots,
//   * dense ids for arrays, request lists and timers, the callee of every
//     kCall, and each kernel's declared names,
//   * which arrays are payload-free (the dummy buffer: charged to the
//     memory ledger, never allocated), checked here so no statement that
//     touches bytes can reach one.
// A rank's ExecState keeps only values indexed by these ids (the scalar
// frame, one memo cell per tape operand, arrays, request lists, timers),
// so no per-rank path compiles an expression or hashes a name.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/program.hpp"
#include "symexpr/compiled.hpp"

namespace stgsim::ir {

class Plan {
 public:
  /// One expression operand. Literals fold to kConst and single variables
  /// read their slot directly (kVar); everything else is a tape (kTape)
  /// whose last value a rank memoizes in cell `memo`, revalidated against
  /// the write generations of `slots` (stamped at cells [stamp, stamp +
  /// slots.size()) of the rank's stamp vector).
  struct Operand {
    enum class Kind : std::uint8_t { kConst, kVar, kTape };
    Kind kind = Kind::kConst;
    sym::Value value;           ///< kConst
    sym::CompiledExpr code;     ///< kTape
    std::vector<int> slots;     ///< frame slot per code.free_slots()[i]
    int memo = -1;              ///< kTape
    int stamp = 0;              ///< kTape
  };

  /// A kernel's declared read/write name, resolved to its array id and
  /// scalar slot (-1 where the name is not one).
  struct KernelName {
    std::string name;
    int array = -1;
    int slot = -1;
    bool writable = false;  ///< in the kernel's write set
  };

  /// What one statement's execution needs; fields a kind does not use
  /// stay -1 / empty (see the field table in program.hpp).
  struct StmtPlan {
    int e1 = -1, e2 = -1, e3 = -1;  ///< operand ids (kCompute: e1 = iters)
    int slot = -1;                  ///< scalar the statement writes
    int array = -1;
    int requests = -1;
    int timer = -1;
    const Procedure* callee = nullptr;  ///< kCall (null: unknown name)
    std::vector<int> extents;           ///< kDeclArray operand ids
    std::vector<KernelName> names;      ///< kCompute: reads ∪ writes
    std::vector<int> working_set;       ///< kCompute: reads, then writes
  };

  /// Compiles every operand of `prog`, which must outlive the plan.
  /// Throws CheckError, naming the array, if a payload-free array (one the
  /// code generator declared as a ledger charge without storage) is named
  /// by a kernel, moved by a communication statement that is not itself
  /// payload-free, or also declared with storage.
  explicit Plan(const Program& prog);

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  const Program& program() const { return prog_; }
  const StmtPlan& at(const Stmt& s) const {
    return stmts_[static_cast<std::size_t>(s.id)];
  }
  const Operand& operand(int id) const {
    return operands_[static_cast<std::size_t>(id)];
  }

  int num_slots() const { return static_cast<int>(slot_names_.size()); }
  int num_arrays() const { return static_cast<int>(array_ids_.size()); }
  int num_request_lists() const { return num_request_lists_; }
  int num_timers() const { return num_timers_; }
  int num_memos() const { return num_memos_; }
  int num_stamps() const { return num_stamps_; }

  const std::string& slot_name(int slot) const {
    return slot_names_[static_cast<std::size_t>(slot)];
  }
  /// Array id of `name`, -1 if the program never declares or moves it.
  int array_id(const std::string& name) const;
  /// True if array `id` is declared payload-free: charged, never stored.
  bool payload_free(int id) const {
    return payload_free_[static_cast<std::size_t>(id)] != 0;
  }

  /// Evaluates operand `id` against a frame of `values` indexed by slot,
  /// where `defined[slot] == 0` marks a variable as unbound; reading one
  /// throws the tree walker's sym::EvalError. `scratch` is the caller's
  /// tape state, one per thread of evaluation.
  sym::Value eval(int id, const std::vector<sym::Value>& values,
                  const std::vector<std::uint8_t>& defined,
                  sym::CompiledExpr::Scratch& scratch) const {
    const Operand& op = operand(id);
    switch (op.kind) {
      case Operand::Kind::kConst:
        return op.value;
      case Operand::Kind::kVar: {
        const auto slot = static_cast<std::size_t>(op.slots[0]);
        if (defined[slot] == 0) {
          throw sym::EvalError("unbound variable '" +
                               slot_name(op.slots[0]) + "'");
        }
        return values[slot];
      }
      case Operand::Kind::kTape:
        break;
    }
    return run_tape(op, values, defined, scratch);
  }

 private:
  struct Builder;

  static sym::Value run_tape(const Operand& op,
                             const std::vector<sym::Value>& values,
                             const std::vector<std::uint8_t>& defined,
                             sym::CompiledExpr::Scratch& scratch);

  const Program& prog_;
  std::vector<StmtPlan> stmts_;  ///< indexed by Stmt::id
  std::vector<Operand> operands_;
  std::vector<std::string> slot_names_;
  std::unordered_map<std::string, int> array_ids_;
  std::vector<std::uint8_t> payload_free_;  ///< per array id
  int num_request_lists_ = 0;
  int num_timers_ = 0;
  int num_memos_ = 0;
  int num_stamps_ = 0;
};

}  // namespace stgsim::ir
