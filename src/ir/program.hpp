// Program IR for message-passing target programs.
//
// This plays the role of the Fortran/MPI source level in the paper: target
// benchmarks are authored in this IR, the interpreter *directly executes*
// them (MPI-Sim-DE), and the compiler in src/core analyses and rewrites
// them into simplified programs (MPI-SIM-AM).
//
// The IR deliberately separates what a real compiler can see from what it
// cannot: scalar computation, control flow, and communication are explicit
// statements with full def/use information, while the arithmetic inside a
// computational task is an opaque native kernel carrying exactly the
// metadata dHPF attaches to an STG compute node — a symbolic iteration
// count (scaling function), an operation weight, and declared read/write
// sets (paper §2.2, §3.1). The compiler may not peek inside kernel bodies.
//
// Statement field usage by kind (unused fields ignored):
//   kDeclScalar : name, e1 = init (optional), scalar_is_real
//   kDeclArray  : name, extents[] (element counts per dim), elem_bytes
//   kAssign     : name = e1
//   kFor        : name = loop var, e1 = lo, e2 = hi (inclusive), body
//   kIf         : e1 = condition, body, else_body
//   kCompute    : kernel
//   kSend/kIsend: name = array, e1 = peer, e2 = count (elems),
//                 e3 = offset (elems), tag, aux_name = request list (isend)
//   kRecv/kIrecv: like send; name = destination array; e1 may be -1 (any)
//   kWaitall    : name = request list
//   kBarrier    : —
//   kBcast      : name = array, e1 = root, e2 = count, e3 = offset
//   kAllreduceSum/kAllreduceMax : name = scalar (double)
//   kGetRank/kGetSize : name = scalar to define
//   kDelay      : e1 = seconds (real-valued expression)
//   kReadParam  : name = scalar to define, aux_name = parameter name
//   kTimerStart : name = task id
//   kTimerStop  : name = task id, e1 = iteration-count expression
//   kCall       : name = procedure (executed in the caller's frame, the
//                 paper's single-frame "limited interprocedural" model)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "symexpr/expr.hpp"

namespace stgsim::ir {

class KernelCtx;

/// Metadata + native body of one computational task. `iters` is the
/// symbolic scaling function; `flops_per_iter` the operation weight; the
/// optional `branch_fraction` models a data-dependent branch inside the
/// task (Sweep3D's flux fixup, §3.1): direct execution evaluates the real
/// fraction from array contents, adding `extra_flops_per_iter` per taken
/// iteration.
struct KernelSpec {
  std::string task;  ///< calibration-parameter identity (w_<task>)
  sym::Expr iters = sym::Expr::integer(1);
  double flops_per_iter = 1.0;
  double extra_flops_per_iter = 0.0;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  std::function<void(KernelCtx&)> body;                ///< optional
  std::function<double(KernelCtx&)> branch_fraction;   ///< optional
};

enum class StmtKind {
  kDeclScalar,
  kDeclArray,
  kAssign,
  kFor,
  kIf,
  kCompute,
  kSend,
  kRecv,
  kIsend,
  kIrecv,
  kWaitall,
  kBarrier,
  kBcast,
  kAllreduceSum,
  kAllreduceMax,
  kGetRank,
  kGetSize,
  kDelay,
  kReadParam,
  kTimerStart,
  kTimerStop,
  kCall,
};

const char* stmt_kind_name(StmtKind k);

struct Stmt;
using StmtP = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind{};
  int id = -1;  ///< unique within a Program (assigned by Program)

  std::string name;
  std::string aux_name;
  bool scalar_is_real = false;
  bool has_init = false;

  /// Set by the code generator on communication statements it redirected
  /// to the shared dummy buffer: the transfer must be modeled with the
  /// correct wire size and timing, but the bytes moved carry no meaning,
  /// so the interpreter passes a null span and no payload is copied. Also
  /// set on the dummy's kDeclArray: the array is charged to the memory
  /// ledger at its full size but never allocated (ir::Plan rejects any
  /// other statement that names it).
  bool payload_free = false;
  std::size_t elem_bytes = sizeof(double);
  int tag = 0;

  sym::Expr e1, e2, e3;
  std::vector<sym::Expr> extents;
  KernelSpec kernel;

  std::vector<StmtP> body;
  std::vector<StmtP> else_body;
};

struct Procedure {
  std::string name;
  std::vector<StmtP> body;
};

/// Variables a statement defines/uses — the raw material for slicing.
/// Arrays, scalars and request lists share one name space.
struct StmtEffects {
  std::vector<std::string> defs;
  std::vector<std::string> uses;
};

StmtEffects stmt_effects(const Stmt& s);

/// A whole target program: `main` plus named procedures, all sharing one
/// variable frame (the paper handles single-procedure benchmarks with
/// limited interprocedural effects; kCall gives the same semantics).
class Program {
 public:
  explicit Program(std::string name) : name_(std::move(name)) {}

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  const std::string& name() const { return name_; }

  std::vector<StmtP>& main() { return main_; }
  const std::vector<StmtP>& main() const { return main_; }

  Procedure& add_procedure(const std::string& name);
  const Procedure* find_procedure(const std::string& name) const;
  const std::vector<Procedure>& procedures() const { return procs_; }
  std::vector<Procedure>& procedures() { return procs_; }

  /// Creates a statement owned by nobody yet (caller inserts it into a
  /// body); ids are unique across the program.
  StmtP make_stmt(StmtKind kind);

  int next_id() const { return next_id_; }

  /// Deep copy (fresh ids preserved one-to-one — clone keeps stmt ids so
  /// analyses done on the original remain meaningful on the clone).
  Program clone() const;

  /// Pretty-printed source-like listing.
  std::string to_string() const;

  /// Structural sanity: unique ids, declared-before-use names, loops
  /// non-empty vars, etc. Throws CheckError on violation.
  void validate() const;

 private:
  std::string name_;
  std::vector<StmtP> main_;
  std::vector<Procedure> procs_;
  int next_id_ = 0;
};

/// Walks every statement (pre-order, including nested bodies) in `block`.
void for_each_stmt(const std::vector<StmtP>& block,
                   const std::function<void(const Stmt&)>& fn);
void for_each_stmt(const Program& prog,
                   const std::function<void(const Stmt&)>& fn);

}  // namespace stgsim::ir
