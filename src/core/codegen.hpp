// Simplified-program generation (paper §3.1) and timer instrumentation
// (paper §3.3 / Figure 2).
//
// generate_simplified() rewrites a target program using a computed slice:
//   * retained statements (communication, the control flow that reaches
//     it, and the sliced-in scalar computation) are kept verbatim;
//   * maximal runs of eliminated statements are collapsed into a single
//     call to the MPI-Sim delay() extension whose argument is the region's
//     symbolic scaling expression times the per-iteration time parameters
//     w_<task> (closed-form sums over eliminated loops where the trip
//     counts are affine; executable symbolic sums otherwise — the NAS SP
//     case where loop bounds live in arrays the compiler cannot forward);
//   * eliminated conditionals are folded statistically with a (possibly
//     profiled) branch probability;
//   * communication references to eliminated arrays are redirected to a
//     single shared dummy buffer sized to the maximum message (§3.1); its
//     declarations and transfers are payload_free, so the run charges its
//     bytes to the memory ledger but never allocates or copies them;
//   * a prologue of read_and_broadcast calls loads each w_<task>.
//
// generate_timer_program() instruments every computational task of the
// *original* program with timers, producing the measurement version whose
// output parameterizes the simplified one.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/slice.hpp"
#include "ir/program.hpp"

namespace stgsim::core {

struct CodegenOptions {
  /// Per-branch taken probability (keyed by kIf statement id) from a
  /// profiling run; branches missing here use default_branch_prob.
  std::map<int, double> branch_probs;
  double default_branch_prob = 0.5;

  /// Use closed-form sums for affine trip counts; when false, every
  /// eliminated loop keeps an executable symbolic sum (ablation).
  bool use_closed_form_sums = true;

  std::string dummy_buffer_name = "__dummy_buf";
};

/// One emitted delay() call and the tasks it condenses.
struct CondensedTask {
  int delay_stmt_id = -1;
  sym::Expr seconds;                 ///< the delay argument
  std::vector<std::string> tasks;    ///< kernel task names folded in
};

struct SimplifyResult {
  ir::Program program;
  std::vector<CondensedTask> condensed;
  std::set<std::string> params;  ///< w_<task> parameters the program reads
  std::size_t dummy_buffer_comms = 0;  ///< comm ops redirected to the dummy
};

SimplifyResult generate_simplified(const ir::Program& prog,
                                   const SliceResult& slice,
                                   const CodegenOptions& options = {});

/// Clone of `prog` with TimerStart/TimerStop around every compute task.
ir::Program generate_timer_program(const ir::Program& prog);

}  // namespace stgsim::core
