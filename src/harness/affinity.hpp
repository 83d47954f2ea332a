// Static communication-affinity extraction for comm-aware partitioning.
//
// comm_affinity() walks the target program once per rank, evaluating the
// scalar environment far enough to resolve communication peers (kGetRank /
// kGetSize seed the frame; assignments and loop variables propagate), and
// accumulates an undirected rank-affinity graph weighted by transferred
// bytes. The walk is a *static heuristic*, not an execution: loops are
// sampled at their first, second and last iterations, both branches of an
// unresolvable kIf are visited, and any peer expression that does not
// evaluate is skipped. Collectives are ignored — their traffic touches all
// partitions regardless of the mapping, so they carry no placement signal.
//
// What depends only on the program text is built once and shared by every
// rank's walk: each walked expression is compiled to a sym::CompiledExpr
// tape (bit-identical to Expr::eval, including which unbound reads throw)
// over interned variable ids, and which statements contain communication
// is memoized. A rank's walk then keeps only a dense value array.
//
// The result feeds simk::comm_partition (--partition=comm). Inaccuracy is
// harmless: the partition never affects simulated results, only which
// worker executes each rank.
#pragma once

#include "ir/program.hpp"
#include "sim/partition.hpp"

namespace stgsim::harness {

/// Builds the rank-affinity graph of `prog` on `nprocs` ranks.
simk::Affinity comm_affinity(const ir::Program& prog, int nprocs);

}  // namespace stgsim::harness
