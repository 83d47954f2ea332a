// Rank-to-worker partitioning for the threaded conservative scheduler.
//
// The cost of a threaded run is dominated by cross-partition messages:
// each rides an SPSC lane to its destination worker, a shared-memory
// hand-off instead of a direct inbox insert.
// Partition quality therefore directly controls how much the parallel
// protocol costs, exactly as it did for MPI-Sim's distributed
// implementation. Three policies are provided:
//
//   kBlock       — contiguous rank blocks (the historical default; good
//                  for 1-D neighbor patterns, poor for 2-D grids);
//   kInterleave  — round-robin (a deliberate worst case for locality;
//                  useful as a stress test and load-balance baseline);
//   kComm        — communication-aware: greedy growth over the rank
//                  affinity graph followed by Kernighan–Lin-style boundary
//                  refinement, minimizing the weight of cut edges under a
//                  strict balance constraint (part sizes differ by <= 1).
//
// The affinity graph is extracted statically from the target program's
// communication structure (src/harness/affinity.*); the partitioners here
// are pure graph algorithms with no knowledge of the IR, so the sim layer
// stays at the bottom of the module graph.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace stgsim::simk {

enum class PartitionMode { kBlock, kInterleave, kComm };

const char* partition_mode_name(PartitionMode m);

/// Parses "block" / "interleave" / "comm"; returns false on anything else.
bool parse_partition_mode(const std::string& name, PartitionMode* out);

/// Sparse symmetric weighted graph over ranks. Edge weights accumulate:
/// add(a, b, w) twice contributes 2w. Self-edges are ignored (affinity to
/// oneself never crosses a partition).
class Affinity {
 public:
  explicit Affinity(int nranks);

  int nranks() const { return nranks_; }

  void add(int a, int b, double w);

  /// Neighbors of `r` with accumulated weights, in first-added order.
  const std::vector<std::pair<int, double>>& neighbors(int r) const {
    return adj_[static_cast<std::size_t>(r)];
  }

  /// Sum of all edge weights (each undirected edge counted once).
  double total_weight() const;

 private:
  int nranks_ = 0;
  std::vector<std::vector<std::pair<int, double>>> adj_;
};

/// rank -> worker maps. All three produce balanced parts (sizes differ by
/// at most one) and are deterministic functions of their inputs.
std::vector<int> block_partition(int nranks, int workers);
std::vector<int> interleave_partition(int nranks, int workers);
std::vector<int> comm_partition(const Affinity& aff, int workers);

/// Builds the rank->worker map for `mode`. `aff` may be null for kBlock /
/// kInterleave; kComm requires it.
std::vector<int> make_partition(PartitionMode mode, int nranks, int workers,
                                const Affinity* aff);

/// Total weight of edges whose endpoints land in different parts.
double cut_weight(const Affinity& aff, const std::vector<int>& part);

}  // namespace stgsim::simk
