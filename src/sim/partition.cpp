#include "sim/partition.hpp"

#include <algorithm>
#include <queue>
#include <set>

#include "support/check.hpp"

namespace stgsim::simk {

const char* partition_mode_name(PartitionMode m) {
  switch (m) {
    case PartitionMode::kBlock: return "block";
    case PartitionMode::kInterleave: return "interleave";
    case PartitionMode::kComm: return "comm";
  }
  return "?";
}

bool parse_partition_mode(const std::string& name, PartitionMode* out) {
  if (name == "block") { *out = PartitionMode::kBlock; return true; }
  if (name == "interleave") { *out = PartitionMode::kInterleave; return true; }
  if (name == "comm") { *out = PartitionMode::kComm; return true; }
  return false;
}

Affinity::Affinity(int nranks)
    : nranks_(nranks), adj_(static_cast<std::size_t>(nranks)) {
  STGSIM_CHECK_GT(nranks, 0);
}

void Affinity::add(int a, int b, double w) {
  if (a == b || w <= 0.0) return;
  STGSIM_CHECK(a >= 0 && a < nranks_ && b >= 0 && b < nranks_);
  auto accumulate = [](std::vector<std::pair<int, double>>& row, int peer,
                       double weight) {
    for (auto& [p, acc] : row) {
      if (p == peer) {
        acc += weight;
        return;
      }
    }
    row.emplace_back(peer, weight);
  };
  accumulate(adj_[static_cast<std::size_t>(a)], b, w);
  accumulate(adj_[static_cast<std::size_t>(b)], a, w);
}

double Affinity::total_weight() const {
  double sum = 0.0;
  for (const auto& row : adj_) {
    for (const auto& [peer, w] : row) sum += w;
  }
  return sum / 2.0;  // every undirected edge is stored twice
}

std::vector<int> block_partition(int nranks, int workers) {
  STGSIM_CHECK_GT(workers, 0);
  std::vector<int> part(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    // Same mapping the engine historically used for home_worker_.
    part[static_cast<std::size_t>(r)] = static_cast<int>(
        static_cast<long long>(r) * workers / nranks);
  }
  return part;
}

std::vector<int> interleave_partition(int nranks, int workers) {
  STGSIM_CHECK_GT(workers, 0);
  std::vector<int> part(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    part[static_cast<std::size_t>(r)] = r % workers;
  }
  return part;
}

double cut_weight(const Affinity& aff, const std::vector<int>& part) {
  STGSIM_CHECK_EQ(part.size(), static_cast<std::size_t>(aff.nranks()));
  double cut = 0.0;
  for (int r = 0; r < aff.nranks(); ++r) {
    for (const auto& [peer, w] : aff.neighbors(r)) {
      if (peer > r && part[static_cast<std::size_t>(peer)] !=
                          part[static_cast<std::size_t>(r)]) {
        cut += w;
      }
    }
  }
  return cut;
}

namespace {

/// Weight from `r` to every part, computed on demand (rank degrees are
/// small for the mesh/grid patterns we partition).
void part_weights(const Affinity& aff, const std::vector<int>& part, int r,
                  std::vector<double>* w) {
  std::fill(w->begin(), w->end(), 0.0);
  for (const auto& [peer, pw] : aff.neighbors(r)) {
    (*w)[static_cast<std::size_t>(part[static_cast<std::size_t>(peer)])] +=
        pw;
  }
}

/// Greedy graph growing: parts are filled one at a time to their quota,
/// always absorbing the unassigned rank with the strongest connection to
/// the part grown so far (ties to the lowest rank; disconnected ranks seed
/// from the lowest unassigned id). Deterministic by construction.
std::vector<int> greedy_grow(const Affinity& aff, int workers,
                             const std::vector<int>& quota) {
  const int n = aff.nranks();
  std::vector<int> part(static_cast<std::size_t>(n), -1);
  std::vector<double> conn(static_cast<std::size_t>(n), 0.0);
  int next_seed = 0;

  for (int p = 0; p < workers; ++p) {
    std::fill(conn.begin(), conn.end(), 0.0);
    // Max-heap of (connection, -rank) with lazy deletion: stale entries
    // (connection no longer current, or rank already assigned) are
    // discarded on pop.
    std::priority_queue<std::pair<double, int>> heap;
    int grown = 0;
    while (grown < quota[static_cast<std::size_t>(p)]) {
      int pick = -1;
      while (!heap.empty()) {
        const auto [w, negr] = heap.top();
        const int r = -negr;
        if (part[static_cast<std::size_t>(r)] == -1 &&
            w == conn[static_cast<std::size_t>(r)]) {
          pick = r;
          break;
        }
        heap.pop();
      }
      if (pick == -1) {
        while (next_seed < n && part[static_cast<std::size_t>(next_seed)] != -1) {
          ++next_seed;
        }
        STGSIM_CHECK(next_seed < n);
        pick = next_seed;
      } else {
        heap.pop();
      }
      part[static_cast<std::size_t>(pick)] = p;
      ++grown;
      for (const auto& [peer, w] : aff.neighbors(pick)) {
        if (part[static_cast<std::size_t>(peer)] != -1) continue;
        conn[static_cast<std::size_t>(peer)] += w;
        heap.emplace(conn[static_cast<std::size_t>(peer)], -peer);
      }
    }
  }
  return part;
}

/// Candidates of one side of a KL pass, best first: (D desc, rank asc).
/// Equal-D ranks stay rank-ordered, so the pool's head is the same
/// deterministic top-k a stable sort of the side list would give.
struct ByGain {
  bool operator()(const std::pair<double, int>& a,
                  const std::pair<double, int>& b) const {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  }
};
using Pool = std::set<std::pair<double, int>, ByGain>;

/// One Kernighan–Lin pass between parts `p` and `q`. The classic inner
/// loop: tentatively apply the best available swap (or quota-permitted
/// one-sided move) *even when its gain is negative*, lock the moved ranks,
/// and keep going; then commit the prefix of the move sequence with the
/// best cumulative gain and roll the rest back. Accepting interim negative
/// moves is what lets the pass climb out of zero-gain plateaus (e.g. a
/// row-blocked grid, where every single swap is gain <= 0 but a pair of
/// swaps re-tiles the boundary). Each rank moves at most once per pass.
/// The unlocked ranks of each side sit in an ordered pool keyed by D, so a
/// move costs O(degree * log n) to re-key its neighbours and a pass
/// O(moves * degree * log n), bounded by `max_moves`.
bool refine_pair(const Affinity& aff, std::vector<int>* part,
                 std::vector<int>* sizes, const std::vector<int>& quota,
                 int p, int q, int max_moves) {
  const int n = aff.nranks();
  std::vector<double> w(sizes->size());
  // D[r] = (weight to the other part) - (weight to own part): the cut
  // reduction of moving r across, before accounting for the partner swap.
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  Pool pool_p, pool_q;
  for (int r = 0; r < n; ++r) {
    const int pr = (*part)[static_cast<std::size_t>(r)];
    if (pr != p && pr != q) continue;
    part_weights(aff, *part, r, &w);
    const int other = pr == p ? q : p;
    d[static_cast<std::size_t>(r)] = w[static_cast<std::size_t>(other)] -
                                     w[static_cast<std::size_t>(pr)];
    (pr == p ? pool_p : pool_q).emplace(d[static_cast<std::size_t>(r)], r);
  }
  auto pool_of = [&](int side) -> Pool& { return side == p ? pool_p : pool_q; };

  auto weight_between = [&](int a, int b) {
    for (const auto& [peer, pw] : aff.neighbors(a)) {
      if (peer == b) return pw;
    }
    return 0.0;
  };

  // Moves r across and locks it: a moved rank leaves its pool for the rest
  // of the pass (so the rollback below, which moves only locked ranks,
  // never re-enters one). Neighbours still in a pool are re-keyed.
  auto apply_move = [&](int r, int from, int to) {
    pool_of(from).erase({d[static_cast<std::size_t>(r)], r});
    (*part)[static_cast<std::size_t>(r)] = to;
    --(*sizes)[static_cast<std::size_t>(from)];
    ++(*sizes)[static_cast<std::size_t>(to)];
    // Crossing the boundary flips the sign of r's own D and shifts each
    // neighbor's by ±2w depending on which side it sits on.
    d[static_cast<std::size_t>(r)] = -d[static_cast<std::size_t>(r)];
    for (const auto& [peer, pw] : aff.neighbors(r)) {
      const int pp = (*part)[static_cast<std::size_t>(peer)];
      if (pp != to && pp != from) continue;
      double& dp = d[static_cast<std::size_t>(peer)];
      Pool& pool = pool_of(pp);
      auto node = pool.extract({dp, peer});
      if (pp == to) {
        dp -= 2.0 * pw;
      } else {
        dp += 2.0 * pw;
      }
      if (node) {
        node.value().first = dp;
        pool.insert(std::move(node));
      }
    }
  };

  struct Move {
    int rank;
    int from;
    int to;
  };
  std::vector<Move> moves;  // tentative sequence, in application order
  double cumulative = 0.0, best_cum = 0.0;
  std::size_t best_len = 0;

  // Per-move candidate pool size per side. Classic KL maximizes
  // D_a + D_b - 2w(a,b) over *pairs* — taking the best-D rank from each
  // side independently is not enough (the two best-D ranks are often
  // connected, and the -2w term makes their swap the worst choice on a
  // plateau). A small pool bounds the pair scan at kPool^2 per move.
  constexpr std::size_t kPool = 8;

  std::vector<int> cand_p, cand_q;
  auto top_candidates = [](const Pool& pool, std::vector<int>* out) {
    out->clear();
    for (auto it = pool.begin(); it != pool.end() && out->size() < kPool;
         ++it) {
      out->push_back(it->second);
    }
  };

  while (static_cast<int>(moves.size()) < max_moves) {
    top_candidates(pool_p, &cand_p);
    top_candidates(pool_q, &cand_q);
    if (cand_p.empty() && cand_q.empty()) break;

    // Option 1: one-sided move, when the balance budget allows it (only
    // possible while a part sits below its quota, i.e. after an uneven
    // greedy fill — swaps never create a deficit).
    constexpr double kNoGain = -1e300;
    double move_gain = kNoGain;
    int move_rank = -1, move_from = -1, move_to = -1;
    if (!cand_p.empty() && (*sizes)[static_cast<std::size_t>(q)] <
                               quota[static_cast<std::size_t>(q)]) {
      move_gain = d[static_cast<std::size_t>(cand_p[0])];
      move_rank = cand_p[0]; move_from = p; move_to = q;
    }
    if (!cand_q.empty() &&
        (*sizes)[static_cast<std::size_t>(p)] <
            quota[static_cast<std::size_t>(p)] &&
        d[static_cast<std::size_t>(cand_q[0])] > move_gain) {
      move_gain = d[static_cast<std::size_t>(cand_q[0])];
      move_rank = cand_q[0]; move_from = q; move_to = p;
    }

    // Option 2: the best swap over the candidate pools (keeps sizes
    // exactly; the workhorse when sizes already match quotas). Strict >
    // keeps the earliest — lowest-(rank_p, rank_q) — maximizing pair, so
    // the pass is deterministic.
    double swap_gain = kNoGain;
    int rp = -1, rq = -1;
    for (int a : cand_p) {
      for (int b : cand_q) {
        const double g = d[static_cast<std::size_t>(a)] +
                         d[static_cast<std::size_t>(b)] -
                         2.0 * weight_between(a, b);
        if (g > swap_gain) {
          swap_gain = g;
          rp = a;
          rq = b;
        }
      }
    }

    if (move_gain == kNoGain && swap_gain == kNoGain) break;
    if (move_gain >= swap_gain) {
      apply_move(move_rank, move_from, move_to);
      moves.push_back({move_rank, move_from, move_to});
      cumulative += move_gain;
    } else {
      apply_move(rp, p, q);
      apply_move(rq, q, p);
      moves.push_back({rp, p, q});
      moves.push_back({rq, q, p});
      cumulative += swap_gain;
    }
    if (cumulative > best_cum) {
      best_cum = cumulative;
      best_len = moves.size();
    }
  }

  // Roll back everything after the best prefix (in reverse order; the D
  // updates in apply_move are their own inverse).
  for (std::size_t i = moves.size(); i > best_len; --i) {
    const Move& m = moves[i - 1];
    apply_move(m.rank, m.to, m.from);
  }
  return best_cum > 0.0;
}

}  // namespace

std::vector<int> comm_partition(const Affinity& aff, int workers) {
  STGSIM_CHECK_GT(workers, 0);
  const int n = aff.nranks();

  // Balanced quotas matching block_partition's sizes: part p owns ranks
  // [p*n/k, (p+1)*n/k).
  std::vector<int> quota(static_cast<std::size_t>(workers));
  for (int p = 0; p < workers; ++p) {
    quota[static_cast<std::size_t>(p)] = static_cast<int>(
        static_cast<long long>(p + 1) * n / workers -
        static_cast<long long>(p) * n / workers);
  }

  std::vector<int> part = greedy_grow(aff, workers, quota);

  std::vector<int> sizes(static_cast<std::size_t>(workers), 0);
  for (int r = 0; r < n; ++r) {
    ++sizes[static_cast<std::size_t>(part[static_cast<std::size_t>(r)])];
  }

  // A KL pass can move every rank of the pair once; locking makes that a
  // natural bound, the cap is only a backstop.
  const int max_moves = std::max(64, 2 * ((n + workers - 1) / workers + 1));
  for (int pass = 0; pass < 4; ++pass) {
    bool improved = false;
    for (int p = 0; p < workers; ++p) {
      for (int q = p + 1; q < workers; ++q) {
        improved |= refine_pair(aff, &part, &sizes, quota, p, q, max_moves);
      }
    }
    if (!improved) break;
  }
  return part;
}

std::vector<int> make_partition(PartitionMode mode, int nranks, int workers,
                                const Affinity* aff) {
  switch (mode) {
    case PartitionMode::kBlock:
      return block_partition(nranks, workers);
    case PartitionMode::kInterleave:
      return interleave_partition(nranks, workers);
    case PartitionMode::kComm:
      STGSIM_CHECK(aff != nullptr)
          << "comm partitioning needs an affinity graph";
      STGSIM_CHECK_EQ(aff->nranks(), nranks);
      return comm_partition(*aff, workers);
  }
  return block_partition(nranks, workers);
}

}  // namespace stgsim::simk
