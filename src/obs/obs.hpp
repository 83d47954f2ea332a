// Observability layer: virtual-time tracing, a metrics registry, and the
// rank×rank communication matrix.
//
// The paper's methodology (Figure 2) parameterizes scaling functions from
// *measured per-task breakdowns* and validates predictions against them
// (Figs. 3–16); reproducing that workflow needs visibility inside a run,
// not just end-of-run scalars. The Recorder here is that instrument: it
// plugs into the engine as a simk::EngineObserver (block/wake/slice/match
// events) and into smpi::Comm at the same call sites that feed CommTrace
// and RankStats (per-operation virtual-time spans, protocol counters).
//
// Design rules:
//  * Zero cost when absent — every producer call site is guarded by a
//    null-pointer check; no Recorder, no work.
//  * Observation never perturbs simulation — the Recorder only copies
//    values out; enabling it leaves run digests bit-identical.
//  * Per-rank shards — all state is keyed by rank and written from the
//    context that owns that rank (its partition's worker thread, or the
//    scheduler between rounds), so the threaded scheduler needs no locks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "support/blob.hpp"
#include "support/vtime.hpp"

namespace stgsim::obs {

/// User-level operation kinds for trace spans and per-op counters. Wider
/// than smpi::CommEvent::Kind because the timeline wants compute/delay
/// intervals and per-collective breakdowns that the correctness-contract
/// trace deliberately excludes.
enum class OpKind : std::uint8_t {
  kSend, kRecv, kIsend, kIrecv, kWait, kWaitall, kWaitany, kSendrecv,
  kBarrier, kBcast, kReduce, kAllreduce, kGather, kScatter, kAlltoall,
  kCompute, kDelay,
  kCount_  // sentinel
};

inline constexpr std::size_t kOpKindCount =
    static_cast<std::size_t>(OpKind::kCount_);

const char* op_kind_name(OpKind k);
/// Chrome trace-event category: "p2p", "collective", "compute" or "sync".
const char* op_kind_category(OpKind k);

/// What the Recorder collects. Metrics are cheap (fixed-size counters);
/// tracing grows with the number of operations; the comm matrix costs
/// O(ranks^2) words per enabled plane.
struct Options {
  bool trace = false;        ///< record per-rank virtual-time spans
  bool metrics = true;       ///< counters + histograms
  bool comm_matrix = false;  ///< rank×rank messages/bytes
};

/// One closed virtual-time interval on a rank's timeline.
struct Span {
  OpKind kind{};
  int peer = -1;           ///< destination / source / root; -1 where n/a
  std::uint64_t bytes = 0;
  VTime begin = 0;
  VTime end = 0;
};

/// Point-in-time aggregate of everything the Recorder counted, plus any
/// scalars the harness attaches (pool occupancy, peak memory). Scalars are
/// an ordered name->value list so writers emit them deterministically.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> scalars;

  /// Message-size histogram: bucket k counts user messages with
  /// bytes in [2^k, 2^(k+1)); bucket 0 also holds zero-byte messages.
  std::vector<std::uint64_t> msg_size_hist;

  /// Threaded-scheduler round-advance histogram (empty for sequential
  /// runs; the key keeps its historical name): bucket k>0 counts rounds
  /// whose minimum unfinished clock advanced by [2^(k-1), 2^k) ns over
  /// the previous round; bucket 0 counts zero-advance rounds. Appended by
  /// the harness from simk::ParallelStats.
  std::vector<std::uint64_t> window_advance_hist;

  /// Optimistic-rollback depth histogram (empty for conservative runs):
  /// bucket k>0 counts rollbacks that discarded [2^(k-1), 2^k) consumed
  /// log entries; bucket 0 counts rollbacks that discarded none.
  /// Appended by the harness from simk::ParallelStats.
  std::vector<std::uint64_t> rollback_depth_hist;

  /// Hop-count histogram from the routed platform: bucket h counts
  /// messages whose path crossed h links. Empty unless the run enabled
  /// link stats (harness --links-out / campaign link artifacts).
  std::vector<std::uint64_t> hop_hist;

  /// Per-link utilization (messages/bytes carried), in platform link-id
  /// order, zero-traffic links omitted. Empty unless link stats enabled.
  struct LinkStat {
    std::string name;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<LinkStat> links;

  int nranks = 0;
  /// Rank-major nranks×nranks planes; empty unless comm_matrix enabled.
  /// p2p planes count user point-to-point messages (send/isend); coll
  /// planes count the collective algorithms' internal messages.
  std::vector<std::uint64_t> p2p_messages, p2p_bytes;
  std::vector<std::uint64_t> coll_messages, coll_bytes;

  void add(const std::string& name, double value) {
    scalars.emplace_back(name, value);
  }
  /// Value of a named scalar; 0.0 (and found=false) when absent.
  double value(const std::string& name, bool* found = nullptr) const;
};

/// Accumulates `src` into `dst`: scalars sum by name (new names append in
/// src order), histograms sum element-wise (growing dst as needed), comm
/// matrices sum only when both sides describe the same rank count —
/// cross-campaign rollups mix runs of different sizes, where a summed
/// matrix would be meaningless, so mismatched planes are dropped. Used by
/// the campaign runner to publish one per-campaign metrics rollup.
void merge_metrics(MetricsSnapshot* dst, const MetricsSnapshot& src);

/// The observability sink: engine observer + smpi instrumentation target.
/// One Recorder instruments one run; counters only reset per-rank, and
/// only when the optimistic scheduler rolls that rank back (reset_rank).
class Recorder : public simk::EngineObserver {
 public:
  /// Log2 buckets in the message-size histogram (covers up to 2^39 B).
  static constexpr std::size_t kHistBuckets = 40;

  Recorder(Options opts, int nranks);

  const Options& options() const { return opts_; }
  int nranks() const { return nranks_; }

  // -- smpi-layer hooks ----------------------------------------------------

  /// One user-level operation by `rank` spanning [begin, end] of virtual
  /// time. Feeds the per-op counters, comm-time breakdown and (when
  /// tracing) the rank's timeline.
  void record_op(int rank, OpKind k, int peer, std::uint64_t bytes,
                 VTime begin, VTime end);

  /// One user point-to-point message `rank` -> `dst` (send/isend issue).
  void count_p2p(int rank, int dst, std::uint64_t bytes, bool rendezvous);

  /// One collective-internal message `rank` -> `dst`.
  void count_coll_msg(int rank, int dst, std::uint64_t bytes);

  // -- simk::EngineObserver ------------------------------------------------

  void on_resume(int rank, VTime clock) override;
  void on_block(int rank, VTime clock, const simk::MatchSpec& spec) override;
  void on_wake(int rank, VTime clock, VTime arrival) override;
  void on_send(const simk::Message& m) override;
  void on_match(int rank, std::uint64_t probes, bool hit) override;

  /// Optimistic-rollback hook: discard everything recorded for `rank`.
  /// Coast-forward replay then re-records the rank's surviving history, so
  /// after the run the shard describes exactly the committed execution.
  void reset_rank(int rank);

  /// Checkpoint twins of reset_rank: serialize / overwrite one rank's
  /// shard. A rollback that restores from a checkpoint rewinds the shard
  /// to the capture point instead of zeroing it; replay from the
  /// checkpoint then re-records only the surviving suffix.
  void save_rank(int rank, BlobWriter& w) const;
  void restore_rank(int rank, BlobReader& r);

  // -- output --------------------------------------------------------------

  /// Aggregates every shard into a snapshot. The harness may append
  /// engine-level scalars (pool/arena stats, peak memory) afterwards.
  MetricsSnapshot snapshot() const;

  /// Chrome trace-event JSON ("X" duration events, ts/dur in microseconds
  /// of virtual time, tid = rank) — loadable by Perfetto / about:tracing.
  void write_chrome_trace(std::ostream& os) const;

  static void write_metrics_json(std::ostream& os, const MetricsSnapshot& s);
  static void write_comm_matrix_json(std::ostream& os,
                                     const MetricsSnapshot& s);
  /// Per-link utilization + hop histogram ("--links-out" artifact).
  static void write_link_stats_json(std::ostream& os,
                                    const MetricsSnapshot& s);

  /// Per-schedule divergence dump (`stgsim check --replay
  /// --divergence-out`): a canonical-vs-observed field comparison plus a
  /// human-readable description. Fields are ordered (name, value) pairs
  /// rendered as JSON objects in the given order; the caller decides what
  /// to compare (digests, statuses, per-rank clocks, ...).
  static void write_divergence_json(
      std::ostream& os, const std::string& description,
      const std::vector<std::pair<std::string, std::string>>& canonical,
      const std::vector<std::pair<std::string, std::string>>& observed);

  /// Per-rank storage; public so tests can assert against a single rank.
  struct RankShard {
    // Engine-level counters.
    std::uint64_t slices = 0;
    std::uint64_t blocks = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t match_attempts = 0;
    std::uint64_t match_probes = 0;
    std::uint64_t match_hits = 0;
    std::uint64_t msgs_sent = 0;    ///< engine messages (incl. protocol)
    std::uint64_t wire_bytes = 0;   ///< engine-level wire bytes

    // smpi-level counters.
    std::uint64_t op_count[kOpKindCount] = {};
    VTime op_time[kOpKindCount] = {};
    std::uint64_t eager_msgs = 0, eager_bytes = 0;
    std::uint64_t rndv_msgs = 0, rndv_bytes = 0;
    std::uint64_t size_hist[kHistBuckets] = {};

    // Comm-matrix rows (length nranks when enabled, else empty).
    std::vector<std::uint64_t> p2p_msgs_row, p2p_bytes_row;
    std::vector<std::uint64_t> coll_msgs_row, coll_bytes_row;

    // Timeline (trace only). Open block intervals close at the next wake.
    std::vector<Span> spans;
    std::vector<Span> block_spans;
    bool block_open = false;
  };
  const RankShard& shard(int rank) const {
    return shards_[static_cast<std::size_t>(rank)];
  }

 private:
  RankShard& shard_mut(int rank) {
    return shards_[static_cast<std::size_t>(rank)];
  }

  Options opts_;
  int nranks_ = 0;
  std::vector<RankShard> shards_;
};

}  // namespace stgsim::obs
