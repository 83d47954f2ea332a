// Simulated MPI ("smpi") — the target-program communication interface.
//
// This is the MPI subset MPI-Sim traps and models (paper §2.1), plus the
// two extensions §3 introduces for compiler-simplified programs:
//   * Comm::delay(t)      — advance the simulation clock by an analytical
//                           estimate instead of executing computation;
//   * Comm::read_param(p) — the "read w_i and broadcast" prologue call the
//                           code generator inserts (Figure 1(c)).
//
// Point-to-point follows the eager/rendezvous split of 1990s MPI
// implementations: messages up to the eager threshold are buffered and the
// sender proceeds after its send overhead; larger messages synchronize via
// an RTS/CTS handshake, so a blocking send does not complete before the
// matching receive is posted. Collectives are built from point-to-point
// binomial-tree / dissemination algorithms, so their cost emerges from the
// same network model the paper used.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "machine/compute.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "smpi/collectives.hpp"
#include "sim/engine.hpp"
#include "support/blob.hpp"
#include "support/vtime.hpp"

namespace stgsim::smpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Error in the *target program's* use of the communication interface
/// (e.g. posting a receive buffer smaller than the matched message).
/// Unlike STGSIM_CHECK's CheckError — a simulator-invariant violation that
/// prints a check banner — this is a diagnosable fault of the simulated
/// program; the harness maps it to RunStatus::kInternalError with the
/// message as the structured diagnostic.
class TargetProgramError : public std::runtime_error {
 public:
  explicit TargetProgramError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Completion info for a receive.
struct RecvStatus {
  int src = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

/// Per-rank accounting the harness reads after a run.
struct RankStats {
  VTime compute_time = 0;  ///< advance()d by kernels and delay()s
  VTime comm_time = 0;     ///< virtual time spent inside smpi calls
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t collectives = 0;
  std::uint64_t delays = 0;
  std::uint64_t bytes_sent = 0;
};

/// One user-level communication operation, as recorded by CommTrace.
struct CommEvent {
  enum class Kind : std::uint8_t {
    kSend, kRecv, kIsend, kIrecv, kWaitall, kBarrier, kBcast, kAllreduce,
    kAlltoall
  };
  Kind kind{};
  int peer = -1;  ///< destination / posted source / root (-1 where n/a)
  int tag = 0;
  std::size_t bytes = 0;

  bool operator==(const CommEvent&) const = default;
};

/// Per-rank log of every user-level communication operation. The paper's
/// correctness contract for the simplified program (§3, challenge (a)) is
/// that it performs the *same* communication as the original; the tests
/// compare CommTraces of original and simplified runs.
class CommTrace {
 public:
  explicit CommTrace(int nranks) : per_rank_(static_cast<std::size_t>(nranks)) {}

  void add(int rank, CommEvent e) {
    per_rank_[static_cast<std::size_t>(rank)].push_back(e);
  }

  const std::vector<std::vector<CommEvent>>& per_rank() const {
    return per_rank_;
  }

  /// Empty string when equal; otherwise a description of the first
  /// divergence, for test diagnostics.
  std::string diff(const CommTrace& other) const;

 private:
  std::vector<std::vector<CommEvent>> per_rank_;
};

/// State shared by every rank of a simulated world: the machine models,
/// the w_i parameter table, and aggregate statistics.
class World {
 public:
  struct Options {
    net::NetworkParams net;
    machine::ComputeParams compute;
    VTime param_read_cost = vtime_from_us(200);  ///< file read on rank 0
    CommTrace* trace = nullptr;  ///< optional user-level op recorder

    /// Optional observability sink (not owned): per-op virtual-time spans,
    /// protocol counters and the comm matrix. Never affects simulated
    /// behaviour; null disables all instrumentation.
    obs::Recorder* obs = nullptr;

    /// Deterministic fault schedule: link degradation and eager drops are
    /// applied by the network, straggler slowdowns by compute()/delay().
    /// Send/receive software overheads are intentionally *not* stretched —
    /// a straggler models a slow CPU core's effect on application work,
    /// not on the (already-parameterized) MPI library costs.
    fault::FaultPlan faults;

    /// Per-operation collective algorithm selection (part of the machine
    /// description; see smpi/collectives.hpp). kAuto picks by message
    /// size like real MPI selection tables.
    CollectiveConfig coll;

    /// Test-only fault injection: widens the advertised wildcard latency
    /// floor past the network's sound bound, so regression tests can show
    /// that a floor tighter than every routed path trips the
    /// wildcard-park invariant (`stgsim check` finds the race it opens).
    /// Never set outside tests.
    VTime unsafe_floor_slack = 0;

    /// §5 of the paper proposes, as future work, replacing the detailed
    /// communication simulation with "an abstract model of the
    /// communication (based on message size, message destination, etc.)".
    /// With kAbstract, point-to-point always follows the buffered path
    /// (no rendezvous handshake simulation) and collectives complete in
    /// closed form — ceil(log2 P) latency terms plus the bandwidth term —
    /// via a single gather/release star instead of log P simulated
    /// rounds. Values transferred stay exact; timing and event counts
    /// are approximated.
    enum class CommFidelity { kDetailed, kAbstract };
    CommFidelity comm_fidelity = CommFidelity::kDetailed;
  };

  World(Options options, int nranks)
      : options_(options), network_(options.net, nranks),
        stats_(static_cast<std::size_t>(nranks)) {
    network_.set_fault_plan(options_.faults);
  }

  const Options& options() const { return options_; }
  net::Network& network() { return network_; }
  int nranks() const { return static_cast<int>(stats_.size()); }

  /// Lower bound on any message's wire latency under this world's fault
  /// plan: the network floor, raised by the product of always-on global
  /// link-degradation factors (scoped clauses cannot raise the floor).
  /// Feeds the engine's wildcard safety bound; a sound *larger* floor
  /// never changes which wildcard candidate commits, so digests are
  /// unaffected.
  VTime wildcard_latency_floor() const {
    const double f = options_.faults.latency_floor_factor();
    const VTime base = network_.min_latency();
    return static_cast<VTime>(static_cast<double>(base) * f) +
           options_.unsafe_floor_slack;
  }

  void set_param(const std::string& name, double value) {
    params_[name] = value;
  }
  bool has_param(const std::string& name) const {
    return params_.contains(name);
  }
  double param(const std::string& name) const;
  const std::map<std::string, double>& params() const { return params_; }

  RankStats& stats(int rank) { return stats_[static_cast<std::size_t>(rank)]; }
  const std::vector<RankStats>& all_stats() const { return stats_; }

  /// Sum/max of per-rank stats over all ranks.
  RankStats aggregate_stats() const;

 private:
  Options options_;
  net::Network network_;
  std::map<std::string, double> params_;
  std::vector<RankStats> stats_;
};

/// Handle for an outstanding isend/irecv.
class Request {
 public:
  Request() = default;
  bool valid() const { return kind_ != Kind::kInvalid; }
  bool done() const { return done_; }

 private:
  friend class Comm;
  enum class Kind { kInvalid, kSendDone, kSendRendezvous, kRecv };

  Kind kind_ = Kind::kInvalid;
  bool done_ = false;
  int peer = kAnySource;
  int tag = kAnyTag;
  void* buf = nullptr;
  std::size_t bytes = 0;
  std::uint64_t rid = 0;  // rendezvous id (sends)
  RecvStatus* status = nullptr;
};

/// Per-rank communicator; lives on the target process's fiber stack.
class Comm {
 public:
  Comm(World& world, simk::Process& proc);

  int rank() const { return proc_.rank(); }
  int size() const { return proc_.world_size(); }
  VTime now() const { return proc_.now(); }
  World& world() { return world_; }
  simk::Process& process() { return proc_; }

  /// Charges local computation time (direct execution path).
  void compute(VTime t);

  /// MPI-Sim's delay extension: forwards the clock by an analytical
  /// estimate of eliminated computation (counted as compute time).
  void delay(VTime t);
  void delay_seconds(double s) { delay(vtime_from_sec(s)); }

  /// Reads a model parameter on rank 0 and broadcasts it (collective).
  double read_param(const std::string& name);

  // -- Point-to-point ------------------------------------------------------
  // `data` may be null: the transfer is then modeled (correct wire size and
  // timing) without carrying payload — how compiler-simplified programs
  // communicate through the shared dummy buffer.

  void send(int dst, int tag, const void* data, std::size_t bytes);
  void recv(int src, int tag, void* data, std::size_t bytes,
            RecvStatus* status = nullptr);

  Request isend(int dst, int tag, const void* data, std::size_t bytes);
  Request irecv(int src, int tag, void* data, std::size_t bytes,
                RecvStatus* status = nullptr);

  void wait(Request& req);
  void waitall(std::vector<Request>& reqs);

  /// Blocks until (at least) one incomplete request finishes; returns its
  /// index. All requests already complete is a programming error.
  std::size_t waitany(std::vector<Request>& reqs);

  /// send+recv without deadlock regardless of ordering at the peers.
  void sendrecv(int dst, int send_tag, const void* send_data,
                std::size_t send_bytes, int src, int recv_tag,
                void* recv_data, std::size_t recv_bytes,
                RecvStatus* status = nullptr);

  // -- Collectives (must be called by all ranks in the same order) ---------

  void barrier();
  void bcast(void* data, std::size_t bytes, int root);

  /// Root collects `bytes_each` from every rank into recv_all (rank-major;
  /// recv_all may be null on non-roots). Root-sequential algorithm, as
  /// MPI implementations of the period used for long messages.
  void gather(const void* send, std::size_t bytes_each, void* recv_all,
              int root);

  /// Root distributes rank-major blocks of `bytes_each` from send_all
  /// (null on non-roots) into recv.
  void scatter(const void* send_all, std::size_t bytes_each, void* recv,
               int root);
  /// Element-wise sum of n doubles into `inout` at root.
  void reduce_sum(double* inout, int n, int root);
  void allreduce_sum(double* inout, int n);
  double allreduce_sum(double value);
  void allreduce_max(double* inout, int n);

  /// Every rank sends block d of `send_all` (rank-major, `bytes_each` per
  /// block) to rank d and receives block s of `recv_all` from rank s.
  /// Buffers may be null for modeled-only transfers (correct wire sizes
  /// and timing, no payload). Pairwise-exchange by default.
  void alltoall(const void* send_all, std::size_t bytes_each, void* recv_all);

  // -- Optimistic-mode checkpoint support ----------------------------------

  /// Serializes this rank's cross-statement smpi state — the rendezvous
  /// and collective sequence counters, the RankStats accumulator, and the
  /// obs recorder shard when observability is on — into `w`. Must only be
  /// called at a quiescent boundary (no outstanding Requests): Requests
  /// are deliberately not serialized.
  void save_state(BlobWriter& w) const;
  /// Inverse of save_state; overwrites the same state from `r`.
  void restore_state(BlobReader& r);

 private:
  enum MsgKind : std::uint8_t {
    kKindEager = 0,
    kKindRts = 1,
    kKindCts = 2,
    kKindColl = 3,
  };

  /// Kind masks for data-driven MatchSpecs (bit per Message::kind).
  static constexpr std::uint8_t kMaskP2P =
      (1u << kKindEager) | (1u << kKindRts);
  static constexpr std::uint8_t kMaskCts = 1u << kKindCts;
  static constexpr std::uint8_t kMaskColl = 1u << kKindColl;

  enum class ReduceOp : std::uint8_t { kSum, kMax };

  /// The one message builder: posts a `msg_kind` message of logical size
  /// `bytes` (payload copied when `data` is non-null) and returns its
  /// arrival. The network prices `wire_bytes` of transfer `kind`, unless
  /// the abstract model supplies the arrival `at` (never before now).
  VTime send_raw(int dst, MsgKind msg_kind, int tag, std::uint64_t aux,
                 const void* data, std::size_t bytes, std::size_t wire_bytes,
                 net::TransferKind kind, std::optional<VTime> at = {});

  // The three MatchSpec shapes smpi blocks on. The `what` labels are what
  // deadlock reports print.
  static simk::MatchSpec cts_spec(int peer, std::uint64_t rid, int tag);
  static simk::MatchSpec recv_spec(int src, int tag);
  simk::MatchSpec coll_spec(int src, int round) const;
  /// A collective message's aux: this collective's sequence and the round.
  std::uint64_t coll_aux(int round) const {
    return (coll_seq_ << 8) | static_cast<std::uint64_t>(round & 0xff);
  }
  /// What an incomplete (rendezvous send or receive) request waits for.
  static simk::MatchSpec spec_of(const Request& r) {
    return r.kind_ == Request::Kind::kSendRendezvous
               ? cts_spec(r.peer, r.rid, r.tag)
               : recv_spec(r.peer, r.tag);
  }

  /// Stretched virtual duration of `t` of local work starting now (applies
  /// the fault plan's straggler factors for this rank).
  VTime stretched(VTime t) const {
    return world_.network().fault_plan().stretch_compute(rank(), now(), t);
  }

  /// The posting half of send and isend: overhead, stats, then the eager
  /// message or the rendezvous RTS.
  Request post_send(CommEvent::Kind kind, int dst, int tag, const void* data,
                    std::size_t bytes);
  /// Blocks until `req`'s CTS or message arrives, then completes it.
  void await(Request& req) {
    simk::Message m = proc_.blocking_match(spec_of(req));
    complete(req, m);
  }
  /// Completes `req` with its matched message `m`.
  void complete(Request& req, simk::Message& m);
  void complete_eager_or_rts(simk::Message& m, void* data, std::size_t bytes,
                             RecvStatus* status);
  void close_send(obs::OpKind kind, const Request& req, VTime t0);

  /// Charges [t0, now()] to comm time and records the op's obs span.
  void close_op(obs::OpKind kind, int peer, std::size_t bytes, VTime t0) {
    stats_.comm_time += now() - t0;
    obs_op(kind, peer, bytes, t0);
  }

  /// Runs one public collective: on entry the trace record, a fresh
  /// collective sequence number and the stats count; on exit close_op.
  /// An op unwound by FiberAborted never reaches the exit, so it records
  /// no span.
  template <class Body>
  void collective(CommEvent::Kind trace_kind, obs::OpKind op, int peer,
                  int tag, std::size_t bytes, Body&& body);

  // Collective-internal point-to-point (distinct matching space). With
  // `at` (abstract mode) the message lands then and costs no overhead.
  void coll_send(int dst, int round, const void* data, std::size_t bytes,
                 std::optional<VTime> at = {});
  void coll_recv(int src, int round, void* data, std::size_t bytes);

  /// Abstract-mode gather star into `root` (round 0): every other rank
  /// posts `data` landing at `at`; the root consumes one message per rank
  /// in rank order, hands each to `take`, and gets the latest arrival.
  template <class Take>
  VTime star_gather(int root, const void* data, std::size_t bytes, VTime at,
                    Take take);

  /// The one reduction tree: combines every rank's `inout` into the root's
  /// with `op`, by `algo` (binomial, linear or ring), or by the abstract
  /// star under abstract fidelity.
  void reduce(double* inout, int n, int root, ReduceOp op, CollAlgo algo);
  void allreduce(double* inout, int n, ReduceOp op);

  bool abstract_comm() const {
    return world_.options().comm_fidelity ==
           World::Options::CommFidelity::kAbstract;
  }

  const CollectiveConfig& coll_cfg() const { return world_.options().coll; }
  CollAlgo coll_algo(CollOp op, CollAlgo configured, std::size_t bytes) const {
    return resolve_coll_algo(op, configured, bytes,
                             coll_cfg().ring_threshold);
  }

  // Ring algorithm building blocks (see the .cpp for the shapes).
  void bcast_ring(void* data, std::size_t bytes, int root);
  /// Reduce-scatter over the ring; on return this rank's owned chunk
  /// (index (rel + 1) % P) of `work` holds the fully combined values.
  /// `work` may be null for modeled-only runs.
  void ring_reduce_scatter(double* work, int n, int root, ReduceOp op);
  void ring_allgather(double* work, int n, int root);
  void reduce_ring(double* inout, int n, int root, ReduceOp op);

  /// Closed-form collective completion cost for P ranks, `bytes` payload
  /// (abstract comm fidelity). Hop-aware: charges the platform's diameter
  /// latency per round, which on flat equals the base latency.
  VTime abstract_coll_cost(std::size_t bytes) const;

  void trace(CommEvent::Kind kind, int peer, int tag, std::size_t bytes) {
    if (world_.options().trace != nullptr) {
      world_.options().trace->add(rank(), CommEvent{kind, peer, tag, bytes});
    }
  }

  /// Observability twin of trace(): records the op's virtual-time span
  /// [begin, now()]. Called where the op's comm_time is accounted, so
  /// spans and RankStats always agree.
  void obs_op(obs::OpKind kind, int peer, std::size_t bytes, VTime begin) {
    if (world_.options().obs != nullptr) {
      world_.options().obs->record_op(rank(), kind, peer, bytes, begin,
                                      now());
    }
  }

  World& world_;
  simk::Process& proc_;
  RankStats& stats_;
  std::uint32_t next_rid_ = 1;
  std::uint64_t coll_seq_ = 0;
};

}  // namespace stgsim::smpi
