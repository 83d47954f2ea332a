#include "smpi/smpi.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace stgsim::smpi {

namespace {

/// Wire size charged for control messages (RTS/CTS envelopes).
constexpr std::size_t kControlBytes = 64;

// The two vocabularies an op is recorded under: CommTrace and obs spans.
using TraceKind = CommEvent::Kind;
using OpKind = obs::OpKind;

}  // namespace

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

double World::param(const std::string& name) const {
  auto it = params_.find(name);
  STGSIM_CHECK(it != params_.end())
      << "missing model parameter '" << name
      << "' — run the timer-instrumented program first (Figure 2 workflow)";
  return it->second;
}

std::string CommTrace::diff(const CommTrace& other) const {
  std::ostringstream os;
  if (per_rank_.size() != other.per_rank_.size()) {
    os << "rank count differs: " << per_rank_.size() << " vs "
       << other.per_rank_.size();
    return os.str();
  }
  for (std::size_t r = 0; r < per_rank_.size(); ++r) {
    const auto& a = per_rank_[r];
    const auto& b = other.per_rank_[r];
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!(a[i] == b[i])) {
        os << "rank " << r << " op " << i << ": kind "
           << static_cast<int>(a[i].kind) << "/" << static_cast<int>(b[i].kind)
           << " peer " << a[i].peer << "/" << b[i].peer << " tag " << a[i].tag
           << "/" << b[i].tag << " bytes " << a[i].bytes << "/" << b[i].bytes;
        return os.str();
      }
    }
    if (a.size() != b.size()) {
      os << "rank " << r << ": op count " << a.size() << " vs " << b.size();
      return os.str();
    }
  }
  return "";
}

RankStats World::aggregate_stats() const {
  RankStats agg;
  for (const auto& s : stats_) {
    agg.compute_time = std::max(agg.compute_time, s.compute_time);
    agg.comm_time = std::max(agg.comm_time, s.comm_time);
    agg.sends += s.sends;
    agg.recvs += s.recvs;
    agg.collectives += s.collectives;
    agg.delays += s.delays;
    agg.bytes_sent += s.bytes_sent;
  }
  return agg;
}

// ---------------------------------------------------------------------------
// Comm: basics
// ---------------------------------------------------------------------------

Comm::Comm(World& world, simk::Process& proc)
    : world_(world), proc_(proc), stats_(world.stats(proc.rank())) {
  STGSIM_CHECK_EQ(world.nranks(), proc.world_size());
  proc_.user = this;
  // Arm the engine's wildcard (ANY_SOURCE / waitany) safety bound with
  // this network's latency floor; without it the bound degenerates to the
  // raw minimum clock and every contested wildcard receive takes the
  // stuck-promotion slow path. The floor includes the fault plan's
  // always-on global latency factors — a sound, possibly larger bound.
  proc_.engine().set_wildcard_min_latency(world_.wildcard_latency_floor());
}

Comm::~Comm() { proc_.user = nullptr; }

void Comm::save_state(BlobWriter& w) const {
  w.u32(next_rid_);
  w.u64(coll_seq_);
  w.pod(stats_);
  obs::Recorder* rec = world_.options().obs;
  w.u8(rec != nullptr ? 1 : 0);
  if (rec != nullptr) rec->save_rank(proc_.rank(), w);
}

void Comm::restore_state(BlobReader& r) {
  next_rid_ = r.u32();
  coll_seq_ = r.u64();
  stats_ = r.get<RankStats>();
  const bool had_obs = r.u8() != 0;
  obs::Recorder* rec = world_.options().obs;
  STGSIM_CHECK_EQ(had_obs, rec != nullptr)
      << "checkpoint blob and run disagree about observability";
  if (rec != nullptr) rec->restore_rank(proc_.rank(), r);
}

void Comm::compute(VTime t) {
  const VTime t0 = now();
  const VTime dt = stretched(t);
  proc_.advance(dt);
  stats_.compute_time += dt;
  obs_op(OpKind::kCompute, -1, 0, t0);
}

void Comm::delay(VTime t) {
  STGSIM_CHECK_GE(t, 0) << "negative delay — bad scaling function?";
  const VTime t0 = now();
  const VTime dt = stretched(t);
  proc_.advance(dt);
  stats_.compute_time += dt;
  ++stats_.delays;
  obs_op(OpKind::kDelay, -1, 0, t0);
}

VTime Comm::send_raw(int dst, MsgKind msg_kind, int tag, std::uint64_t aux,
                     const void* data, std::size_t bytes,
                     std::size_t wire_bytes, net::TransferKind kind,
                     std::optional<VTime> at) {
  simk::Message m;
  m.src = rank();
  m.dst = dst;
  m.kind = msg_kind;
  m.tag = tag;
  m.aux = aux;
  m.sent_at = now();
  m.arrival = at ? std::max(*at, now())
                 : world_.network().arrival(rank(), dst, now(), wire_bytes,
                                            proc_.rng(), kind);
  m.wire_bytes = bytes;  // logical message size (status / rndv transfer)
  if (data != nullptr && bytes > 0) {
    m.payload = proc_.make_payload(data, bytes);
  }
  const VTime arrival = m.arrival;
  proc_.send(std::move(m));
  return arrival;
}

// recv_spec hands smpi's wildcards to the engine unchanged.
static_assert(kAnySource == simk::MatchSpec::kAnySource &&
              kAnyTag == simk::MatchSpec::kAnyTag);

simk::MatchSpec Comm::cts_spec(int peer, std::uint64_t rid, int tag) {
  simk::MatchSpec spec;
  spec.src = peer;
  spec.kind_mask = kMaskCts;
  spec.match_aux = true;
  spec.aux = rid;
  spec.what = "rendezvous-cts";
  spec.user_tag = tag;
  return spec;
}

simk::MatchSpec Comm::recv_spec(int src, int tag) {
  simk::MatchSpec spec;
  spec.src = src;
  spec.kind_mask = kMaskP2P;
  spec.tag = tag;
  spec.what = "recv";
  spec.user_tag = tag;
  return spec;
}

simk::MatchSpec Comm::coll_spec(int src, int round) const {
  simk::MatchSpec spec;
  spec.src = src;
  spec.kind_mask = kMaskColl;
  spec.match_aux = true;
  spec.aux = coll_aux(round);
  spec.what = "collective";
  return spec;
}

VTime Comm::abstract_coll_cost(std::size_t bytes) const {
  const auto& net = world_.options().net;
  int rounds = 0;
  for (int span = 1; span < size(); span <<= 1) ++rounds;
  // Hop-aware round latency: a collective's rounds cross the platform's
  // diameter in the worst case. On the flat preset the diameter is the
  // base latency, reproducing the pre-platform closed form exactly.
  const VTime per_round = world_.network().platform().diameter_latency() +
                          net.send_overhead + net.recv_overhead;
  return rounds * per_round +
         vtime_from_sec(static_cast<double>(bytes) / net.bytes_per_sec);
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

Request Comm::post_send(TraceKind kind, int dst, int tag,
                        const void* data, std::size_t bytes) {
  STGSIM_CHECK(dst >= 0 && dst < size());
  trace(kind, dst, tag, bytes);
  proc_.advance(world_.options().net.send_overhead);
  ++stats_.sends;
  stats_.bytes_sent += bytes;

  Request req;
  req.peer = dst;
  req.tag = tag;
  req.bytes = bytes;
  if (abstract_comm() || !world_.network().uses_rendezvous(bytes)) {
    send_raw(dst, kKindEager, tag, 0, data, bytes, bytes,
             net::TransferKind::kEager);
    req.kind_ = Request::Kind::kSendDone;
    req.done_ = true;
  } else {
    // Rendezvous: the RTS envelope carries the payload for fidelity of the
    // data, but only kControlBytes travel now; the bulk transfer is modeled
    // by the receiver once it grants the CTS, so the send completes when
    // the CTS arrives — i.e. not before the receive is posted.
    req.kind_ = Request::Kind::kSendRendezvous;
    req.rid = (static_cast<std::uint64_t>(rank()) << 32) | next_rid_++;
    send_raw(dst, kKindRts, tag, req.rid, data, bytes, kControlBytes,
             net::TransferKind::kControl);
  }
  return req;
}

void Comm::close_send(OpKind kind, const Request& req, VTime t0) {
  if (world_.options().obs != nullptr) {
    world_.options().obs->count_p2p(
        rank(), req.peer, req.bytes,
        req.kind_ == Request::Kind::kSendRendezvous);
  }
  close_op(kind, req.peer, req.bytes, t0);
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  const VTime t0 = now();
  Request req = post_send(TraceKind::kSend, dst, tag, data, bytes);
  if (!req.done_) await(req);
  close_send(OpKind::kSend, req, t0);
}

Request Comm::isend(int dst, int tag, const void* data, std::size_t bytes) {
  const VTime t0 = now();
  Request req = post_send(TraceKind::kIsend, dst, tag, data, bytes);
  close_send(OpKind::kIsend, req, t0);
  return req;
}

void Comm::complete(Request& req, simk::Message& m) {
  if (req.kind_ == Request::Kind::kSendRendezvous) {
    proc_.lift_clock(m.arrival);  // the CTS: the bulk transfer may start
  } else {
    complete_eager_or_rts(m, req.buf, req.bytes, req.status);
  }
  req.done_ = true;
}

void Comm::complete_eager_or_rts(simk::Message& m, void* data,
                                 std::size_t bytes, RecvStatus* status) {
  if (m.wire_bytes > bytes) {
    // A target-program bug (MPI_ERR_TRUNCATE territory), not a simulator
    // invariant: report it structurally so the harness can surface an
    // internal_error outcome instead of a check-failure banner.
    std::ostringstream os;
    os << "rank " << rank() << ": receive buffer too small: posted " << bytes
       << " got " << m.wire_bytes << " (src " << m.src << " tag " << m.tag
       << ")";
    throw TargetProgramError(os.str());
  }
  proc_.lift_clock(m.arrival);

  if (m.kind == kKindRts) {
    // Grant the transfer: CTS back to the sender, then model the bulk
    // data crossing the wire starting when the CTS reaches the sender.
    const VTime cts_arrival =
        send_raw(m.src, kKindCts, m.tag, m.aux, nullptr, kControlBytes,
                 kControlBytes, net::TransferKind::kControl);
    proc_.lift_clock(world_.network().arrival(
        m.src, rank(), cts_arrival, m.wire_bytes, proc_.rng(),
        net::TransferKind::kRendezvousData));
  }

  proc_.advance(world_.options().net.recv_overhead);
  if (data != nullptr && !m.payload.empty()) {
    std::memcpy(data, m.payload.data(), m.payload.size());
  }
  if (status != nullptr) {
    status->src = m.src;
    status->tag = m.tag;
    status->bytes = m.wire_bytes;
  }
  ++stats_.recvs;
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes,
                RecvStatus* status) {
  const VTime t0 = now();
  trace(TraceKind::kRecv, src, tag, bytes);
  simk::Message m = proc_.blocking_match(recv_spec(src, tag));
  complete_eager_or_rts(m, data, bytes, status);
  close_op(OpKind::kRecv, m.src, bytes, t0);
}

Request Comm::irecv(int src, int tag, void* data, std::size_t bytes,
                    RecvStatus* status) {
  trace(TraceKind::kIrecv, src, tag, bytes);
  Request req;
  req.kind_ = Request::Kind::kRecv;
  req.peer = src;
  req.tag = tag;
  req.buf = data;
  req.bytes = bytes;
  req.status = status;
  obs_op(OpKind::kIrecv, src, bytes, now());  // posting is instant
  return req;
}

void Comm::wait(Request& req) {
  STGSIM_CHECK(req.valid()) << "wait() on invalid request";
  if (req.done_) return;
  const VTime t0 = now();
  await(req);
  close_op(OpKind::kWait, req.peer, req.bytes, t0);
}

void Comm::waitall(std::vector<Request>& reqs) {
  const VTime t0 = now();
  trace(TraceKind::kWaitall, -1, 0, reqs.size());
  // Service receives first: granting CTSes unblocks peers whose
  // rendezvous sends we may be waiting on ourselves (progress-engine
  // behaviour of a real MPI library).
  for (auto& r : reqs) {
    if (r.kind_ == Request::Kind::kRecv) wait(r);
  }
  for (auto& r : reqs) {
    if (!r.done_) wait(r);
  }
  obs_op(OpKind::kWaitall, -1, reqs.size(), t0);
}

std::size_t Comm::waitany(std::vector<Request>& reqs) {
  const VTime t0 = now();
  auto pending = [](const Request& r) { return r.valid() && !r.done_; };
  auto finish = [&](std::size_t i, simk::Message& m) {
    complete(reqs[i], m);
    close_op(OpKind::kWaitany, reqs[i].peer, reqs[i].bytes, t0);
    return i;
  };

  // Pass 1: among everything already completable, finish the one whose
  // message arrived earliest in virtual time (what a real waitany on the
  // target machine would have observed first).
  int matchable = 0;
  std::size_t best_idx = reqs.size();
  VTime best_arrival = kVTimeNever;
  simk::MatchSpec best_spec;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!pending(reqs[i])) continue;
    ++matchable;
    const simk::MatchSpec spec = spec_of(reqs[i]);
    VTime arrival = 0;
    if (proc_.peek_match(spec, &arrival) && arrival < best_arrival) {
      best_arrival = arrival;
      best_idx = i;
      best_spec = spec;
    }
  }
  if (best_idx < reqs.size()) {
    // Committing here is a cross-source choice whenever more than one
    // request (or an ANY_SOURCE request) is pending: a slower-clocked rank
    // could still send an earlier-arriving match for another alternative.
    // Only commit under the engine's safety bound; when it does not hold
    // yet, fall through to the blocking path, which parks until the bound
    // passes.
    const bool choice =
        matchable > 1 || best_spec.src == simk::MatchSpec::kAnySource;
    if (!choice || proc_.engine().wildcard_commit_safe(proc_, best_arrival)) {
      simk::Message m;
      STGSIM_CHECK(proc_.try_match(best_spec, &m));
      return finish(best_idx, m);
    }
  }
  STGSIM_CHECK(matchable > 0) << "waitany with no incomplete requests";

  // Pass 2: block on the union of all pending matches; the winning message
  // is identified afterwards by re-testing each request. The alternatives
  // live on this fiber's stack for the whole block.
  std::vector<simk::MatchSpec> alts;
  alts.reserve(reqs.size());
  for (const Request& r : reqs) {
    if (pending(r)) alts.push_back(spec_of(r));
  }
  simk::MatchSpec united;
  united.src = simk::MatchSpec::kAnySource;
  united.what = "waitany";
  united.any_of = alts.data();
  united.any_of_count = static_cast<std::uint32_t>(alts.size());
  simk::Message m = proc_.blocking_match(united);

  // Attribute the message to the first request it satisfies.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (pending(reqs[i]) && spec_of(reqs[i]).accepts(m)) return finish(i, m);
  }
  STGSIM_UNREACHABLE("waitany matched a message no request claims");
}

void Comm::sendrecv(int dst, int send_tag, const void* send_data,
                    std::size_t send_bytes, int src, int recv_tag,
                    void* recv_data, std::size_t recv_bytes,
                    RecvStatus* status) {
  const VTime t0 = now();
  std::vector<Request> reqs;
  reqs.push_back(irecv(src, recv_tag, recv_data, recv_bytes, status));
  reqs.push_back(isend(dst, send_tag, send_data, send_bytes));
  waitall(reqs);
  obs_op(OpKind::kSendrecv, dst, send_bytes + recv_bytes, t0);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

namespace {

/// `base + off`, or null for a modeled-only (null) buffer.
template <class T>
T* at_offset(T* base, std::size_t off) {
  return base != nullptr ? base + off : nullptr;
}

/// Block `r` of a rank-major buffer of `each`-byte blocks (or null).
template <class T>
T* block(T* base, int r, std::size_t each) {
  return at_offset(base, static_cast<std::size_t>(r) * each);
}

}  // namespace

template <class Body>
void Comm::collective(TraceKind trace_kind, OpKind op, int peer, int tag,
                      std::size_t bytes, Body&& body) {
  trace(trace_kind, peer, tag, bytes);
  const VTime t0 = now();
  ++coll_seq_;
  ++stats_.collectives;
  body();
  close_op(op, peer, bytes, t0);
}

void Comm::coll_send(int dst, int round, const void* data, std::size_t bytes,
                     std::optional<VTime> at) {
  if (!at) proc_.advance(world_.options().net.send_overhead);
  send_raw(dst, kKindColl, 0, coll_aux(round), data, bytes,
           std::max(bytes, std::size_t{8}), net::TransferKind::kEager, at);
  stats_.bytes_sent += bytes;
  if (world_.options().obs != nullptr) {
    world_.options().obs->count_coll_msg(rank(), dst, bytes);
  }
}

void Comm::coll_recv(int src, int round, void* data, std::size_t bytes) {
  simk::Message m = proc_.blocking_match(coll_spec(src, round));
  proc_.lift_clock(m.arrival);
  proc_.advance(world_.options().net.recv_overhead);
  if (data != nullptr && !m.payload.empty()) {
    STGSIM_CHECK_LE(m.payload.size(), bytes);
    std::memcpy(data, m.payload.data(), m.payload.size());
  }
}

template <class Take>
VTime Comm::star_gather(int root, const void* data, std::size_t bytes,
                        VTime at, Take take) {
  if (rank() != root) {
    coll_send(root, 0, data, bytes, at);
    return now();
  }
  VTime latest = now();
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    const simk::Message m = proc_.blocking_match(coll_spec(r, 0));
    latest = std::max(latest, m.arrival);
    take(m);
  }
  return latest;
}

void Comm::barrier() {
  collective(TraceKind::kBarrier, OpKind::kBarrier, -1, 0, 0, [&] {
    const int P = size();
    if (abstract_comm()) {
      // Gather/release star with a closed-form cost each way.
      const VTime half = abstract_coll_cost(0) / 2;
      const VTime latest = star_gather(0, nullptr, 0, now() + half,
                                       [](const simk::Message&) {});
      if (rank() == 0) {
        proc_.lift_clock(latest + half);
        for (int r = 1; r < P; ++r) coll_send(r, 1, nullptr, 0, now() + half);
      } else {
        coll_recv(0, 1, nullptr, 0);
      }
    } else if (coll_algo(CollOp::kBarrier, coll_cfg().barrier, 0) ==
               CollAlgo::kLinear) {
      // Gather-to-0 then release, both root-sequential.
      if (rank() == 0) {
        for (int r = 1; r < P; ++r) coll_recv(r, 0, nullptr, 0);
        for (int r = 1; r < P; ++r) coll_send(r, 1, nullptr, 0);
      } else {
        coll_send(0, 0, nullptr, 0);
        coll_recv(0, 1, nullptr, 0);
      }
    } else {
      for (int round = 0, offset = 1; offset < P; ++round, offset <<= 1) {
        coll_send((rank() + offset) % P, round, nullptr, 0);
        coll_recv((rank() - offset % P + P) % P, round, nullptr, 0);
      }
    }
  });
}

void Comm::bcast(void* data, std::size_t bytes, int root) {
  collective(TraceKind::kBcast, OpKind::kBcast, root, 0, bytes, [&] {
    const int P = size();
    const CollAlgo algo = coll_algo(CollOp::kBcast, coll_cfg().bcast, bytes);
    if (abstract_comm() || algo == CollAlgo::kLinear) {
      // Root-sequential star; the abstract model lands every copy at the
      // closed-form completion time.
      if (rank() != root) {
        coll_recv(root, 0, data, bytes);
        return;
      }
      const std::optional<VTime> at =
          abstract_comm() ? std::optional{now() + abstract_coll_cost(bytes)}
                          : std::nullopt;
      for (int r = 0; r < P; ++r) {
        if (r != root) coll_send(r, 0, data, bytes, at);
      }
    } else if (algo == CollAlgo::kRing) {
      bcast_ring(data, bytes, root);
    } else {
      const int relative = (rank() - root + P) % P;
      int mask = 1;
      while (mask < P) {
        if (relative & mask) {
          coll_recv((rank() - mask + P) % P, 0, data, bytes);
          break;
        }
        mask <<= 1;
      }
      for (mask >>= 1; mask > 0; mask >>= 1) {
        if (relative + mask < P) coll_send((rank() + mask) % P, 0, data, bytes);
      }
    }
  });
}

namespace {

void fold(double* acc, const double* in, std::size_t n, bool is_max) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = is_max ? std::max(acc[i], in[i]) : acc[i] + in[i];
  }
}

}  // namespace

void Comm::reduce(double* inout, int n, int root, ReduceOp op, CollAlgo algo) {
  const int P = size();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  std::vector<double> partial(static_cast<std::size_t>(n));
  auto combine = [&] {
    if (inout != nullptr) {
      fold(inout, partial.data(), partial.size(), op == ReduceOp::kMax);
    }
  };
  if (abstract_comm()) {
    // Gather star into the root; completion = latest entry + closed form.
    const VTime cost = abstract_coll_cost(bytes);
    const VTime latest =
        star_gather(root, inout, bytes, now(), [&](const simk::Message& m) {
          if (inout == nullptr || m.payload.empty()) return;
          std::memcpy(partial.data(), m.payload.data(), m.payload.size());
          combine();
        });
    if (rank() == root) proc_.lift_clock(latest + cost);
    return;
  }
  if (algo == CollAlgo::kRing && P > 1) {
    reduce_ring(inout, n, root, op);
  } else if (algo == CollAlgo::kLinear) {
    if (rank() != root) {
      coll_send(root, 0, inout, bytes);
      return;
    }
    for (int r = 0; r < P; ++r) {
      if (r == root) continue;
      coll_recv(r, 0, partial.data(), bytes);
      combine();
    }
  } else {
    const int relative = (rank() - root + P) % P;
    for (int mask = 1; mask < P; mask <<= 1) {
      if (relative & mask) {
        coll_send(((relative & ~mask) + root) % P, mask, inout, bytes);
        return;
      }
      if ((relative | mask) < P) {
        coll_recv(((relative | mask) + root) % P, mask, partial.data(), bytes);
        combine();
      }
    }
  }
}

void Comm::reduce_sum(double* inout, int n, int root) {
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  collective(TraceKind::kAllreduce, OpKind::kReduce, root, 0, bytes, [&] {
    reduce(inout, n, root, ReduceOp::kSum,
           coll_algo(CollOp::kReduce, coll_cfg().reduce, bytes));
  });
}

void Comm::allreduce(double* inout, int n, ReduceOp op) {
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  const int tag = op == ReduceOp::kMax ? 1 : 0;
  if (!abstract_comm() && size() > 1 &&
      coll_algo(CollOp::kAllreduce, coll_cfg().allreduce, bytes) ==
          CollAlgo::kRing) {
    collective(TraceKind::kAllreduce, OpKind::kAllreduce, -1, tag, bytes, [&] {
      ring_reduce_scatter(inout, n, 0, op);
      ring_allgather(inout, n, 0);
    });
    return;
  }
  // Otherwise reduce to rank 0, then bcast: the sum as reduce_sum (with
  // algo.reduce), the max over a binomial tree.
  if (op == ReduceOp::kSum) {
    reduce_sum(inout, n, 0);
  } else {
    collective(TraceKind::kAllreduce, OpKind::kAllreduce, -1, tag, bytes, [&] {
      reduce(inout, n, 0, op, CollAlgo::kBinomial);
    });
  }
  bcast(inout, bytes, 0);
}

void Comm::allreduce_sum(double* inout, int n) {
  allreduce(inout, n, ReduceOp::kSum);
}

double Comm::allreduce_sum(double value) {
  allreduce_sum(&value, 1);
  return value;
}

void Comm::allreduce_max(double* inout, int n) {
  allreduce(inout, n, ReduceOp::kMax);
}

void Comm::gather(const void* send, std::size_t bytes_each, void* recv_all,
                  int root) {
  collective(TraceKind::kAllreduce, OpKind::kGather, root, 2, bytes_each, [&] {
    if (rank() != root) {
      coll_send(root, 0, send, bytes_each);
      return;
    }
    auto* out = static_cast<std::uint8_t*>(recv_all);
    if (out != nullptr && send != nullptr) {
      std::memcpy(block(out, root, bytes_each), send, bytes_each);
    }
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      coll_recv(r, 0, block(out, r, bytes_each), bytes_each);
    }
  });
}

void Comm::scatter(const void* send_all, std::size_t bytes_each, void* recv,
                   int root) {
  collective(TraceKind::kAllreduce, OpKind::kScatter, root, 3, bytes_each, [&] {
    if (rank() != root) {
      coll_recv(root, 0, recv, bytes_each);
      return;
    }
    const auto* in = static_cast<const std::uint8_t*>(send_all);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      coll_send(r, 0, block(in, r, bytes_each), bytes_each);
    }
    if (recv != nullptr && in != nullptr) {
      std::memcpy(recv, block(in, root, bytes_each), bytes_each);
    }
  });
}

// ---------------------------------------------------------------------------
// Ring algorithms
//
// All rings run root-relative: rank r sits at chain/ring position
// rel = (r - root + P) % P and talks only to its immediate neighbours.
// coll_send is eager fire-and-forget, so the send-then-recv step order is
// deadlock-free by construction.
// ---------------------------------------------------------------------------

namespace {

/// Chunk c of an n-unit payload cut into P pieces: units [lo, lo + n).
struct Chunk {
  std::size_t lo, n;
};

Chunk ring_chunk(int c, std::size_t n, int P) {
  const std::size_t lo = static_cast<std::size_t>(c) * n / P;
  return {lo, (static_cast<std::size_t>(c) + 1) * n / P - lo};
}

}  // namespace

void Comm::bcast_ring(void* data, std::size_t bytes, int root) {
  const int P = size();
  auto* out = static_cast<std::uint8_t*>(data);
  const int rel = (rank() - root + P) % P;
  const int prev = (rank() - 1 + P) % P;
  const int next = (rank() + 1) % P;
  // Pipelined chain: the payload is cut into P segments that stream down
  // the chain, so the bandwidth term is ~2x the payload (like van de
  // Geijn scatter+allgather) instead of P-1 x for a naive chain.
  for (int seg = 0; seg < P; ++seg) {
    const Chunk c = ring_chunk(seg, bytes, P);
    if (rel > 0) coll_recv(prev, seg, at_offset(out, c.lo), c.n);
    if (rel < P - 1) coll_send(next, seg, at_offset(out, c.lo), c.n);
  }
}

void Comm::ring_reduce_scatter(double* work, int n, int root, ReduceOp op) {
  const int P = size();
  const int rel = (rank() - root + P) % P;
  const int right = (rank() + 1) % P;
  const int left = (rank() - 1 + P) % P;
  const auto count = static_cast<std::size_t>(n);
  std::vector<double> tmp(count / P + 1);
  for (int s = 0; s < P - 1; ++s) {
    // The chunk received last step is the one sent this step, so the
    // partial sums accumulate around the ring; after P-1 steps chunk
    // (rel + 1) % P on this rank holds every rank's contribution.
    const Chunk send_c = ring_chunk(((rel - s) % P + P) % P, count, P);
    const Chunk recv_c = ring_chunk(((rel - s - 1) % P + P) % P, count, P);
    coll_send(right, s, at_offset(work, send_c.lo), send_c.n * sizeof(double));
    coll_recv(left, s, work != nullptr ? tmp.data() : nullptr,
              recv_c.n * sizeof(double));
    if (work != nullptr) {
      fold(work + recv_c.lo, tmp.data(), recv_c.n, op == ReduceOp::kMax);
    }
  }
}

void Comm::ring_allgather(double* work, int n, int root) {
  const int P = size();
  const int rel = (rank() - root + P) % P;
  const int right = (rank() + 1) % P;
  const int left = (rank() - 1 + P) % P;
  const auto count = static_cast<std::size_t>(n);
  // Entry state: chunk (rel + 1) % P is this rank's fully reduced chunk
  // (ring_reduce_scatter's postcondition). Rounds continue the sequence
  // numbers where reduce-scatter left off.
  for (int s = 0; s < P - 1; ++s) {
    const Chunk send_c = ring_chunk(((rel + 1 - s) % P + P) % P, count, P);
    const Chunk recv_c = ring_chunk(((rel - s) % P + P) % P, count, P);
    coll_send(right, P - 1 + s, at_offset(work, send_c.lo),
              send_c.n * sizeof(double));
    coll_recv(left, P - 1 + s, at_offset(work, recv_c.lo),
              recv_c.n * sizeof(double));
  }
}

void Comm::reduce_ring(double* inout, int n, int root, ReduceOp op) {
  const int P = size();
  ring_reduce_scatter(inout, n, root, op);
  // Owners forward their reduced chunk to the root (chunk c is owned by
  // relative position (c - 1 + P) % P).
  const auto count = static_cast<std::size_t>(n);
  const int own_c = ((rank() - root + P) % P + 1) % P;
  if (rank() != root) {
    const Chunk c = ring_chunk(own_c, count, P);
    coll_send(root, P - 1 + own_c, at_offset(inout, c.lo),
              c.n * sizeof(double));
    return;
  }
  for (int c = 0; c < P; ++c) {
    if (c == own_c) continue;
    const Chunk chunk = ring_chunk(c, count, P);
    coll_recv((((c - 1 + P) % P) + root) % P, P - 1 + c,
              at_offset(inout, chunk.lo), chunk.n * sizeof(double));
  }
}

// ---------------------------------------------------------------------------
// Alltoall
// ---------------------------------------------------------------------------

void Comm::alltoall(const void* send_all, std::size_t bytes_each,
                    void* recv_all) {
  collective(TraceKind::kAlltoall, OpKind::kAlltoall, -1, 0, bytes_each, [&] {
    const int P = size();
    const auto* in = static_cast<const std::uint8_t*>(send_all);
    auto* out = static_cast<std::uint8_t*>(recv_all);
    if (out != nullptr && in != nullptr) {
      std::memcpy(block(out, rank(), bytes_each), block(in, rank(), bytes_each),
                  bytes_each);
    }
    if (abstract_comm()) {
      // Every off-rank block lands at the closed-form completion time for
      // the full per-rank volume.
      const VTime done =
          now() + abstract_coll_cost(bytes_each * static_cast<std::size_t>(P));
      for (int s = 1; s < P; ++s) {
        const int dst = (rank() + s) % P;
        coll_send(dst, s, block(in, dst, bytes_each), bytes_each, done);
      }
      for (int s = 1; s < P; ++s) {
        const int src = (rank() - s + P) % P;
        coll_recv(src, s, block(out, src, bytes_each), bytes_each);
      }
    } else if (coll_algo(CollOp::kAlltoall, coll_cfg().alltoall,
                         bytes_each) == CollAlgo::kLinear) {
      // Root-sequential at every rank: post all blocks, then collect.
      for (int r = 0; r < P; ++r) {
        if (r != rank()) coll_send(r, 0, block(in, r, bytes_each), bytes_each);
      }
      for (int r = 0; r < P; ++r) {
        if (r != rank()) coll_recv(r, 0, block(out, r, bytes_each), bytes_each);
      }
    } else {
      // Pairwise exchange: step s pairs partners at ring distance s; every
      // rank is in exactly one pair per step, so the P-1 steps tile the
      // traffic with no endpoint contention.
      for (int s = 1; s < P; ++s) {
        const int dst = (rank() + s) % P;
        const int src = (rank() - s + P) % P;
        coll_send(dst, s, block(in, dst, bytes_each), bytes_each);
        coll_recv(src, s, block(out, src, bytes_each), bytes_each);
      }
    }
  });
}

double Comm::read_param(const std::string& name) {
  double value = 0.0;
  if (rank() == 0) {
    proc_.advance(world_.options().param_read_cost);
    value = world_.param(name);
  }
  bcast(&value, sizeof value, 0);
  return value;
}

}  // namespace stgsim::smpi
