#include "obs/obs.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string_view>

#include "support/check.hpp"
#include "support/json.hpp"

namespace stgsim::obs {

namespace {

std::size_t size_bucket(std::uint64_t bytes) {
  std::size_t b = 0;
  while (bytes > 1 && b + 1 < Recorder::kHistBuckets) {
    bytes >>= 1;
    ++b;
  }
  return b;
}

/// Doubles print round-trip-exact but compactly (counters are integers
/// almost everywhere, so most values render without a decimal point).
void write_number(std::ostream& os, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -9.0e15 && v <= 9.0e15) {
    os << static_cast<long long>(v);
  } else {
    const auto prec = os.precision(17);
    os << v;
    os.precision(prec);
  }
}

void write_matrix(std::ostream& os, const std::vector<std::uint64_t>& m,
                  int nranks) {
  os << "[";
  for (int r = 0; r < nranks; ++r) {
    os << (r == 0 ? "\n    [" : ",\n    [");
    for (int c = 0; c < nranks; ++c) {
      if (c != 0) os << ", ";
      os << m[static_cast<std::size_t>(r) * static_cast<std::size_t>(nranks) +
              static_cast<std::size_t>(c)];
    }
    os << "]";
  }
  os << "\n  ]";
}

}  // namespace

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kSend: return "send";
    case OpKind::kRecv: return "recv";
    case OpKind::kIsend: return "isend";
    case OpKind::kIrecv: return "irecv";
    case OpKind::kWait: return "wait";
    case OpKind::kWaitall: return "waitall";
    case OpKind::kWaitany: return "waitany";
    case OpKind::kSendrecv: return "sendrecv";
    case OpKind::kBarrier: return "barrier";
    case OpKind::kBcast: return "bcast";
    case OpKind::kReduce: return "reduce";
    case OpKind::kAllreduce: return "allreduce";
    case OpKind::kGather: return "gather";
    case OpKind::kScatter: return "scatter";
    case OpKind::kAlltoall: return "alltoall";
    case OpKind::kCompute: return "compute";
    case OpKind::kDelay: return "delay";
    case OpKind::kCount_: break;
  }
  return "?";
}

const char* op_kind_category(OpKind k) {
  switch (k) {
    case OpKind::kSend:
    case OpKind::kRecv:
    case OpKind::kIsend:
    case OpKind::kIrecv:
    case OpKind::kSendrecv:
      return "p2p";
    case OpKind::kWait:
    case OpKind::kWaitall:
    case OpKind::kWaitany:
      return "sync";
    case OpKind::kBarrier:
    case OpKind::kBcast:
    case OpKind::kReduce:
    case OpKind::kAllreduce:
    case OpKind::kGather:
    case OpKind::kScatter:
    case OpKind::kAlltoall:
      return "collective";
    case OpKind::kCompute:
    case OpKind::kDelay:
      return "compute";
    case OpKind::kCount_:
      break;
  }
  return "?";
}

Recorder::Recorder(Options opts, int nranks)
    : opts_(opts), nranks_(nranks),
      shards_(static_cast<std::size_t>(nranks)) {
  STGSIM_CHECK_GT(nranks, 0);
  if (opts_.comm_matrix) {
    for (auto& s : shards_) {
      s.p2p_msgs_row.assign(static_cast<std::size_t>(nranks), 0);
      s.p2p_bytes_row.assign(static_cast<std::size_t>(nranks), 0);
      s.coll_msgs_row.assign(static_cast<std::size_t>(nranks), 0);
      s.coll_bytes_row.assign(static_cast<std::size_t>(nranks), 0);
    }
  }
}

void Recorder::reset_rank(int rank) {
  RankShard& s = shard_mut(rank);
  s = RankShard{};
  if (opts_.comm_matrix) {
    s.p2p_msgs_row.assign(static_cast<std::size_t>(nranks_), 0);
    s.p2p_bytes_row.assign(static_cast<std::size_t>(nranks_), 0);
    s.coll_msgs_row.assign(static_cast<std::size_t>(nranks_), 0);
    s.coll_bytes_row.assign(static_cast<std::size_t>(nranks_), 0);
  }
}

void Recorder::save_rank(int rank, BlobWriter& w) const {
  const RankShard& s = shard(rank);
  w.u64(s.slices);
  w.u64(s.blocks);
  w.u64(s.wakeups);
  w.u64(s.match_attempts);
  w.u64(s.match_probes);
  w.u64(s.match_hits);
  w.u64(s.msgs_sent);
  w.u64(s.wire_bytes);
  for (std::size_t i = 0; i < kOpKindCount; ++i) w.u64(s.op_count[i]);
  for (std::size_t i = 0; i < kOpKindCount; ++i) w.i64(s.op_time[i]);
  w.u64(s.eager_msgs);
  w.u64(s.eager_bytes);
  w.u64(s.rndv_msgs);
  w.u64(s.rndv_bytes);
  for (std::size_t i = 0; i < kHistBuckets; ++i) w.u64(s.size_hist[i]);
  w.vec_pod(s.p2p_msgs_row);
  w.vec_pod(s.p2p_bytes_row);
  w.vec_pod(s.coll_msgs_row);
  w.vec_pod(s.coll_bytes_row);
  w.vec_pod(s.spans);
  w.vec_pod(s.block_spans);
  w.u8(s.block_open ? 1 : 0);
}

void Recorder::restore_rank(int rank, BlobReader& r) {
  RankShard& s = shard_mut(rank);
  s.slices = r.u64();
  s.blocks = r.u64();
  s.wakeups = r.u64();
  s.match_attempts = r.u64();
  s.match_probes = r.u64();
  s.match_hits = r.u64();
  s.msgs_sent = r.u64();
  s.wire_bytes = r.u64();
  for (std::size_t i = 0; i < kOpKindCount; ++i) s.op_count[i] = r.u64();
  for (std::size_t i = 0; i < kOpKindCount; ++i) s.op_time[i] = r.i64();
  s.eager_msgs = r.u64();
  s.eager_bytes = r.u64();
  s.rndv_msgs = r.u64();
  s.rndv_bytes = r.u64();
  for (std::size_t i = 0; i < kHistBuckets; ++i) s.size_hist[i] = r.u64();
  r.vec_pod(&s.p2p_msgs_row);
  r.vec_pod(&s.p2p_bytes_row);
  r.vec_pod(&s.coll_msgs_row);
  r.vec_pod(&s.coll_bytes_row);
  r.vec_pod(&s.spans);
  r.vec_pod(&s.block_spans);
  s.block_open = r.u8() != 0;
}

void Recorder::record_op(int rank, OpKind k, int peer, std::uint64_t bytes,
                         VTime begin, VTime end) {
  RankShard& s = shard_mut(rank);
  const auto ki = static_cast<std::size_t>(k);
  s.op_count[ki] += 1;
  s.op_time[ki] += end - begin;
  if (opts_.trace) {
    s.spans.push_back(Span{k, peer, bytes, begin, end});
  }
}

void Recorder::count_p2p(int rank, int dst, std::uint64_t bytes,
                         bool rendezvous) {
  RankShard& s = shard_mut(rank);
  if (rendezvous) {
    s.rndv_msgs += 1;
    s.rndv_bytes += bytes;
  } else {
    s.eager_msgs += 1;
    s.eager_bytes += bytes;
  }
  s.size_hist[size_bucket(bytes)] += 1;
  if (opts_.comm_matrix) {
    s.p2p_msgs_row[static_cast<std::size_t>(dst)] += 1;
    s.p2p_bytes_row[static_cast<std::size_t>(dst)] += bytes;
  }
}

void Recorder::count_coll_msg(int rank, int dst, std::uint64_t bytes) {
  if (!opts_.comm_matrix) return;
  RankShard& s = shard_mut(rank);
  s.coll_msgs_row[static_cast<std::size_t>(dst)] += 1;
  s.coll_bytes_row[static_cast<std::size_t>(dst)] += bytes;
}

void Recorder::on_resume(int rank, VTime clock) {
  (void)clock;
  shard_mut(rank).slices += 1;
}

void Recorder::on_block(int rank, VTime clock, const simk::MatchSpec& spec) {
  (void)spec;
  RankShard& s = shard_mut(rank);
  s.blocks += 1;
  if (opts_.trace) {
    s.block_spans.push_back(Span{OpKind::kCount_, -1, 0, clock, clock});
    s.block_open = true;
  }
}

void Recorder::on_wake(int rank, VTime clock, VTime arrival) {
  (void)clock;
  RankShard& s = shard_mut(rank);
  s.wakeups += 1;
  if (opts_.trace && s.block_open) {
    Span& sp = s.block_spans.back();
    // The blocked interval ends when the waking message is available (or
    // at the blocking clock itself when it was already queued).
    sp.end = std::max(sp.begin,
                      arrival == kVTimeNever ? sp.begin : arrival);
    s.block_open = false;
  }
}

void Recorder::on_send(const simk::Message& m) {
  RankShard& s = shard_mut(m.src);
  s.msgs_sent += 1;
  s.wire_bytes += m.wire_bytes;
}

void Recorder::on_match(int rank, std::uint64_t probes, bool hit) {
  RankShard& s = shard_mut(rank);
  s.match_attempts += 1;
  s.match_probes += probes;
  if (hit) s.match_hits += 1;
}

MetricsSnapshot Recorder::snapshot() const {
  MetricsSnapshot out;
  out.nranks = nranks_;

  RankShard tot;  // matrix rows unused; scalar sums only
  std::uint64_t hist[kHistBuckets] = {};
  VTime comm_time = 0, compute_time = 0;
  std::uint64_t spans = 0;
  for (const auto& s : shards_) {
    tot.slices += s.slices;
    tot.blocks += s.blocks;
    tot.wakeups += s.wakeups;
    tot.match_attempts += s.match_attempts;
    tot.match_probes += s.match_probes;
    tot.match_hits += s.match_hits;
    tot.msgs_sent += s.msgs_sent;
    tot.wire_bytes += s.wire_bytes;
    tot.eager_msgs += s.eager_msgs;
    tot.eager_bytes += s.eager_bytes;
    tot.rndv_msgs += s.rndv_msgs;
    tot.rndv_bytes += s.rndv_bytes;
    for (std::size_t i = 0; i < kOpKindCount; ++i) {
      tot.op_count[i] += s.op_count[i];
      tot.op_time[i] += s.op_time[i];
      const auto k = static_cast<OpKind>(i);
      if (op_kind_category(k) == std::string_view("compute")) {
        compute_time += s.op_time[i];
      } else {
        comm_time += s.op_time[i];
      }
    }
    for (std::size_t i = 0; i < kHistBuckets; ++i) hist[i] += s.size_hist[i];
    spans += s.spans.size() + s.block_spans.size();
  }

  out.add("engine.slices", static_cast<double>(tot.slices));
  out.add("engine.blocks", static_cast<double>(tot.blocks));
  out.add("engine.wakeups", static_cast<double>(tot.wakeups));
  out.add("engine.match_attempts", static_cast<double>(tot.match_attempts));
  out.add("engine.match_probes", static_cast<double>(tot.match_probes));
  out.add("engine.match_hits", static_cast<double>(tot.match_hits));
  out.add("engine.messages_sent", static_cast<double>(tot.msgs_sent));
  out.add("engine.wire_bytes", static_cast<double>(tot.wire_bytes));
  out.add("smpi.eager_msgs", static_cast<double>(tot.eager_msgs));
  out.add("smpi.eager_bytes", static_cast<double>(tot.eager_bytes));
  out.add("smpi.rendezvous_msgs", static_cast<double>(tot.rndv_msgs));
  out.add("smpi.rendezvous_bytes", static_cast<double>(tot.rndv_bytes));
  out.add("smpi.comm_time_sec", vtime_to_sec(comm_time));
  out.add("smpi.compute_time_sec", vtime_to_sec(compute_time));
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    const auto k = static_cast<OpKind>(i);
    if (tot.op_count[i] == 0) continue;
    out.add(std::string("op.") + op_kind_name(k) + ".count",
            static_cast<double>(tot.op_count[i]));
    out.add(std::string("op.") + op_kind_name(k) + ".time_sec",
            vtime_to_sec(tot.op_time[i]));
  }
  if (opts_.trace) out.add("trace.spans", static_cast<double>(spans));

  // Trim the histogram to the last non-empty bucket.
  std::size_t last = 0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    if (hist[i] != 0) last = i + 1;
  }
  out.msg_size_hist.assign(hist, hist + last);

  if (opts_.comm_matrix) {
    const auto n = static_cast<std::size_t>(nranks_);
    out.p2p_messages.assign(n * n, 0);
    out.p2p_bytes.assign(n * n, 0);
    out.coll_messages.assign(n * n, 0);
    out.coll_bytes.assign(n * n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      const RankShard& s = shards_[r];
      for (std::size_t c = 0; c < n; ++c) {
        out.p2p_messages[r * n + c] = s.p2p_msgs_row[c];
        out.p2p_bytes[r * n + c] = s.p2p_bytes_row[c];
        out.coll_messages[r * n + c] = s.coll_msgs_row[c];
        out.coll_bytes[r * n + c] = s.coll_bytes_row[c];
      }
    }
  }
  return out;
}

double MetricsSnapshot::value(const std::string& name, bool* found) const {
  for (const auto& [n, v] : scalars) {
    if (n == name) {
      if (found != nullptr) *found = true;
      return v;
    }
  }
  if (found != nullptr) *found = false;
  return 0.0;
}

namespace {

void merge_hist(std::vector<std::uint64_t>* dst,
                const std::vector<std::uint64_t>& src) {
  if (dst->size() < src.size()) dst->resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) (*dst)[i] += src[i];
}

}  // namespace

void merge_metrics(MetricsSnapshot* dst, const MetricsSnapshot& src) {
  for (const auto& [name, value] : src.scalars) {
    bool found = false;
    for (auto& [n, v] : dst->scalars) {
      if (n == name) {
        v += value;
        found = true;
        break;
      }
    }
    if (!found) dst->add(name, value);
  }
  merge_hist(&dst->msg_size_hist, src.msg_size_hist);
  merge_hist(&dst->rollback_depth_hist, src.rollback_depth_hist);
  merge_hist(&dst->hop_hist, src.hop_hist);
  // Links merge by name: cross-run rollups only make sense when the runs
  // share a platform, but summing by name is harmless either way.
  for (const auto& l : src.links) {
    bool found = false;
    for (auto& d : dst->links) {
      if (d.name == l.name) {
        d.messages += l.messages;
        d.bytes += l.bytes;
        found = true;
        break;
      }
    }
    if (!found) dst->links.push_back(l);
  }
  if (dst->nranks == src.nranks && !src.p2p_messages.empty() &&
      dst->p2p_messages.size() == src.p2p_messages.size()) {
    merge_hist(&dst->p2p_messages, src.p2p_messages);
    merge_hist(&dst->p2p_bytes, src.p2p_bytes);
    merge_hist(&dst->coll_messages, src.coll_messages);
    merge_hist(&dst->coll_bytes, src.coll_bytes);
  }
}

void Recorder::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](int rank, const char* name, const char* cat,
                  const Span& sp) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << name << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"X\",\"ts\":" << vtime_to_us(sp.begin)
       << ",\"dur\":" << vtime_to_us(sp.end - sp.begin)
       << ",\"pid\":0,\"tid\":" << rank << ",\"args\":{\"peer\":" << sp.peer
       << ",\"bytes\":" << sp.bytes << "}}";
  };
  for (int r = 0; r < nranks_; ++r) {
    const RankShard& s = shard(r);
    // Thread-name metadata rows make Perfetto label timelines "rank N".
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"args\":{\"name\":\"rank " << r << "\"}}";
    for (const Span& sp : s.spans) {
      emit(r, op_kind_name(sp.kind), op_kind_category(sp.kind), sp);
    }
    for (const Span& sp : s.block_spans) {
      if (sp.end < sp.begin) continue;  // open interval at teardown
      emit(r, "blocked", "engine", sp);
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Recorder::write_metrics_json(std::ostream& os,
                                  const MetricsSnapshot& s) {
  os << "{\n  \"metrics\": {";
  for (std::size_t i = 0; i < s.scalars.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << s.scalars[i].first
       << "\": ";
    write_number(os, s.scalars[i].second);
  }
  os << "\n  },\n  \"msg_size_hist\": [";
  for (std::size_t i = 0; i < s.msg_size_hist.size(); ++i) {
    if (i != 0) os << ", ";
    os << s.msg_size_hist[i];
  }
  os << "]";
  if (!s.rollback_depth_hist.empty()) {
    os << ",\n  \"rollback_depth_hist\": [";
    for (std::size_t i = 0; i < s.rollback_depth_hist.size(); ++i) {
      if (i != 0) os << ", ";
      os << s.rollback_depth_hist[i];
    }
    os << "]";
  }
  if (!s.hop_hist.empty()) {
    os << ",\n  \"hop_hist\": [";
    for (std::size_t i = 0; i < s.hop_hist.size(); ++i) {
      if (i != 0) os << ", ";
      os << s.hop_hist[i];
    }
    os << "]";
  }
  if (!s.p2p_messages.empty()) {
    os << ",\n  \"comm_matrix\": ";
    std::ostringstream tmp;
    write_comm_matrix_json(tmp, s);
    // Indent the nested document by re-emitting it verbatim; it is already
    // a standalone JSON object.
    os << tmp.str();
  }
  os << "\n}\n";
}

void Recorder::write_comm_matrix_json(std::ostream& os,
                                      const MetricsSnapshot& s) {
  os << "{\n  \"nranks\": " << s.nranks;
  os << ",\n  \"p2p_messages\": ";
  write_matrix(os, s.p2p_messages, s.nranks);
  os << ",\n  \"p2p_bytes\": ";
  write_matrix(os, s.p2p_bytes, s.nranks);
  os << ",\n  \"coll_messages\": ";
  write_matrix(os, s.coll_messages, s.nranks);
  os << ",\n  \"coll_bytes\": ";
  write_matrix(os, s.coll_bytes, s.nranks);
  os << "\n}";
}

void Recorder::write_link_stats_json(std::ostream& os,
                                     const MetricsSnapshot& s) {
  os << "{\n  \"hop_hist\": [";
  for (std::size_t i = 0; i < s.hop_hist.size(); ++i) {
    if (i != 0) os << ", ";
    os << s.hop_hist[i];
  }
  os << "],\n  \"links\": [";
  for (std::size_t i = 0; i < s.links.size(); ++i) {
    const auto& l = s.links[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << l.name
       << "\", \"messages\": " << l.messages << ", \"bytes\": " << l.bytes
       << "}";
  }
  os << "\n  ]\n}\n";
}

void Recorder::write_divergence_json(
    std::ostream& os, const std::string& description,
    const std::vector<std::pair<std::string, std::string>>& canonical,
    const std::vector<std::pair<std::string, std::string>>& observed) {
  // Built through json::Value for canonical escaping/ordering; field pairs
  // land in sorted-key objects, which is fine — names are already unique.
  json::Value doc = json::Value::object();
  doc.set("kind", "stgsim-divergence");
  doc.set("description", description);
  auto fields_to_json = [](const std::vector<std::pair<std::string,
                                                       std::string>>& fs) {
    json::Value o = json::Value::object();
    for (const auto& [name, value] : fs) o.set(name, json::Value(value));
    return o;
  };
  doc.set("canonical", fields_to_json(canonical));
  doc.set("observed", fields_to_json(observed));
  os << doc.dump(2) << '\n';
}

}  // namespace stgsim::obs
