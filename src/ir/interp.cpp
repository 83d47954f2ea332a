#include "ir/interp.hpp"

#include <algorithm>

#include "machine/compute.hpp"
#include "support/blob.hpp"
#include "support/check.hpp"
#include "symexpr/compiled.hpp"

namespace stgsim::ir {

void TimerRecorder::add(const std::string& task, double seconds,
                        double iters) {
  auto& r = records_[task];
  r.seconds += seconds;
  r.iters += iters;
}

std::map<std::string, double> TimerRecorder::to_params() const {
  std::map<std::string, double> params;
  for (const auto& [task, r] : records_) {
    STGSIM_CHECK_GT(r.iters, 0.0) << "task " << task << " never iterated";
    params["w_" + task] = r.seconds / r.iters;
  }
  return params;
}

namespace {

struct ArrayVal {
  TrackedBuffer buf;
  std::vector<std::int64_t> extents;
  std::size_t elems = 0;
  std::size_t elem_bytes = sizeof(double);
  bool declared = false;
};

/// Tape evaluation state, one per host thread: evaluation never yields, so
/// every rank a thread runs can share it.
thread_local sym::CompiledExpr::Scratch t_scratch;

}  // namespace

/// Per-rank interpreter state: one flat frame of scalars, arrays and
/// request lists (the paper's single-procedure model), laid out by the
/// run's shared Plan.
///
/// Everything here is indexed by a plan id: scalars by frame slot, arrays,
/// request lists and timers by their dense ids, memo cells by the operand's
/// cell. An operand's last value is memoized behind its inputs' write
/// generations, so steady-state evaluation of loop-invariant operands
/// (peer ranks, message counts, condensed delay costs) is an integer
/// compare per input instead of a tape run.
class ExecState {
 public:
  ExecState(const Plan& plan, smpi::Comm& comm, const ExecOptions& options)
      : plan_(plan),
        comm_(comm),
        options_(options),
        frame_(static_cast<std::size_t>(plan.num_slots())),
        frame_defined_(static_cast<std::size_t>(plan.num_slots()), 0),
        frame_gen_(static_cast<std::size_t>(plan.num_slots()), 0),
        memo_(static_cast<std::size_t>(plan.num_memos())),
        stamps_(static_cast<std::size_t>(plan.num_stamps())),
        arrays_(static_cast<std::size_t>(plan.num_arrays())),
        requests_(static_cast<std::size_t>(plan.num_request_lists())),
        timer_start_(static_cast<std::size_t>(plan.num_timers()), 0),
        timer_open_(static_cast<std::size_t>(plan.num_timers()), 0) {}

  void run() {
    simk::Process& proc = comm_.process();
    const std::vector<std::uint8_t>* blob = proc.pending_restore();
    if (blob == nullptr) {
      exec_block(plan_.program().main());
      return;
    }
    // Optimistic-mode rollback into a checkpoint: rebuild the captured
    // interpreter state, then re-enter the statement tree at the recorded
    // position. The engine feeds subsequent receives from its consumption
    // log (coast-forward replay), so execution from here reproduces the
    // pre-rollback state exactly.
    std::vector<PosFrame> pos;
    {
      BlobReader r(*blob);
      comm_.restore_state(r);
      deserialize_state(r, &pos);
      STGSIM_CHECK(r.done()) << "trailing bytes in checkpoint blob";
    }
    proc.clear_pending_restore();
    STGSIM_CHECK(!pos.empty()) << "checkpoint blob carries no position";
    exec_block_resume(plan_.program().main(), pos, 0);
  }

  smpi::Comm& comm() { return comm_; }
  const Plan& plan() const { return plan_; }

  /// Array `id` as declared on this rank; `name` only labels the error.
  ArrayVal& array(int id, const std::string& name) {
    STGSIM_CHECK(id >= 0 && arrays_[static_cast<std::size_t>(id)].declared)
        << "unknown array '" << name << "'";
    return arrays_[static_cast<std::size_t>(id)];
  }

  /// Value of a declared scalar; `name` only labels the error.
  sym::Value scalar(int slot, const std::string& name) const {
    STGSIM_CHECK(slot >= 0 &&
                 frame_defined_[static_cast<std::size_t>(slot)] != 0)
        << "unknown scalar '" << name << "'";
    return frame_[static_cast<std::size_t>(slot)];
  }

  /// Assigns a declared scalar, keeping declared integer scalars integral
  /// (Fortran INTEGER).
  void assign(int slot, const std::string& name, const sym::Value& v) {
    STGSIM_CHECK(slot >= 0 &&
                 frame_defined_[static_cast<std::size_t>(slot)] != 0)
        << "assignment to undeclared scalar '" << name << "'";
    sym::Value& cur = frame_[static_cast<std::size_t>(slot)];
    if (cur.is_int() && !v.is_int()) {
      cur = sym::Value(v.as_int());
    } else {
      cur = v;
    }
    ++frame_gen_[static_cast<std::size_t>(slot)];
  }

 private:
  /// Defines (or redefines) a scalar, as a declaration does.
  void define(int slot, const sym::Value& v) {
    const auto i = static_cast<std::size_t>(slot);
    frame_[i] = v;
    frame_defined_[i] = 1;
    ++frame_gen_[i];
  }

  /// Evaluates plan operand `id` against the current frame, reusing a
  /// tape's memoized value while its inputs' write generations match.
  /// Evaluation is pure, so it never moves a generation itself.
  sym::Value eval(int id) {
    const Plan::Operand& op = plan_.operand(id);
    if (op.kind != Plan::Operand::Kind::kTape) {
      return plan_.eval(id, frame_, frame_defined_, t_scratch);
    }
    MemoCell& memo = memo_[static_cast<std::size_t>(op.memo)];
    std::uint64_t* stamp = stamps_.data() + op.stamp;
    const std::size_t inputs = op.slots.size();
    if (memo.valid) {
      bool fresh = true;
      for (std::size_t i = 0; i < inputs; ++i) {
        if (stamp[i] != frame_gen_[static_cast<std::size_t>(op.slots[i])]) {
          fresh = false;
          break;
        }
      }
      if (fresh) return memo.value;
    }
    const sym::Value v = plan_.eval(id, frame_, frame_defined_, t_scratch);
    for (std::size_t i = 0; i < inputs; ++i) {
      stamp[i] = frame_gen_[static_cast<std::size_t>(op.slots[i])];
    }
    memo.value = v;
    memo.valid = true;
    return v;
  }

  /// One level of the interpreter's position in the statement tree, as a
  /// plain restartable coordinate: the statement index within the block,
  /// plus — when that statement is the one being descended through — its
  /// in-progress state (kFor: current induction value and the bound as
  /// evaluated at loop entry, since the body may mutate its inputs; kIf:
  /// which arm was taken). Serialized into checkpoints; rollback resumes
  /// by re-descending the stack.
  struct PosFrame {
    std::uint32_t index = 0;
    std::int64_t loop_i = 0;
    std::int64_t loop_hi = 0;
    std::uint8_t branch = 0;
  };

  void exec_block(const std::vector<StmtP>& block) {
    const std::size_t d = pos_stack_.size();
    pos_stack_.emplace_back();
    for (std::size_t i = 0; i < block.size(); ++i) {
      // Index, never a held reference: nested exec_block calls grow the
      // stack and may reallocate it.
      pos_stack_[d].index = static_cast<std::uint32_t>(i);
      exec_stmt(*block[i]);
      maybe_checkpoint();
    }
    pos_stack_.pop_back();
  }

  /// Re-enters `block` at the checkpointed position `pos[depth...]`: the
  /// innermost frame's statement had completed when the checkpoint was
  /// taken, every outer frame's statement is in progress and is descended
  /// through; after the resumed statement the block continues normally.
  void exec_block_resume(const std::vector<StmtP>& block,
                         const std::vector<PosFrame>& pos,
                         std::size_t depth) {
    const std::size_t d = pos_stack_.size();
    pos_stack_.push_back(pos[depth]);
    std::size_t start = static_cast<std::size_t>(pos[depth].index) + 1;
    if (depth + 1 != pos.size()) {
      STGSIM_CHECK_LT(static_cast<std::size_t>(pos[depth].index),
                      block.size())
          << "checkpoint position out of range";
      exec_stmt_resume(*block[pos[depth].index], pos, depth);
    }
    for (std::size_t i = start; i < block.size(); ++i) {
      pos_stack_[d].index = static_cast<std::uint32_t>(i);
      exec_stmt(*block[i]);
      maybe_checkpoint();
    }
    pos_stack_.pop_back();
  }

  /// Descends into an in-progress block-bearing statement during resume.
  void exec_stmt_resume(const Stmt& s, const std::vector<PosFrame>& pos,
                        std::size_t depth) {
    const PosFrame f = pos[depth];
    switch (s.kind) {
      case StmtKind::kFor: {
        // The restored frame already holds the induction variable at
        // f.loop_i with its original write generation; finish the current
        // iteration, then run the remaining ones normally. The bound is
        // the one recorded at loop entry, never re-evaluated.
        const int var = plan_.at(s).slot;
        {
          const std::size_t pd = pos_stack_.size() - 1;
          pos_stack_[pd].loop_i = f.loop_i;
          pos_stack_[pd].loop_hi = f.loop_hi;
          exec_block_resume(s.body, pos, depth + 1);
        }
        for (std::int64_t i = f.loop_i + 1; i <= f.loop_hi; ++i) {
          define(var, sym::Value(i));
          const std::size_t pd = pos_stack_.size() - 1;
          pos_stack_[pd].loop_i = i;
          pos_stack_[pd].loop_hi = f.loop_hi;
          exec_block(s.body);
        }
        break;
      }
      case StmtKind::kIf:
        exec_block_resume(f.branch != 0 ? s.body : s.else_body, pos,
                          depth + 1);
        break;
      case StmtKind::kCall:
        exec_block_resume(callee(s).body, pos, depth + 1);
        break;
      default:
        STGSIM_CHECK(false)
            << "checkpoint position descends through a non-block statement";
    }
  }

  const Procedure& callee(const Stmt& s) const {
    const Procedure* p = plan_.at(s).callee;
    STGSIM_CHECK(p != nullptr) << "unknown procedure " << s.name;
    return *p;
  }

  /// Statement-boundary checkpoint poll (optimistic mode; a no-op flag
  /// read everywhere else). Captures only at quiescent boundaries — no
  /// outstanding Requests — because Request handles are deliberately not
  /// serialized.
  void maybe_checkpoint() {
    if (pending_requests_ != 0) return;
    simk::Process& proc = comm_.process();
    if (!proc.checkpoint_due()) return;
    std::vector<std::uint8_t> blob;
    // State size is near-constant across captures (same frame, same
    // arrays); reserving the previous size turns the write into a single
    // allocation instead of log2(bytes) grow-and-copy rounds.
    blob.reserve(last_blob_bytes_ + 256);
    BlobWriter w(blob);
    comm_.save_state(w);
    serialize_state(w);
    last_blob_bytes_ = blob.size();
    proc.take_checkpoint(std::move(blob));
  }

  /// Serializes everything a fresh ExecState on the same plan needs to
  /// resume at the current position: the scalar frame (values,
  /// definedness, write generations), each declared array with its payload
  /// bytes (a payload-free array has none: its sizes rebuild the ledger
  /// charge), open timers, and the position stack. Names and the layout
  /// belong to the plan; request lists are all empty at a quiescent
  /// boundary, and memo cells refill on the next evaluation.
  void serialize_state(BlobWriter& w) const {
    w.vec_pod(frame_);
    w.vec_pod(frame_defined_);
    w.vec_pod(frame_gen_);
    for (const ArrayVal& a : arrays_) {
      w.u8(a.declared ? 1 : 0);
      if (!a.declared) continue;
      w.vec_pod(a.extents);
      w.u64(a.elems);
      w.u64(a.elem_bytes);
      w.u64(a.buf.size_bytes());
      if (a.buf.data() != nullptr) w.raw(a.buf.data(), a.buf.size_bytes());
    }
    w.vec_pod(timer_start_);
    w.vec_pod(timer_open_);
    w.vec_pod(pos_stack_);
  }

  void deserialize_state(BlobReader& r, std::vector<PosFrame>* pos) {
    r.vec_pod(&frame_);
    r.vec_pod(&frame_defined_);
    r.vec_pod(&frame_gen_);
    for (std::size_t id = 0; id < arrays_.size(); ++id) {
      ArrayVal& a = arrays_[id];
      a = ArrayVal{};
      if (r.u8() == 0) continue;
      r.vec_pod(&a.extents);
      a.elems = static_cast<std::size_t>(r.u64());
      a.elem_bytes = static_cast<std::size_t>(r.u64());
      const auto bytes = static_cast<std::size_t>(r.u64());
      a.buf = TrackedBuffer(&comm_.process().memory(), bytes,
                            storage(static_cast<int>(id)));
      if (a.buf.data() != nullptr) r.raw(a.buf.data(), bytes);
      a.declared = true;
    }
    r.vec_pod(&timer_start_);
    r.vec_pod(&timer_open_);
    r.vec_pod(pos);
  }

  /// Payload-free arrays are a ledger charge only; the plan guarantees no
  /// statement that reads or writes bytes names one.
  TrackedBuffer::Storage storage(int id) const {
    return plan_.payload_free(id) ? TrackedBuffer::Storage::kLedgerOnly
                                  : TrackedBuffer::Storage::kAllocated;
  }

  /// Resolves (array, offset_elems, count_elems) to a raw span for a
  /// communication statement, bounds-checked. Payload-free statements
  /// (dummy-buffer transfers emitted by the code generator) return null:
  /// the wire size is still exact but no bytes are staged or copied.
  std::uint8_t* comm_span(const Stmt& s, const Plan::StmtPlan& p,
                          std::size_t* bytes_out) {
    ArrayVal& a = array(p.array, s.name);
    const std::int64_t count = eval(p.e2).as_int();
    const std::int64_t offset = eval(p.e3).as_int();
    STGSIM_CHECK_GE(count, 0);
    STGSIM_CHECK_GE(offset, 0);
    STGSIM_CHECK_LE(static_cast<std::size_t>(offset + count), a.elems)
        << "communication slice out of bounds on '" << s.name << "' (offset "
        << offset << " count " << count << " elems " << a.elems << ")";
    *bytes_out = static_cast<std::size_t>(count) * a.elem_bytes;
    if (s.payload_free) return nullptr;
    return a.buf.data() + static_cast<std::size_t>(offset) * a.elem_bytes;
  }

  void exec_stmt(const Stmt& s) {
    const Plan::StmtPlan& p = plan_.at(s);
    switch (s.kind) {
      case StmtKind::kDeclScalar: {
        sym::Value v = s.has_init ? eval(p.e1) : sym::Value(0);
        if (s.scalar_is_real) v = sym::Value(v.as_real());
        define(p.slot, v);
        break;
      }
      case StmtKind::kDeclArray: {
        ArrayVal a;
        std::size_t elems = 1;
        for (const int e : p.extents) {
          const std::int64_t n = eval(e).as_int();
          STGSIM_CHECK_GE(n, 0) << "negative array extent on " << s.name;
          a.extents.push_back(n);
          elems *= static_cast<std::size_t>(n);
        }
        a.elems = elems;
        a.elem_bytes = s.elem_bytes;
        a.buf = TrackedBuffer(&comm_.process().memory(), elems * s.elem_bytes,
                              storage(p.array));
        a.declared = true;
        arrays_[static_cast<std::size_t>(p.array)] = std::move(a);
        break;
      }
      case StmtKind::kAssign:
        assign(p.slot, s.name, eval(p.e1));
        break;
      case StmtKind::kFor: {
        const std::int64_t lo = eval(p.e1).as_int();
        const std::int64_t hi = eval(p.e2).as_int();
        for (std::int64_t i = lo; i <= hi; ++i) {
          define(p.slot, sym::Value(i));
          const std::size_t pd = pos_stack_.size() - 1;
          pos_stack_[pd].loop_i = i;
          pos_stack_[pd].loop_hi = hi;
          exec_block(s.body);
        }
        break;
      }
      case StmtKind::kIf: {
        const bool taken = eval(p.e1).as_bool();
        if (options_.branches != nullptr) {
          options_.branches->record(s.id, taken);
        }
        pos_stack_[pos_stack_.size() - 1].branch = taken ? 1 : 0;
        if (taken) {
          exec_block(s.body);
        } else {
          exec_block(s.else_body);
        }
        break;
      }
      case StmtKind::kCompute:
        exec_kernel(s, p);
        break;
      case StmtKind::kSend: {
        std::size_t bytes = 0;
        const std::uint8_t* buf = comm_span(s, p, &bytes);
        const auto dst = static_cast<int>(eval(p.e1).as_int());
        const VTime t0 = comm_.now();
        comm_.send(dst, s.tag, buf, bytes);
        observe_comm(s, dst, bytes, t0);
        break;
      }
      case StmtKind::kRecv: {
        std::size_t bytes = 0;
        std::uint8_t* buf = comm_span(s, p, &bytes);
        const auto src = static_cast<int>(eval(p.e1).as_int());
        const VTime t0 = comm_.now();
        comm_.recv(src, s.tag, buf, bytes);
        observe_comm(s, src, bytes, t0);
        break;
      }
      case StmtKind::kIsend: {
        std::size_t bytes = 0;
        const std::uint8_t* buf = comm_span(s, p, &bytes);
        const auto dst = static_cast<int>(eval(p.e1).as_int());
        const VTime t0 = comm_.now();
        requests_[static_cast<std::size_t>(p.requests)].push_back(
            comm_.isend(dst, s.tag, buf, bytes));
        ++pending_requests_;
        observe_comm(s, dst, bytes, t0);
        break;
      }
      case StmtKind::kIrecv: {
        std::size_t bytes = 0;
        std::uint8_t* buf = comm_span(s, p, &bytes);
        const auto src = static_cast<int>(eval(p.e1).as_int());
        const VTime t0 = comm_.now();
        requests_[static_cast<std::size_t>(p.requests)].push_back(
            comm_.irecv(src, s.tag, buf, bytes));
        ++pending_requests_;
        observe_comm(s, src, bytes, t0);
        break;
      }
      case StmtKind::kWaitall: {
        auto& rs = requests_[static_cast<std::size_t>(p.requests)];
        comm_.waitall(rs);
        pending_requests_ -= rs.size();
        rs.clear();
        break;
      }
      case StmtKind::kBarrier: {
        const VTime t0 = comm_.now();
        comm_.barrier();
        observe_comm(s, -1, 0, t0);
        break;
      }
      case StmtKind::kBcast: {
        std::size_t bytes = 0;
        std::uint8_t* buf = comm_span(s, p, &bytes);
        const auto root = static_cast<int>(eval(p.e1).as_int());
        const VTime t0 = comm_.now();
        comm_.bcast(buf, bytes, root);
        observe_comm(s, root, bytes, t0);
        break;
      }
      case StmtKind::kAllreduceSum: {
        double v = scalar(p.slot, s.name).as_real();
        const VTime t0 = comm_.now();
        comm_.allreduce_sum(&v, 1);
        assign(p.slot, s.name, sym::Value(v));
        observe_comm(s, -1, sizeof(double), t0);
        break;
      }
      case StmtKind::kAllreduceMax: {
        double v = scalar(p.slot, s.name).as_real();
        const VTime t0 = comm_.now();
        comm_.allreduce_max(&v, 1);
        assign(p.slot, s.name, sym::Value(v));
        observe_comm(s, -1, sizeof(double), t0);
        break;
      }
      case StmtKind::kGetRank:
        define(p.slot, sym::Value(std::int64_t{comm_.rank()}));
        break;
      case StmtKind::kGetSize:
        define(p.slot, sym::Value(std::int64_t{comm_.size()}));
        break;
      case StmtKind::kDelay: {
        const double sec = eval(p.e1).as_real();
        STGSIM_CHECK_GE(sec, -1e-12)
            << "negative delay from scaling function: " << s.e1.to_string();
        comm_.delay_seconds(std::max(sec, 0.0));
        break;
      }
      case StmtKind::kReadParam:
        define(p.slot, sym::Value(comm_.read_param(s.aux_name)));
        break;
      case StmtKind::kTimerStart: {
        const auto t = static_cast<std::size_t>(p.timer);
        timer_start_[t] = comm_.now();
        timer_open_[t] = 1;
        break;
      }
      case StmtKind::kTimerStop: {
        const auto t = static_cast<std::size_t>(p.timer);
        STGSIM_CHECK(timer_open_[t] != 0)
            << "timer_stop without timer_start for task " << s.name;
        const VTime dt = comm_.now() - timer_start_[t];
        timer_open_[t] = 0;
        if (options_.timers != nullptr) {
          options_.timers->add(s.name, vtime_to_sec(dt),
                               eval(p.e1).as_real());
        }
        break;
      }
      case StmtKind::kCall:
        exec_block(callee(s).body);
        break;
    }
  }

  void observe_comm(const Stmt& s, int peer, std::size_t bytes, VTime t0) {
    if (options_.observer != nullptr) {
      options_.observer->on_comm(comm_.rank(), s, peer, bytes, t0,
                                 comm_.now());
    }
  }

  void exec_kernel(const Stmt& stmt, const Plan::StmtPlan& p) {
    const KernelSpec& k = stmt.kernel;
    const VTime t_begin = comm_.now();
    const std::int64_t iters = eval(p.e1).as_int();
    STGSIM_CHECK_GE(iters, 0) << "negative iteration count for " << k.task;

    KernelCtx ctx(*this, k, p, iters);
    if (k.body) k.body(ctx);

    double fraction = 0.0;
    if (k.branch_fraction) fraction = k.branch_fraction(ctx);
    STGSIM_DCHECK(fraction >= 0.0 && fraction <= 1.0);

    // Working set: every declared array the task touches, per the
    // declared sets (reads, then writes).
    double ws_bytes = 0.0;
    for (const int id : p.working_set) {
      const ArrayVal& a = arrays_[static_cast<std::size_t>(id)];
      if (a.declared) {
        ws_bytes += static_cast<double>(a.elems * a.elem_bytes);
      }
    }

    const double flops_eff =
        k.flops_per_iter + fraction * k.extra_flops_per_iter;
    if (options_.kernel_meta != nullptr) {
      options_.kernel_meta->add(k.task, static_cast<double>(iters), flops_eff,
                                ws_bytes);
    }

    const auto& params = comm_.world().options().compute;
    const VTime cost =
        machine::kernel_cost(params, static_cast<double>(iters), flops_eff,
                             ws_bytes, &comm_.process().rng());
    comm_.compute(cost);
    if (options_.observer != nullptr) {
      options_.observer->on_compute(comm_.rank(), stmt, t_begin, comm_.now());
    }
  }

  /// Cached value of one tape operand (see eval).
  struct MemoCell {
    sym::Value value;
    bool valid = false;
  };

  const Plan& plan_;
  smpi::Comm& comm_;
  ExecOptions options_;

  // Scalar frame, indexed by plan slot.
  std::vector<sym::Value> frame_;
  std::vector<std::uint8_t> frame_defined_;
  std::vector<std::uint64_t> frame_gen_;  ///< write generation per slot

  std::vector<MemoCell> memo_;          ///< per Plan::Operand::memo
  std::vector<std::uint64_t> stamps_;   ///< per Plan::Operand::stamp + i

  std::vector<ArrayVal> arrays_;                       ///< per array id
  std::vector<std::vector<smpi::Request>> requests_;   ///< per list id
  std::vector<VTime> timer_start_;                     ///< per timer id
  std::vector<std::uint8_t> timer_open_;               ///< per timer id

  /// Live position in the statement tree (see PosFrame); one frame per
  /// open block. Serialized into checkpoints.
  std::vector<PosFrame> pos_stack_;
  /// Outstanding isend/irecv handles across statements; checkpoints are
  /// only taken while this is zero.
  std::size_t pending_requests_ = 0;
  /// Size of the last checkpoint blob, used to pre-reserve the next one.
  std::size_t last_blob_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// KernelCtx
// ---------------------------------------------------------------------------

KernelCtx::KernelCtx(ExecState& state, const KernelSpec& spec,
                     const Plan::StmtPlan& plan, std::int64_t iters)
    : state_(state), spec_(spec), plan_(plan), iters_(iters) {}

int KernelCtx::rank() const { return state_.comm().rank(); }
int KernelCtx::world_size() const { return state_.comm().size(); }

const Plan::KernelName& KernelCtx::declared(const std::string& name,
                                            bool write) const {
  // Reading a variable you may write is fine (read-modify-write tasks).
  const auto it = std::find_if(
      plan_.names.begin(), plan_.names.end(),
      [&](const Plan::KernelName& n) {
        return n.name == name && (n.writable || !write);
      });
  STGSIM_CHECK(it != plan_.names.end())
      << "kernel " << spec_.task << " accesses '" << name
      << "' outside its declared " << (write ? "write" : "read") << " set";
  return *it;
}

int KernelCtx::array_id(const std::string& name) const {
  for (const Plan::KernelName& n : plan_.names) {
    if (n.name == name) return n.array;
  }
  return state_.plan().array_id(name);
}

double* KernelCtx::array(const std::string& name) {
  // Conservative: grant pointer if the name is in either set; writes
  // through a read-only pointer are the kernel author's bug.
  ArrayVal& a = state_.array(declared(name, /*write=*/false).array, name);
  STGSIM_CHECK_EQ(a.elem_bytes, sizeof(double))
      << "kernel array access requires double elements";
  return a.buf.as_doubles();
}

std::size_t KernelCtx::array_elems(const std::string& name) const {
  return state_.array(array_id(name), name).elems;
}

std::int64_t KernelCtx::array_extent(const std::string& name,
                                     std::size_t dim) const {
  const ArrayVal& a = state_.array(array_id(name), name);
  STGSIM_CHECK_LT(dim, a.extents.size());
  return a.extents[dim];
}

sym::Value KernelCtx::scalar(const std::string& name) const {
  return state_.scalar(declared(name, /*write=*/false).slot, name);
}

void KernelCtx::set_scalar(const std::string& name, sym::Value v) {
  state_.assign(declared(name, /*write=*/true).slot, name, v);
}

Rng& KernelCtx::rng() { return state_.comm().process().rng(); }

// ---------------------------------------------------------------------------

void execute(const Plan& plan, smpi::Comm& comm, const ExecOptions& options) {
  ExecState state(plan, comm, options);
  state.run();
}

}  // namespace stgsim::ir
