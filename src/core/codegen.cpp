#include "core/codegen.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace stgsim::core {

namespace {

using ir::Stmt;
using ir::StmtKind;
using ir::StmtP;
using sym::Expr;

bool is_zero(const Expr& e) {
  auto c = e.simplified().constant_value();
  return c.has_value() && c->as_real() == 0.0;
}

bool is_comm_with_buffer(StmtKind k) {
  switch (k) {
    case StmtKind::kSend:
    case StmtKind::kRecv:
    case StmtKind::kIsend:
    case StmtKind::kIrecv:
    case StmtKind::kBcast:
      return true;
    default:
      return false;
  }
}

struct Cost {
  Expr seconds = Expr::integer(0);
  std::vector<std::string> tasks;
};

class Simplifier {
 public:
  Simplifier(const ir::Program& src, const SliceResult& slice,
             const CodegenOptions& options)
      : src_(src), slice_(slice), opt_(options),
        out_(src.name() + ".simplified") {
    ir::for_each_stmt(src_, [&](const Stmt& s) {
      if (s.kind == StmtKind::kDeclArray) {
        array_elem_bytes_[s.name] = s.elem_bytes;
      }
    });
  }

  SimplifyResult run() {
    for (const auto& p : src_.procedures()) {
      ir::Procedure& op = out_.add_procedure(p.name);
      simplify_block(p.body, op.body);
    }
    std::vector<StmtP> body;
    simplify_block(src_.main(), body);

    insert_dummy_decl(&body);

    // Prologue: one read_and_broadcast per task-time parameter (Fig. 1c).
    std::vector<StmtP> prologue;
    for (const auto& p : params_) {
      StmtP s = out_.make_stmt(StmtKind::kReadParam);
      s->name = p;
      s->aux_name = p;
      prologue.push_back(std::move(s));
    }
    auto& main = out_.main();
    for (auto& s : prologue) main.push_back(std::move(s));
    for (auto& s : body) main.push_back(std::move(s));

    out_.validate();

    return SimplifyResult{std::move(out_), std::move(condensed_),
                          std::move(params_), dummy_comms_};
  }

 private:
  void simplify_block(const std::vector<StmtP>& in, std::vector<StmtP>& out) {
    Cost pending;
    auto flush = [&] {
      if (is_zero(pending.seconds)) {
        pending = Cost{};
        return;
      }
      StmtP d = out_.make_stmt(StmtKind::kDelay);
      d->e1 = pending.seconds.simplified();
      CondensedTask ct;
      ct.delay_stmt_id = d->id;
      ct.seconds = d->e1;
      ct.tasks = pending.tasks;
      condensed_.push_back(std::move(ct));
      out.push_back(std::move(d));
      pending = Cost{};
    };

    for (const auto& s : in) {
      if (slice_.is_retained(*s)) {
        flush();
        out.push_back(transform(*s));
      } else {
        Cost c = cost_of(*s);
        if (!is_zero(c.seconds)) {
          pending.seconds = pending.seconds + c.seconds;
          pending.tasks.insert(pending.tasks.end(), c.tasks.begin(),
                               c.tasks.end());
        }
      }
    }
    flush();
  }

  StmtP transform(const Stmt& s) {
    StmtP t = out_.make_stmt(s.kind);
    t->name = s.name;
    t->aux_name = s.aux_name;
    t->scalar_is_real = s.scalar_is_real;
    t->has_init = s.has_init;
    t->elem_bytes = s.elem_bytes;
    t->tag = s.tag;
    t->e1 = s.e1;
    t->e2 = s.e2;
    t->e3 = s.e3;
    t->extents = s.extents;
    t->kernel = s.kernel;

    if (is_comm_with_buffer(s.kind) && !slice_.array_is_live(s.name)) {
      // Redirect to the shared dummy buffer: same wire size (in bytes),
      // offset zero — message contents are not part of the prediction.
      auto it = array_elem_bytes_.find(s.name);
      STGSIM_CHECK(it != array_elem_bytes_.end())
          << "communication on undeclared array " << s.name;
      const Expr bytes =
          (s.e2 * Expr::integer(static_cast<std::int64_t>(it->second)))
              .simplified();
      t->name = opt_.dummy_buffer_name;
      t->e2 = bytes;
      t->e3 = Expr::integer(0);
      t->payload_free = true;
      dummy_sizes_.push_back(bytes);
      ++dummy_comms_;
    }

    simplify_block(s.body, t->body);
    simplify_block(s.else_body, t->else_body);
    return t;
  }

  Cost cost_of(const Stmt& s) {
    Cost c;
    switch (s.kind) {
      case StmtKind::kCompute: {
        const std::string param = "w_" + s.kernel.task;
        params_.insert(param);
        c.seconds = s.kernel.iters * Expr::var(param);
        c.tasks.push_back(s.kernel.task);
        break;
      }
      case StmtKind::kFor: {
        Cost body = block_cost(s.body);
        if (is_zero(body.seconds)) break;
        c.tasks = std::move(body.tasks);
        if (opt_.use_closed_form_sums) {
          if (auto closed = sym::closed_form_sum(s.name, s.e1, s.e2,
                                                 body.seconds.simplified())) {
            c.seconds = *closed;
            break;
          }
        }
        // Executable symbolic sum, evaluated at run time — the paper's
        // fallback when forward substitution is infeasible (NAS SP).
        c.seconds = sym::sum(s.name, s.e1, s.e2, body.seconds.simplified());
        break;
      }
      case StmtKind::kIf: {
        Cost then_c = block_cost(s.body);
        Cost else_c = block_cost(s.else_body);
        if (is_zero(then_c.seconds) && is_zero(else_c.seconds)) break;
        const double p = branch_prob(s.id);
        c.seconds = Expr::real(p) * then_c.seconds +
                    Expr::real(1.0 - p) * else_c.seconds;
        c.tasks = std::move(then_c.tasks);
        c.tasks.insert(c.tasks.end(), else_c.tasks.begin(),
                       else_c.tasks.end());
        break;
      }
      case StmtKind::kCall: {
        const ir::Procedure* p = src_.find_procedure(s.name);
        STGSIM_CHECK(p != nullptr);
        c = block_cost(p->body);
        break;
      }
      default:
        break;  // scalar statements cost nothing (paper ignores them too)
    }
    return c;
  }

  Cost block_cost(const std::vector<StmtP>& block) {
    Cost total;
    for (const auto& s : block) {
      STGSIM_CHECK(!slice_.is_retained(*s))
          << "retained statement inside an eliminated region (stmt id "
          << s->id << ")";
      Cost c = cost_of(*s);
      if (!is_zero(c.seconds)) {
        total.seconds = total.seconds + c.seconds;
        total.tasks.insert(total.tasks.end(), c.tasks.begin(), c.tasks.end());
      }
    }
    return total;
  }

  double branch_prob(int stmt_id) const {
    auto it = opt_.branch_probs.find(stmt_id);
    return it == opt_.branch_probs.end() ? opt_.default_branch_prob
                                         : it->second;
  }

  void insert_dummy_decl(std::vector<StmtP>* body) {
    if (dummy_sizes_.empty()) return;

    Expr size = dummy_sizes_.front();
    for (std::size_t i = 1; i < dummy_sizes_.size(); ++i) {
      size = sym::max(size, dummy_sizes_[i]);
    }
    size = size.simplified();

    // Earliest position where every variable of the size expression is
    // defined (§3.1: allocate once the required message sizes are known).
    std::set<std::string> needed = size.free_vars();
    std::set<std::string> defined;
    std::size_t insert_at = body->size() + 1;
    auto covered = [&] {
      return std::all_of(needed.begin(), needed.end(), [&](const auto& v) {
        return defined.contains(v);
      });
    };
    for (std::size_t i = 0; i <= body->size(); ++i) {
      if (covered()) {
        insert_at = i;
        break;
      }
      if (i == body->size()) break;
      const Stmt& s = *(*body)[i];
      for (const auto& d : ir::stmt_effects(s).defs) defined.insert(d);
      ir::for_each_stmt(s.body, [&](const Stmt& inner) {
        for (const auto& d : ir::stmt_effects(inner).defs) defined.insert(d);
      });
      ir::for_each_stmt(s.else_body, [&](const Stmt& inner) {
        for (const auto& d : ir::stmt_effects(inner).defs) defined.insert(d);
      });
    }
    // Static allocation is only legal if the insertion point exists and
    // precedes the first dummy-buffer communication; otherwise fall back
    // to dynamic per-use allocation ("statically or dynamically,
    // potentially multiple times", §3.1).
    bool static_ok = insert_at <= body->size();
    for (std::size_t i = 0; static_ok && i < insert_at; ++i) {
      bool uses_dummy = false;
      auto check = [&](const Stmt& inner) {
        uses_dummy = uses_dummy || inner.name == opt_.dummy_buffer_name;
      };
      check(*(*body)[i]);
      ir::for_each_stmt((*body)[i]->body, check);
      ir::for_each_stmt((*body)[i]->else_body, check);
      static_ok = !uses_dummy;
    }

    if (static_ok) {
      StmtP d = out_.make_stmt(StmtKind::kDeclArray);
      d->name = opt_.dummy_buffer_name;
      d->extents = {size};
      d->elem_bytes = 1;
      d->payload_free = true;
      body->insert(body->begin() + static_cast<std::ptrdiff_t>(insert_at),
                   std::move(d));
    } else {
      insert_dynamic_dummy_decls(body);
      for (auto& p : out_.procedures()) insert_dynamic_dummy_decls(&p.body);
    }
  }

  /// Re-declares the dummy buffer immediately before every communication
  /// that uses it, sized for that message (each declaration releases the
  /// previous buffer, so at most one is live).
  void insert_dynamic_dummy_decls(std::vector<StmtP>* block) {
    std::vector<StmtP> out;
    out.reserve(block->size());
    for (auto& s : *block) {
      insert_dynamic_dummy_decls(&s->body);
      insert_dynamic_dummy_decls(&s->else_body);
      if (is_comm_with_buffer(s->kind) &&
          s->name == opt_.dummy_buffer_name) {
        StmtP d = out_.make_stmt(StmtKind::kDeclArray);
        d->name = opt_.dummy_buffer_name;
        d->extents = {s->e2};  // already a byte count on the dummy
        d->elem_bytes = 1;
        d->payload_free = true;
        out.push_back(std::move(d));
      }
      out.push_back(std::move(s));
    }
    *block = std::move(out);
  }

  const ir::Program& src_;
  const SliceResult& slice_;
  CodegenOptions opt_;
  ir::Program out_;

  std::map<std::string, std::size_t> array_elem_bytes_;
  std::set<std::string> params_;
  std::vector<CondensedTask> condensed_;
  std::vector<Expr> dummy_sizes_;
  std::size_t dummy_comms_ = 0;
};

void instrument_block(ir::Program& prog, std::vector<StmtP>& block) {
  std::vector<StmtP> out;
  out.reserve(block.size());
  for (auto& s : block) {
    if (s->kind == StmtKind::kCompute) {
      StmtP start = prog.make_stmt(StmtKind::kTimerStart);
      start->name = s->kernel.task;
      StmtP stop = prog.make_stmt(StmtKind::kTimerStop);
      stop->name = s->kernel.task;
      stop->e1 = s->kernel.iters;
      out.push_back(std::move(start));
      out.push_back(std::move(s));
      out.push_back(std::move(stop));
    } else {
      instrument_block(prog, s->body);
      instrument_block(prog, s->else_body);
      out.push_back(std::move(s));
    }
  }
  block = std::move(out);
}

}  // namespace

SimplifyResult generate_simplified(const ir::Program& prog,
                                   const SliceResult& slice,
                                   const CodegenOptions& options) {
  return Simplifier(prog, slice, options).run();
}

ir::Program generate_timer_program(const ir::Program& prog) {
  ir::Program out = prog.clone();
  instrument_block(out, out.main());
  for (auto& p : out.procedures()) instrument_block(out, p.body);
  return out;
}

}  // namespace stgsim::core
