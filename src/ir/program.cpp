#include "ir/program.hpp"

#include <set>
#include <sstream>

#include "support/check.hpp"

namespace stgsim::ir {

const char* stmt_kind_name(StmtKind k) {
  switch (k) {
    case StmtKind::kDeclScalar: return "decl";
    case StmtKind::kDeclArray: return "decl_array";
    case StmtKind::kAssign: return "assign";
    case StmtKind::kFor: return "for";
    case StmtKind::kIf: return "if";
    case StmtKind::kCompute: return "compute";
    case StmtKind::kSend: return "send";
    case StmtKind::kRecv: return "recv";
    case StmtKind::kIsend: return "isend";
    case StmtKind::kIrecv: return "irecv";
    case StmtKind::kWaitall: return "waitall";
    case StmtKind::kBarrier: return "barrier";
    case StmtKind::kBcast: return "bcast";
    case StmtKind::kAllreduceSum: return "allreduce_sum";
    case StmtKind::kAllreduceMax: return "allreduce_max";
    case StmtKind::kGetRank: return "get_rank";
    case StmtKind::kGetSize: return "get_size";
    case StmtKind::kDelay: return "delay";
    case StmtKind::kReadParam: return "read_param";
    case StmtKind::kTimerStart: return "timer_start";
    case StmtKind::kTimerStop: return "timer_stop";
    case StmtKind::kCall: return "call";
  }
  return "?";
}

namespace {

void add_vars(const sym::Expr& e, std::vector<std::string>* out) {
  for (const auto& v : e.free_vars()) out->push_back(v);
}

}  // namespace

StmtEffects stmt_effects(const Stmt& s) {
  StmtEffects fx;
  switch (s.kind) {
    case StmtKind::kDeclScalar:
      fx.defs.push_back(s.name);
      if (s.has_init) add_vars(s.e1, &fx.uses);
      break;
    case StmtKind::kDeclArray:
      fx.defs.push_back(s.name);
      for (const auto& e : s.extents) add_vars(e, &fx.uses);
      break;
    case StmtKind::kAssign:
      fx.defs.push_back(s.name);
      add_vars(s.e1, &fx.uses);
      break;
    case StmtKind::kFor:
      fx.defs.push_back(s.name);
      add_vars(s.e1, &fx.uses);
      add_vars(s.e2, &fx.uses);
      break;
    case StmtKind::kIf:
      add_vars(s.e1, &fx.uses);
      break;
    case StmtKind::kCompute:
      for (const auto& w : s.kernel.writes) fx.defs.push_back(w);
      for (const auto& r : s.kernel.reads) fx.uses.push_back(r);
      add_vars(s.kernel.iters, &fx.uses);
      break;
    case StmtKind::kSend:
      fx.uses.push_back(s.name);  // payload array
      add_vars(s.e1, &fx.uses);
      add_vars(s.e2, &fx.uses);
      add_vars(s.e3, &fx.uses);
      break;
    case StmtKind::kRecv:
      fx.defs.push_back(s.name);  // destination array
      add_vars(s.e1, &fx.uses);
      add_vars(s.e2, &fx.uses);
      add_vars(s.e3, &fx.uses);
      break;
    case StmtKind::kIsend:
      fx.uses.push_back(s.name);
      fx.defs.push_back(s.aux_name);  // request list grows
      fx.uses.push_back(s.aux_name);
      add_vars(s.e1, &fx.uses);
      add_vars(s.e2, &fx.uses);
      add_vars(s.e3, &fx.uses);
      break;
    case StmtKind::kIrecv:
      fx.defs.push_back(s.name);
      fx.defs.push_back(s.aux_name);
      fx.uses.push_back(s.aux_name);
      add_vars(s.e1, &fx.uses);
      add_vars(s.e2, &fx.uses);
      add_vars(s.e3, &fx.uses);
      break;
    case StmtKind::kWaitall:
      fx.defs.push_back(s.name);  // drains the list
      fx.uses.push_back(s.name);
      break;
    case StmtKind::kBarrier:
      break;
    case StmtKind::kBcast:
      fx.defs.push_back(s.name);
      fx.uses.push_back(s.name);
      add_vars(s.e1, &fx.uses);
      add_vars(s.e2, &fx.uses);
      add_vars(s.e3, &fx.uses);
      break;
    case StmtKind::kAllreduceSum:
    case StmtKind::kAllreduceMax:
      fx.defs.push_back(s.name);
      fx.uses.push_back(s.name);
      break;
    case StmtKind::kGetRank:
    case StmtKind::kGetSize:
    case StmtKind::kReadParam:
      fx.defs.push_back(s.name);
      break;
    case StmtKind::kDelay:
      add_vars(s.e1, &fx.uses);
      break;
    case StmtKind::kTimerStart:
      break;
    case StmtKind::kTimerStop:
      add_vars(s.e1, &fx.uses);
      break;
    case StmtKind::kCall:
      break;  // callee effects are accounted by walking its body
  }
  return fx;
}

Procedure& Program::add_procedure(const std::string& name) {
  STGSIM_CHECK(find_procedure(name) == nullptr)
      << "duplicate procedure " << name;
  procs_.push_back(Procedure{name, {}});
  return procs_.back();
}

const Procedure* Program::find_procedure(const std::string& name) const {
  for (const auto& p : procs_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

StmtP Program::make_stmt(StmtKind kind) {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->id = next_id_++;
  return s;
}

namespace {

StmtP clone_stmt(const Stmt& s);

std::vector<StmtP> clone_block(const std::vector<StmtP>& block) {
  std::vector<StmtP> out;
  out.reserve(block.size());
  for (const auto& s : block) out.push_back(clone_stmt(*s));
  return out;
}

StmtP clone_stmt(const Stmt& s) {
  auto c = std::make_unique<Stmt>();
  c->kind = s.kind;
  c->id = s.id;
  c->name = s.name;
  c->aux_name = s.aux_name;
  c->scalar_is_real = s.scalar_is_real;
  c->has_init = s.has_init;
  c->payload_free = s.payload_free;
  c->elem_bytes = s.elem_bytes;
  c->tag = s.tag;
  c->e1 = s.e1;
  c->e2 = s.e2;
  c->e3 = s.e3;
  c->extents = s.extents;
  c->kernel = s.kernel;
  c->body = clone_block(s.body);
  c->else_body = clone_block(s.else_body);
  return c;
}

}  // namespace

Program Program::clone() const {
  Program out(name_);
  out.main_ = clone_block(main_);
  for (const auto& p : procs_) {
    out.procs_.push_back(Procedure{p.name, clone_block(p.body)});
  }
  out.next_id_ = next_id_;
  return out;
}

namespace {

void print_block(const std::vector<StmtP>& block, int indent,
                 std::ostringstream& os);

void print_stmt(const Stmt& s, int indent, std::ostringstream& os) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  os << pad;
  switch (s.kind) {
    case StmtKind::kDeclScalar:
      os << (s.scalar_is_real ? "real " : "int ") << s.name;
      if (s.has_init) os << " = " << s.e1.to_string();
      os << '\n';
      break;
    case StmtKind::kDeclArray: {
      os << "array<" << s.elem_bytes << "B> " << s.name << "[";
      for (std::size_t i = 0; i < s.extents.size(); ++i) {
        os << (i != 0 ? ", " : "") << s.extents[i].to_string();
      }
      os << "]\n";
      break;
    }
    case StmtKind::kAssign:
      os << s.name << " = " << s.e1.to_string() << '\n';
      break;
    case StmtKind::kFor:
      os << "for " << s.name << " = " << s.e1.to_string() << " .. "
         << s.e2.to_string() << " {\n";
      print_block(s.body, indent + 1, os);
      os << pad << "}\n";
      break;
    case StmtKind::kIf:
      os << "if " << s.e1.to_string() << " {\n";
      print_block(s.body, indent + 1, os);
      if (!s.else_body.empty()) {
        os << pad << "} else {\n";
        print_block(s.else_body, indent + 1, os);
      }
      os << pad << "}\n";
      break;
    case StmtKind::kCompute: {
      os << "compute " << s.kernel.task << " iters=("
         << s.kernel.iters.to_string() << ") flops/iter="
         << s.kernel.flops_per_iter << " reads={";
      for (std::size_t i = 0; i < s.kernel.reads.size(); ++i) {
        os << (i != 0 ? "," : "") << s.kernel.reads[i];
      }
      os << "} writes={";
      for (std::size_t i = 0; i < s.kernel.writes.size(); ++i) {
        os << (i != 0 ? "," : "") << s.kernel.writes[i];
      }
      os << "}\n";
      break;
    }
    case StmtKind::kSend:
    case StmtKind::kIsend:
      os << stmt_kind_name(s.kind) << " " << s.name << "["
         << s.e3.to_string() << " +: " << s.e2.to_string() << "] -> ("
         << s.e1.to_string() << ") tag " << s.tag;
      if (!s.aux_name.empty()) os << " req " << s.aux_name;
      os << '\n';
      break;
    case StmtKind::kRecv:
    case StmtKind::kIrecv:
      os << stmt_kind_name(s.kind) << " " << s.name << "["
         << s.e3.to_string() << " +: " << s.e2.to_string() << "] <- ("
         << s.e1.to_string() << ") tag " << s.tag;
      if (!s.aux_name.empty()) os << " req " << s.aux_name;
      os << '\n';
      break;
    case StmtKind::kWaitall:
      os << "waitall " << s.name << '\n';
      break;
    case StmtKind::kBarrier:
      os << "barrier\n";
      break;
    case StmtKind::kBcast:
      os << "bcast " << s.name << "[" << s.e3.to_string() << " +: "
         << s.e2.to_string() << "] root " << s.e1.to_string() << '\n';
      break;
    case StmtKind::kAllreduceSum:
      os << "allreduce_sum " << s.name << '\n';
      break;
    case StmtKind::kAllreduceMax:
      os << "allreduce_max " << s.name << '\n';
      break;
    case StmtKind::kGetRank:
      os << s.name << " = mpi_comm_rank()\n";
      break;
    case StmtKind::kGetSize:
      os << s.name << " = mpi_comm_size()\n";
      break;
    case StmtKind::kDelay:
      os << "delay(" << s.e1.to_string() << ")\n";
      break;
    case StmtKind::kReadParam:
      os << s.name << " = read_and_broadcast(\"" << s.aux_name << "\")\n";
      break;
    case StmtKind::kTimerStart:
      os << "timer_start " << s.name << '\n';
      break;
    case StmtKind::kTimerStop:
      os << "timer_stop " << s.name << " iters=(" << s.e1.to_string()
         << ")\n";
      break;
    case StmtKind::kCall:
      os << "call " << s.name << "()\n";
      break;
  }
}

void print_block(const std::vector<StmtP>& block, int indent,
                 std::ostringstream& os) {
  for (const auto& s : block) print_stmt(*s, indent, os);
}

}  // namespace

std::string Program::to_string() const {
  std::ostringstream os;
  os << "program " << name_ << " {\n";
  print_block(main_, 1, os);
  os << "}\n";
  for (const auto& p : procs_) {
    os << "proc " << p.name << " {\n";
    print_block(p.body, 1, os);
    os << "}\n";
  }
  return os.str();
}

void for_each_stmt(const std::vector<StmtP>& block,
                   const std::function<void(const Stmt&)>& fn) {
  for (const auto& s : block) {
    fn(*s);
    for_each_stmt(s->body, fn);
    for_each_stmt(s->else_body, fn);
  }
}

void for_each_stmt(const Program& prog,
                   const std::function<void(const Stmt&)>& fn) {
  for_each_stmt(prog.main(), fn);
  for (const auto& p : prog.procedures()) for_each_stmt(p.body, fn);
}

void Program::validate() const {
  std::set<int> ids;
  for_each_stmt(*this, [&](const Stmt& s) {
    STGSIM_CHECK(s.id >= 0) << "statement without id";
    STGSIM_CHECK(ids.insert(s.id).second) << "duplicate stmt id " << s.id;
    switch (s.kind) {
      case StmtKind::kFor:
        STGSIM_CHECK(!s.name.empty()) << "for-loop without variable";
        break;
      case StmtKind::kCompute:
        STGSIM_CHECK(!s.kernel.task.empty()) << "kernel without task name";
        break;
      case StmtKind::kCall:
        STGSIM_CHECK(find_procedure(s.name) != nullptr)
            << "call to unknown procedure " << s.name;
        break;
      default:
        break;
    }
  });
}

}  // namespace stgsim::ir
