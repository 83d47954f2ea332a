// IR interpreter — the direct-execution side of MPI-Sim.
//
// Executes an IR program for one rank on top of smpi::Comm: scalar code and
// control flow are interpreted, compute kernels run their native bodies on
// real (tracked) arrays, and every kernel invocation charges the machine
// model's cost for its *actual* iteration count — that is "direct
// execution" in the paper's sense. The same interpreter also runs
// compiler-simplified programs, whose kernels have been replaced by
// delay() statements, and timer-instrumented programs, which feed a
// TimerRecorder with the w_i measurements (Figure 2).
//
// What depends only on the program text (slot layout, compiled operand
// tapes, dense name ids) is resolved once per run in an ir::Plan that every
// rank shares read-only; a rank's interpreter state holds only values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "smpi/smpi.hpp"
#include "support/memtrack.hpp"

namespace stgsim::ir {

/// Accumulates task-time measurements from timer-instrumented runs.
/// w_<task> = total measured seconds / total iterations (paper §3.3).
class TimerRecorder {
 public:
  void add(const std::string& task, double seconds, double iters);

  struct Record {
    double seconds = 0.0;
    double iters = 0.0;
  };
  const std::map<std::string, Record>& records() const { return records_; }

  /// Parameter table for World::set_param: {"w_<task>" -> sec/iter}.
  std::map<std::string, double> to_params() const;

 private:
  std::map<std::string, Record> records_;
};

/// Records branch outcomes per kIf statement, feeding the profiled branch
/// probabilities the code generator can fold eliminated branches with
/// ("we can use profiling to estimate the branching probabilities of
/// eliminated branches", §3.1).
class BranchProfiler {
 public:
  void record(int stmt_id, bool taken) {
    auto& c = counts_[stmt_id];
    ++c.first;
    if (taken) ++c.second;
  }

  /// {stmt id -> taken fraction} for every branch seen at least once.
  std::map<int, double> probabilities() const {
    std::map<int, double> out;
    for (const auto& [id, c] : counts_) {
      out[id] = static_cast<double>(c.second) / static_cast<double>(c.first);
    }
    return out;
  }

 private:
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> counts_;
};

/// Records what the machine model was fed for each task — its effective
/// operation weight (including the observed data-dependent branch
/// fraction) and working set. This is the information a compiler-side
/// analytical task-time estimator works from (paper §3.3, alternative (a)
/// to direct measurement).
class KernelMetaRecorder {
 public:
  struct Meta {
    double iters = 0.0;
    double flops_weighted = 0.0;  ///< sum over calls of iters * flops_eff
    double ws_bytes_max = 0.0;
  };

  void add(const std::string& task, double iters, double flops_eff,
           double ws_bytes) {
    auto& m = records_[task];
    m.iters += iters;
    m.flops_weighted += iters * flops_eff;
    m.ws_bytes_max = std::max(m.ws_bytes_max, ws_bytes);
  }

  const std::map<std::string, Meta>& records() const { return records_; }

 private:
  std::map<std::string, Meta> records_;
};

/// Callback interface for observing executed statements with their
/// evaluated operands — the raw material for dynamic task graphs
/// (core::DtgRecorder) or custom tracing.
class StmtObserver {
 public:
  virtual ~StmtObserver() = default;

  virtual void on_compute(int rank, const Stmt& stmt, VTime start,
                          VTime end) = 0;

  /// peer: evaluated partner rank (root for collectives, -1 if n/a);
  /// bytes: evaluated wire size.
  virtual void on_comm(int rank, const Stmt& stmt, int peer,
                       std::size_t bytes, VTime start, VTime end) = 0;
};

struct ExecOptions {
  /// When set, kTimerStart/kTimerStop feed this recorder. Shared across
  /// ranks; only valid with the sequential scheduler.
  TimerRecorder* timers = nullptr;

  /// When set, compute and communication statements are reported with
  /// their evaluated operands (sequential scheduler only).
  StmtObserver* observer = nullptr;

  /// When set, every kIf outcome is recorded (sequential scheduler only).
  BranchProfiler* branches = nullptr;

  /// When set, every executed kernel reports its model inputs (sequential
  /// scheduler only).
  KernelMetaRecorder* kernel_meta = nullptr;
};

class ExecState;

/// What a kernel's native body may touch: its declared arrays and scalars
/// plus the evaluated iteration count. Access outside the declared
/// read/write sets is a programming error the tests assert on.
class KernelCtx {
 public:
  KernelCtx(ExecState& state, const KernelSpec& spec,
            const Plan::StmtPlan& plan, std::int64_t iters);

  int rank() const;
  int world_size() const;
  std::int64_t iters() const { return iters_; }

  /// Array payload as doubles (all app arrays are doubles).
  double* array(const std::string& name);
  std::size_t array_elems(const std::string& name) const;
  std::int64_t array_extent(const std::string& name, std::size_t dim) const;

  sym::Value scalar(const std::string& name) const;
  void set_scalar(const std::string& name, sym::Value v);

  Rng& rng();

 private:
  /// The declared name `name` (write access needs the write set); any
  /// other name is an access violation.
  const Plan::KernelName& declared(const std::string& name, bool write) const;
  /// Array id of `name`, declared or not (-1 if the program has none).
  int array_id(const std::string& name) const;

  ExecState& state_;
  const KernelSpec& spec_;
  const Plan::StmtPlan& plan_;
  std::int64_t iters_;
};

/// Runs the plan's program for the rank bound to `comm`; returns when main
/// completes. Build one Plan per run and share it across every rank.
void execute(const Plan& plan, smpi::Comm& comm,
             const ExecOptions& options = {});

}  // namespace stgsim::ir
