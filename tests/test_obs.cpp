// Observability-layer tests: the Recorder must (a) never perturb
// simulated results — digests with and without it are bit-identical under
// both schedulers — and (b) agree with the independently-maintained
// RankStats on everything they both count (comm matrix row/column totals,
// protocol counters, timeline spans).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/nas_sp.hpp"
#include "apps/sample.hpp"
#include "apps/sweep3d.hpp"
#include "apps/tomcatv.hpp"
#include "harness/digest.hpp"
#include "harness/runner.hpp"
#include "obs/obs.hpp"

namespace stgsim {
namespace {

// Small configurations of all four apps (mirrors test_digest.cpp).
std::vector<std::pair<std::string, std::pair<ir::Program, int>>> all_apps() {
  std::vector<std::pair<std::string, std::pair<ir::Program, int>>> out;
  {
    apps::TomcatvConfig c;
    c.n = 128;
    c.iterations = 2;
    out.emplace_back("tomcatv", std::pair{apps::make_tomcatv(c), 8});
  }
  {
    apps::Sweep3DConfig c;
    c.it = 2;
    c.jt = 2;
    c.kt = 12;
    c.kb = 4;
    c.mm = 2;
    c.mmi = 1;
    c.npe_i = 2;
    c.npe_j = 2;
    out.emplace_back("sweep3d", std::pair{apps::make_sweep3d(c), 4});
  }
  {
    apps::NasSpConfig c = apps::sp_class('A', 2, 2);
    out.emplace_back("nas_sp", std::pair{apps::make_nas_sp(c), 4});
  }
  {
    apps::SampleConfig c;
    c.iterations = 5;
    c.msg_doubles = 256;
    c.work_iters = 1000;
    out.emplace_back("sample", std::pair{apps::make_sample(c), 8});
  }
  return out;
}

harness::RunOutcome run_with(const ir::Program& prog, int nprocs, int threads,
                             obs::Recorder* rec) {
  harness::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.mode = harness::Mode::kDirectExec;
  cfg.threads = threads;
  cfg.obs = rec;
  harness::RunOutcome out = harness::run_program(prog, cfg);
  EXPECT_TRUE(out.ok()) << out.diagnostic;
  return out;
}

// Comm-matrix totals vs the independently-counted RankStats, all four
// apps: row sums of p2p messages are that rank's sends, column sums its
// receives, and row bytes (p2p + collective-internal) are bytes_sent —
// the matrix increments at exactly the accounting sites that feed stats.
TEST(Obs, CommMatrixAgreesWithRankStats) {
  for (const auto& [name, app] : all_apps()) {
    const auto& [prog, nprocs] = app;
    obs::Options oopts;
    oopts.comm_matrix = true;
    obs::Recorder rec(oopts, nprocs);
    harness::RunOutcome out = run_with(prog, nprocs, 0, &rec);
    obs::MetricsSnapshot s = rec.snapshot();
    ASSERT_EQ(s.nranks, nprocs) << name;
    const auto n = static_cast<std::size_t>(nprocs);
    ASSERT_EQ(s.p2p_messages.size(), n * n) << name;
    std::uint64_t total_msgs = 0;
    for (std::size_t r = 0; r < n; ++r) {
      std::uint64_t row_msgs = 0, col_msgs = 0, row_bytes = 0;
      for (std::size_t c = 0; c < n; ++c) {
        row_msgs += s.p2p_messages[r * n + c];
        col_msgs += s.p2p_messages[c * n + r];
        row_bytes += s.p2p_bytes[r * n + c] + s.coll_bytes[r * n + c];
      }
      const auto& st = out.per_rank_stats[r];
      EXPECT_EQ(row_msgs, st.sends) << name << " rank " << r;
      EXPECT_EQ(col_msgs, st.recvs) << name << " rank " << r;
      EXPECT_EQ(row_bytes, st.bytes_sent) << name << " rank " << r;
      total_msgs += row_msgs;
    }
    EXPECT_EQ(total_msgs, out.stats.sends) << name;
  }
}

// The load-bearing guarantee: observation never changes what is
// simulated. Full instrumentation (trace + metrics + matrix) on vs off,
// sequential and threaded, all four apps — digests bit-identical.
TEST(Obs, RecorderLeavesDigestsBitIdentical) {
  for (const auto& [name, app] : all_apps()) {
    const auto& [prog, nprocs] = app;
    for (int threads : {0, 3}) {
      harness::RunOutcome plain = run_with(prog, nprocs, threads, nullptr);
      obs::Options oopts;
      oopts.trace = true;
      oopts.comm_matrix = true;
      obs::Recorder rec(oopts, nprocs);
      harness::RunOutcome observed = run_with(prog, nprocs, threads, &rec);
      EXPECT_EQ(harness::run_digest(plain), harness::run_digest(observed))
          << name << " threads=" << threads;
    }
  }
}

// Metrics must agree with the quantities the engine and smpi already
// report through other channels.
TEST(Obs, MetricsAgreeWithEngineAndStats) {
  apps::SampleConfig c;
  c.iterations = 5;
  c.msg_doubles = 256;
  c.work_iters = 1000;
  ir::Program prog = apps::make_sample(c);
  obs::Recorder rec(obs::Options{}, 8);
  harness::RunOutcome out = run_with(prog, 8, 0, &rec);
  const obs::MetricsSnapshot& s = out.metrics;

  bool found = false;
  EXPECT_EQ(s.value("engine.slices", &found), static_cast<double>(out.slices));
  EXPECT_TRUE(found);
  EXPECT_EQ(s.value("engine.messages_sent"), static_cast<double>(out.messages));
  // Every user message went eager or rendezvous; together they are the
  // sends RankStats counted, and the size histogram holds each exactly once.
  const double eager = s.value("smpi.eager_msgs");
  const double rndv = s.value("smpi.rendezvous_msgs");
  EXPECT_EQ(eager + rndv, static_cast<double>(out.stats.sends));
  std::uint64_t hist_total = 0;
  for (std::uint64_t b : s.msg_size_hist) hist_total += b;
  EXPECT_EQ(hist_total, out.stats.sends);
  // Matching: every hit is an attempt, every block was woken exactly once.
  EXPECT_LE(s.value("smpi.comm_time_sec"), 1e9);
  EXPECT_GE(s.value("engine.match_attempts"), s.value("engine.match_hits"));
  EXPECT_EQ(s.value("engine.blocks"), s.value("engine.wakeups"));
}

// Threaded runs must populate the parallel-protocol metrics family;
// sequential runs must not emit it at all.
TEST(Obs, ParallelMetricsPopulatedInThreadedRunsOnly) {
  apps::NasSpConfig c = apps::sp_class('A', 2, 2);
  ir::Program prog = apps::make_nas_sp(c);

  obs::Recorder seq_rec(obs::Options{}, 4);
  harness::RunOutcome seq = run_with(prog, 4, 0, &seq_rec);
  bool found = false;
  seq.metrics.value("parallel.rounds", &found);
  EXPECT_FALSE(found);

  obs::Recorder par_rec(obs::Options{}, 4);
  harness::RunOutcome par = run_with(prog, 4, 2, &par_rec);
  const obs::MetricsSnapshot& s = par.metrics;
  EXPECT_EQ(s.value("parallel.workers", &found), 2.0);
  EXPECT_TRUE(found);
  EXPECT_GT(s.value("parallel.rounds"), 0.0);
  // Locality split is exhaustive: intra + mailbox + barrier = all
  // deliveries, and cross is the sum of the two cross-partition paths.
  const double intra = s.value("parallel.intra_messages");
  const double mailbox = s.value("parallel.mailbox_messages");
  const double barrier = s.value("parallel.barrier_messages");
  const double cross = s.value("parallel.cross_messages");
  EXPECT_EQ(cross, mailbox + barrier);
  EXPECT_GT(cross, 0.0);
  EXPECT_EQ(intra + cross, static_cast<double>(par.messages));
  // Per-worker slice counts, both workers.
  double slices = 0.0;
  for (int w = 0; w < 2; ++w) {
    const std::string name =
        "parallel.worker" + std::to_string(w) + ".slices";
    slices += s.value(name, &found);
    EXPECT_TRUE(found) << name;
  }
  EXPECT_EQ(slices, static_cast<double>(par.slices));
}

// Trace spans are well-formed virtual-time intervals and the writer emits
// parseable Chrome trace-event JSON structure.
TEST(Obs, ChromeTraceSpansAreWellFormed) {
  apps::SampleConfig c;
  c.iterations = 3;
  c.msg_doubles = 64;
  c.work_iters = 500;
  ir::Program prog = apps::make_sample(c);
  obs::Options oopts;
  oopts.trace = true;
  obs::Recorder rec(oopts, 4);
  harness::RunOutcome out = run_with(prog, 4, 0, &rec);

  std::uint64_t span_count = 0;
  for (int r = 0; r < 4; ++r) {
    const auto& shard = rec.shard(r);
    EXPECT_FALSE(shard.spans.empty()) << "rank " << r;
    for (const auto& sp : shard.spans) {
      EXPECT_GE(sp.begin, 0);
      EXPECT_LE(sp.begin, sp.end);
      EXPECT_LE(sp.end, out.predicted_time);
    }
    for (const auto& sp : shard.block_spans) {
      EXPECT_LE(sp.begin, sp.end);
    }
    // "trace.spans" counts everything on the timeline: op spans plus the
    // engine-level blocked intervals.
    span_count += shard.spans.size() + shard.block_spans.size();
  }
  EXPECT_EQ(out.metrics.value("trace.spans"),
            static_cast<double>(span_count));

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // duration events
  EXPECT_NE(json.find("\"cat\":\"p2p\""), std::string::npos);
  const auto last = json.find_last_not_of(" \n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
}

// The JSON writers emit their top-level keys (full parse validation — a
// json.load round-trip — runs in CI on the CLI's output files).
TEST(Obs, MetricsJsonHasExpectedShape) {
  apps::SampleConfig c;
  c.iterations = 3;
  c.msg_doubles = 64;
  c.work_iters = 500;
  ir::Program prog = apps::make_sample(c);
  obs::Options oopts;
  oopts.comm_matrix = true;
  obs::Recorder rec(oopts, 4);
  harness::RunOutcome out = run_with(prog, 4, 0, &rec);

  std::ostringstream ms;
  obs::Recorder::write_metrics_json(ms, out.metrics);
  const std::string mj = ms.str();
  EXPECT_EQ(mj.front(), '{');
  EXPECT_NE(mj.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(mj.find("\"msg_size_hist\": ["), std::string::npos);
  EXPECT_NE(mj.find("\"comm_matrix\":"), std::string::npos);

  std::ostringstream xs;
  obs::Recorder::write_comm_matrix_json(xs, out.metrics);
  const std::string xj = xs.str();
  EXPECT_EQ(xj.front(), '{');
  EXPECT_NE(xj.find("\"nranks\": 4"), std::string::npos);
  EXPECT_NE(xj.find("\"p2p_messages\": ["), std::string::npos);
  EXPECT_NE(xj.find("\"coll_bytes\": ["), std::string::npos);
}

}  // namespace
}  // namespace stgsim
