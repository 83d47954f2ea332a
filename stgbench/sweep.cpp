// The three Sweep3D workloads: one `stgsim run`-equivalent pipeline
// (build -> compile -> calibrate -> simulate -> digest), repeated until the
// run's time is spent.
//
//   sweep3d-am      AM mode, 16,384 ranks, sequential conservative driver
//   sweep3d-am-tw4  the same program on 4 workers (never more than the
//                   host's cores), comm partition, optimistic (Time Warp)
//   sweep3d-de      DE mode (full program, direct execution), 256 ranks
//
// The pipeline calls the same public functions `stgsim run` reaches through
// campaign::run_calibration / resolve_spec, minus their duplicate build and
// compile of the target, so its digest equals `stgsim run --digest`.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "core/codegen.hpp"
#include "core/compiler.hpp"
#include "core/slice.hpp"
#include "core/stg.hpp"
#include "harness/digest.hpp"
#include "harness/machines.hpp"
#include "harness/runner.hpp"
#include "obs/obs.hpp"

namespace stgbench {

namespace {

using namespace stgsim;

/// The workload seed picks one of these simulation seeds (seed % 4). The
/// simulation seed feeds the calibration run's emulated noise, so AM
/// digests depend on it. DE runs no calibration, and its result does not
/// depend on the seed.
constexpr std::uint64_t kSimSeeds[4] = {20260704, 11, 7, 1999};

/// Extra set-up samples per sweep3d-de repeat (see run_sweep3d).
constexpr int kDeSetupSamples = 15;

struct Shape {
  bool am = true;
  int nprocs = 0;
  int calib_procs = 16;
  int workers = 0;  ///< 0 = sequential driver
  bool optimistic = false;
};

Shape shape_of(const Options& opts) {
  Shape s;
  if (opts.workload == "sweep3d-de") {
    s.am = false;
    s.nprocs = 256;
    return s;
  }
  s.nprocs = 16384;
  if (opts.workload == "sweep3d-am-tw4") {
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    s.workers = std::clamp(cores, 1, 4);
    s.optimistic = true;
  }
  return s;
}

/// Pinned results per mode: the digest for each simulation seed, and the
/// exact message and fiber-slice counts. sweep3d-am-tw4 must reproduce
/// sweep3d-am's digest and message count (the scheduler bit-identity
/// contract); slices are pinned only for the conservative driver.
struct Pin {
  const char* digest[4];
  std::uint64_t messages;
  std::uint64_t slices;
};

const Pin& find_pin(const Shape& s) {
  static const Pin am = {{"c4dbc2b904494146", "e8a3513aed250db1",
                          "6fe6503f47bafa3c", "d3f325773da13128"},
                         2666492,
                         147320};
  static const Pin de = {{"f2b20811e65bdb64", "f2b20811e65bdb64",
                          "f2b20811e65bdb64", "f2b20811e65bdb64"},
                         38910,
                         2280};
  return s.am ? am : de;
}

struct Pipeline {
  harness::RunOutcome out;
  std::string digest;
  double setup_s = 0.0;
  double run_s = 0.0;
  double wall_s = 0.0;
  int span = -1;  ///< the pipeline's root span (traced runs)
};

/// One `stgsim run`-equivalent pipeline. The programs it builds are handed
/// back so a traced repeat can re-run the compiler passes one by one.
Pipeline run_pipeline(const Shape& s, std::uint64_t sim_seed, Tracer& tracer,
                      obs::Recorder* recorder, std::int64_t req,
                      std::vector<ir::Program>* programs) {
  Pipeline p;
  const std::int64_t start = now_ns();
  Tracer::Scope root(tracer, "pipeline", req);
  p.span = root.id();
  const apps::AppSpec app{"sweep3d", {}};

  harness::RunConfig cfg;
  cfg.nprocs = s.nprocs;
  cfg.machine = harness::base_machine("ibm_sp");
  cfg.seed = sim_seed;
  cfg.mode = s.am ? harness::Mode::kAnalytical : harness::Mode::kDirectExec;
  cfg.threads = s.workers;
  if (s.workers > 1) cfg.partition = simk::PartitionMode::kComm;
  if (s.optimistic) cfg.schedule = harness::Schedule::kOptimistic;
  cfg.obs = recorder;

  std::vector<ir::Program> built;
  {
    Tracer::Scope span(tracer, "apps.build");
    built.push_back(apps::build_app(app, s.nprocs));
    if (s.am) built.push_back(apps::build_app(app, s.calib_procs));
  }
  std::optional<core::CompileResult> target;
  if (s.am) {
    std::optional<core::CompileResult> calib;
    {
      Tracer::Scope span(tracer, "core.compile");
      target.emplace(core::compile(built[0]));
      calib.emplace(core::compile(built[1]));
    }
    {
      Tracer::Scope span(tracer, "harness.calibrate");
      cfg.params = harness::calibrate(calib->timer_program, s.calib_procs,
                                      cfg.machine, {}, sim_seed);
    }
    // campaign::resolve_spec's zero-fill of parameters the calibration
    // never measured.
    for (const auto& name : target->simplified.params) {
      cfg.params.emplace(name, 0.0);
    }
  }
  p.setup_s = (now_ns() - start) * 1e-9;
  {
    Tracer::Scope span(tracer, "harness.run");
    p.out = harness::run_program(s.am ? target->simplified.program : built[0],
                                 cfg);
    p.run_s = span.stop();
  }
  {
    Tracer::Scope span(tracer, "harness.digest");
    p.digest = harness::run_digest_hex(p.out);
  }
  p.wall_s = root.stop();
  if (programs != nullptr) *programs = std::move(built);
  return p;
}

/// Runs the passes core::compile chains (STG synthesis, slicing, codegen of
/// the simplified and timer programs) one at a time on `programs`, so the
/// traced run can attribute core.compile to them. Returns the root span.
int run_compiler_passes(const std::vector<ir::Program>& programs,
                         Tracer& tracer, std::int64_t req) {
  Tracer::Scope root(tracer, "core.passes", req);
  for (const ir::Program& prog : programs) {
    core::SliceResult slice;
    {
      Tracer::Scope span(tracer, "core.stg");
      (void)core::synthesize_stg(prog, "myid");
    }
    {
      Tracer::Scope span(tracer, "core.slice");
      slice = core::compute_slice(prog, {});
    }
    {
      Tracer::Scope span(tracer, "core.codegen");
      (void)core::generate_simplified(prog, slice, {});
      (void)core::generate_timer_program(prog);
    }
  }
  return root.id();
}

}  // namespace

Report run_sweep3d(const Options& opts, Tracer& tracer) {
  Report rep;
  const Shape shape = shape_of(opts);
  const int seed_index = static_cast<int>(opts.seed % 4);
  const std::uint64_t sim_seed = kSimSeeds[seed_index];
  const Pin& pin = find_pin(shape);
  rep.concurrency.set("workers", shape.workers);
  rep.concurrency.set("nprocs", shape.nprocs);
  rep.details.set("sim_seed", static_cast<std::int64_t>(sim_seed));

  // The first repeat is a warm-up: it is checked like every other but not
  // timed, since it alone pays the process's first-touch costs (heap growth,
  // page faults). After it, a traced invocation alternates traced and
  // untraced repeats so the tracing overhead is measured inside one process.
  const std::size_t min_repeats = 4;
  std::vector<double> setup, wall, eps, engine_s, traced_wall, untraced_wall;
  std::map<std::string, std::vector<double>> layer;  // traced repeats
  std::string first_digest;
  const std::int64_t start = now_ns();
  for (std::int64_t i = 0;; ++i) {
    const bool warmup = i == 0;
    const bool traced = opts.trace && i % 2 == 1;
    std::unique_ptr<obs::Recorder> recorder;
    if (traced) {
      recorder = std::make_unique<obs::Recorder>(
          obs::Options{/*trace=*/false, /*metrics=*/true,
                       /*comm_matrix=*/false},
          shape.nprocs);
    }
    std::vector<ir::Program> programs;
    const Pipeline p = run_pipeline(shape, sim_seed, tracer, recorder.get(),
                                    i, traced ? &programs : nullptr);
    ++rep.attempted;
    const harness::RunOutcome& out = p.out;
    if (!out.ok()) {
      ++rep.failed;
      rep.problems.push_back(std::string("run ended ") +
                             harness::run_status_name(out.status) + ": " +
                             out.diagnostic);
    }
    if (first_digest.empty()) first_digest = p.digest;
    rep.check(p.digest == first_digest,
              "digest changed between repeats: " + first_digest + " vs " +
                  p.digest);
    rep.check(p.digest == pin.digest[seed_index],
              "digest " + p.digest + " != pinned " + pin.digest[seed_index]);
    rep.check(out.messages == pin.messages,
              "messages " + std::to_string(out.messages) + " != pinned " +
                  std::to_string(pin.messages));
    rep.check(shape.optimistic || out.slices == pin.slices,
              "slices " + std::to_string(out.slices) + " != pinned " +
                  std::to_string(pin.slices));
    if (!warmup) {
      setup.push_back(p.setup_s);
      wall.push_back(p.wall_s);
      engine_s.push_back(out.sim_host_seconds);
      eps.push_back(static_cast<double>(out.messages + out.slices) / p.run_s);
      (traced ? traced_wall : untraced_wall).push_back(p.wall_s);
    }
    // DE's set-up is one app build of about 0.1 ms, too short for a median
    // over a handful of repeats to be steady, so each repeat times more.
    if (!warmup && !shape.am) {
      for (int k = 0; k < kDeSetupSamples; ++k) {
        const std::int64_t t0 = now_ns();
        (void)apps::build_app(apps::AppSpec{"sweep3d", {}}, shape.nprocs);
        setup.push_back((now_ns() - t0) * 1e-9);
      }
    }

    if (traced) {
      std::map<std::string, double> t = tracer.totals_under(p.span);
      if (shape.am) {
        const int passes = run_compiler_passes(programs, tracer, i);
        for (const auto& [name, sec] : tracer.totals_under(passes)) {
          t[name] += sec;
        }
      }
      const double self = tracer.self_seconds(p.span);
      layer["apps.build_s"].push_back(t["apps.build"]);
      layer["core.stg_s"].push_back(t["core.stg"]);
      layer["core.slice_s"].push_back(t["core.slice"]);
      layer["core.codegen_s"].push_back(t["core.codegen"]);
      layer["core.compile_s"].push_back(t["core.compile"]);
      layer["harness.calibrate_s"].push_back(t["harness.calibrate"]);
      layer["harness.run_s"].push_back(t["harness.run"]);
      layer["harness.digest_s"].push_back(t["harness.digest"]);
      layer["harness.other_s"].push_back(self);
      // Attribution: the named setup, run and digest spans must cover at
      // least 90% of the pipeline's wall time.
      const double covered = p.wall_s - self;
      rep.check(covered >= 0.9 * p.wall_s,
                "attribution: named spans cover only " +
                    std::to_string(covered / p.wall_s * 100) +
                    "% of wall_s");

      const obs::MetricsSnapshot& m = out.metrics;
      const simk::ParallelStats& ps = out.parallel;
      const double msgs = static_cast<double>(out.messages);
      const double slices = static_cast<double>(out.slices);
      const std::map<std::string, double> counts = {
          {"harness.peak_target_mb", out.peak_target_bytes / 1048576.0},
          {"sim.messages", msgs},
          {"sim.slices", slices},
          {"sim.msgs_per_slice", slices > 0 ? msgs / slices : 0.0},
          {"sim.ns_per_event", p.run_s * 1e9 / std::max(1.0, msgs + slices)},
          {"sim.match_probes_per_hit",
           m.value("engine.match_probes") /
               std::max(1.0, m.value("engine.match_hits"))},
          {"sim.wakeups", m.value("engine.wakeups")},
          {"sim.blocks", m.value("engine.blocks")},
          {"sim.msg_arena_capacity", m.value("pool.msg_arena_capacity")},
          {"sim.payload_retained_bytes",
           m.value("pool.payload_retained_bytes")},
          {"sim.rounds", static_cast<double>(ps.rounds)},
          {"sim.intra_messages", static_cast<double>(ps.intra_messages)},
          {"sim.mailbox_messages", static_cast<double>(ps.mailbox_messages)},
          {"sim.barrier_messages", static_cast<double>(ps.barrier_messages)},
          {"sim.cross_messages", static_cast<double>(ps.cross_messages())},
          {"sim.rollbacks", static_cast<double>(ps.rollbacks)},
          {"sim.anti_messages", static_cast<double>(ps.anti_messages)},
          {"sim.gvt_passes", static_cast<double>(ps.gvt_passes)},
          {"sim.checkpoints_taken", static_cast<double>(ps.checkpoints_taken)},
          {"sim.replayed_events", static_cast<double>(ps.replayed_events)},
          {"sim.fossil_finalized", static_cast<double>(ps.fossil_finalized)},
          {"sim.log_bytes_peak", static_cast<double>(ps.log_bytes_peak)},
          {"sim.useful_event_ratio",
           msgs / std::max(1.0, msgs + static_cast<double>(ps.replayed_events))},
          {"smpi.eager_msgs", m.value("smpi.eager_msgs")},
          {"smpi.rendezvous_msgs", m.value("smpi.rendezvous_msgs")},
          {"smpi.eager_bytes", m.value("smpi.eager_bytes")},
          {"smpi.rendezvous_bytes", m.value("smpi.rendezvous_bytes")},
      };
      for (const auto& [name, v] : counts) layer[name].push_back(v);
    }
    const double elapsed = (now_ns() - start) * 1e-9;
    if (elapsed >= opts.seconds && static_cast<std::size_t>(i + 1) >= min_repeats) {
      break;
    }
  }
  rep.details.set("digest", first_digest);
  rep.details.set("repeats", static_cast<std::int64_t>(wall.size()));
  stgsim::json::Value walls = stgsim::json::Value::array();
  for (double w : wall) walls.push_back(w);
  rep.details.set("wall_s_each", std::move(walls));
  stgsim::json::Value engine = stgsim::json::Value::array();
  for (double w : engine_s) engine.push_back(w);
  rep.details.set("sim_host_s_each", std::move(engine));

  // A sweep3d "request" is one pipeline. A run holds only a handful, too
  // few for a p99 (it would be the slowest repeat), so all three req_*
  // metrics restate the median pipeline time here; they carry information
  // of their own only on serve-mix.
  rep.metrics["setup_s"] = median(setup);
  rep.metrics["wall_s"] = median(wall);
  rep.metrics["events_per_s"] = median(eps);
  rep.metrics["peak_rss_mb"] = peak_rss_mb_self();
  rep.metrics["req_p50_ms"] = median(wall) * 1e3;
  rep.metrics["req_p99_ms"] = median(wall) * 1e3;
  rep.metrics["req_per_s"] = 1.0 / median(wall);

  if (opts.trace) {
    stgsim::json::Value spread = stgsim::json::Value::object();
    for (const auto& [name, xs] : layer) {
      rep.metrics[name] = median(xs);
      const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
      if (*lo != *hi) {
        stgsim::json::Value r = stgsim::json::Value::array();
        r.push_back(*lo);
        r.push_back(*hi);
        spread.set(name, std::move(r));
      }
    }
    rep.details.set("per_layer_min_max", std::move(spread));
    // Exact counts must repeat bit-for-bit on the conservative workloads.
    if (!shape.optimistic) {
      for (const char* name :
           {"sim.messages", "sim.slices", "smpi.eager_msgs",
            "smpi.rendezvous_msgs", "smpi.eager_bytes",
            "smpi.rendezvous_bytes"}) {
        const std::vector<double>& xs = layer[name];
        rep.check(std::all_of(xs.begin(), xs.end(),
                              [&](double x) { return x == xs.front(); }),
                  std::string("exact count ") + name +
                      " differs between repeats");
      }
    }
    // The passes core::compile chains must account for its time.
    if (shape.am) {
    const double passes = rep.metrics["core.stg_s"] +
                          rep.metrics["core.slice_s"] +
                          rep.metrics["core.codegen_s"];
    const double compile = rep.metrics["core.compile_s"];
    rep.check(std::abs(passes - compile) <= 0.25 * compile + 2e-3,
              "attribution: core passes sum to " + std::to_string(passes) +
                  " s vs core.compile_s " + std::to_string(compile) + " s");
    }
    const double base = median(untraced_wall);
    rep.metrics["obs.trace_overhead_pct"] =
        (median(traced_wall) - base) / base * 100.0;
  }
  return rep;
}

}  // namespace stgbench
