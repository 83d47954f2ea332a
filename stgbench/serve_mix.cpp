// The serve-mix workload: one load process drives a fresh `stgsim serve`
// child over loopback TCP.
//
// Each pass spawns a daemon with an empty cache and --jobs 2, then runs a
// closed loop over 2 connections (each sends its next request when the
// previous response has been read) through a seeded sequence of requests.
// Run requests draw with Zipf popularity from a fixed pool of 32 small
// specs (all four apps, AM and DE, 4-64 ranks, square counts for nas_sp);
// 3% are campaign requests, an AM procs sweep sharing one calibration.
// First touches take the write path (calibration dedup, compile, simulate,
// ResultCache::store); repeats take the read path (cache hit or dedup
// join, ResultCache::load, JSON, HTTP).
//
// Before its own daemon, a pass also spawns kSetupProbes throwaway daemons
// and kills each once it answers: one spawn takes a few milliseconds, so
// setup_s is a median over many of them.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "campaign/cache.hpp"
#include "campaign/exec.hpp"
#include "campaign/scenario.hpp"
#include "harness/config_json.hpp"
#include "serve/http.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace stgbench {

namespace {

using namespace stgsim;
namespace fs = std::filesystem;

constexpr int kConnections = 2;
constexpr int kJobs = 2;
constexpr std::size_t kRequestsPerPass = 1500;
constexpr int kSetupProbes = 8;
constexpr double kCampaignShare = 0.03;
constexpr double kZipfExponent = 1.1;
constexpr int kVerifiedPerPass = 3;
const char kHost[] = "127.0.0.1";

struct AppShape {
  const char* app;
  std::vector<std::pair<const char*, const char*>> options;
  std::vector<int> procs;
};

const std::vector<AppShape>& app_shapes() {
  static const std::vector<AppShape> shapes = {
      {"sample", {{"iters", "4"}, {"work", "5000"}}, {4, 8, 16, 32, 64}},
      {"tomcatv", {{"n", "256"}, {"iters", "2"}}, {4, 8, 16, 32, 64}},
      {"sweep3d", {{"kt", "36"}, {"kb", "12"}}, {4, 16, 64}},
      {"nas_sp", {{"class", "A"}, {"steps", "1"}}, {4, 16, 64}},
  };
  return shapes;
}

json::Value base_doc(const AppShape& shape, const char* mode,
                     std::uint64_t sim_seed) {
  json::Value doc = json::Value::object();
  doc.set("app", shape.app);
  json::Value opts = json::Value::object();
  for (const auto& [k, v] : shape.options) opts.set(k, v);
  doc.set("options", std::move(opts));
  doc.set("mode", mode);
  doc.set("machine", "ibm_sp");
  doc.set("seed", static_cast<std::int64_t>(sim_seed));
  if (std::string(mode) == "am") doc.set("calibrate", 4);
  return doc;
}

/// The fixed pools: run specs in popularity order (a fixed shuffle, so the
/// seed changes which requests are drawn, not which specs are popular) and
/// one AM procs sweep per app.
struct Pools {
  std::vector<json::Value> runs;       ///< RunSpec documents
  std::vector<json::Value> campaigns;  ///< scenario documents
  std::vector<double> cdf;             ///< Zipf CDF over `runs`
};

Pools make_pools(std::uint64_t seed) {
  // The simulation seed is part of every spec (and so of every cache key);
  // it varies with the workload seed while the costs stay the same.
  const std::uint64_t sim_seed = 1 + seed % 997;
  Pools pools;
  for (const AppShape& shape : app_shapes()) {
    for (const char* mode : {"de", "am"}) {
      for (int p : shape.procs) {
        json::Value doc = base_doc(shape, mode, sim_seed);
        doc.set("procs", p);
        pools.runs.push_back(std::move(doc));
      }
    }
    json::Value sweep = base_doc(shape, "am", sim_seed);
    json::Value procs = json::Value::array();
    for (std::size_t i = 0; i < std::min<std::size_t>(3, shape.procs.size());
         ++i) {
      procs.push_back(shape.procs[i]);
    }
    sweep.set("procs", std::move(procs));
    json::Value sweeps = json::Value::array();
    sweeps.push_back(std::move(sweep));
    json::Value scenario = json::Value::object();
    scenario.set("name", std::string("mix-") + shape.app);
    scenario.set("sweeps", std::move(sweeps));
    pools.campaigns.push_back(std::move(scenario));
  }
  Rng shuffle(0x5eed'cafeULL);
  for (std::size_t i = pools.runs.size(); i > 1; --i) {
    std::swap(pools.runs[i - 1], pools.runs[shuffle.next_below(i)]);
  }
  double total = 0.0;
  for (std::size_t k = 0; k < pools.runs.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    pools.cdf.push_back(total);
  }
  for (double& c : pools.cdf) c /= total;
  return pools;
}

/// One request of the mix, without its per-connection client name.
struct MixRequest {
  serve::RequestKind kind;
  const json::Value* payload;
};

std::vector<MixRequest> make_mix(const Pools& pools, std::uint64_t seed,
                                 int pass) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(pass));
  std::vector<MixRequest> mix;
  mix.reserve(kRequestsPerPass);
  for (std::size_t i = 0; i < kRequestsPerPass; ++i) {
    if (rng.next_double() < kCampaignShare) {
      mix.push_back({serve::RequestKind::kCampaign,
                     &pools.campaigns[rng.next_below(pools.campaigns.size())]});
    } else {
      const double u = rng.next_double();
      const std::size_t k = static_cast<std::size_t>(
          std::upper_bound(pools.cdf.begin(), pools.cdf.end(), u) -
          pools.cdf.begin());
      mix.push_back({serve::RequestKind::kRun,
                     &pools.runs[std::min(k, pools.runs.size() - 1)]});
    }
  }
  return mix;
}

std::string request_body(const MixRequest& m, const std::string& client) {
  serve::Request req;
  req.kind = m.kind;
  req.client = client;
  req.payload = *m.payload;
  return serve::request_to_json(req).dump();
}

/// A `stgsim serve` child with its own cache directory. The destructor
/// kills and reaps a child that was not shut down cleanly.
class Daemon {
 public:
  Daemon(const std::string& stgsim, const fs::path& dir) : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const std::string cache = (dir_ / "cache").string();
    const std::string port_file = (dir_ / "port").string();
    const std::string log = (dir_ / "serve.log").string();
    const std::string jobs = std::to_string(kJobs);
    std::vector<std::string> args = {stgsim,      "serve",     "--cache-dir",
                                     cache,       "--port",    "0",
                                     "--port-file", port_file, "--jobs",
                                     jobs};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, stgsim.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + stgsim);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the port file exists and GET /v1/status answers 200.
  void wait_ready(double timeout_s) {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (now_ns() < deadline) {
      if (port_ == 0) {
        std::ifstream pf(dir_ / "port");
        int port = 0;
        if (pf >> port && port > 0) port_ = port;
      }
      if (port_ != 0) {
        try {
          if (serve::http_request(kHost, port_, "GET", "/v1/status", "")
                  .status == 200) {
            return;
          }
        } catch (const std::exception&) {
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("stgsim serve exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw std::runtime_error("stgsim serve did not answer /v1/status");
  }

  int port() const { return port_; }

  /// POST /v1/shutdown, reap the child and return its peak RSS in MB.
  double shutdown() {
    serve::http_request(kHost, port_, "POST", "/v1/shutdown", "");
    const std::int64_t deadline = now_ns() + 20'000'000'000LL;
    for (;;) {
      int status = 0;
      rusage usage{};
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
      if (r == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          throw std::runtime_error("stgsim serve exited abnormally");
        }
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
      }
      if (now_ns() > deadline) {
        throw std::runtime_error("stgsim serve did not drain");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

 private:
  fs::path dir_;
  pid_t pid_ = -1;
  int port_ = 0;
};

double scalar(const json::Value& metrics_doc, const char* name) {
  const json::Value* v = metrics_doc.at("scalars").find(name);
  return v == nullptr ? 0.0 : v->as_number();
}

/// Outcome JSON without the one field that legitimately differs between
/// two executions of one spec: the simulator's own host seconds.
std::string outcome_bytes(json::Value outcome) {
  outcome.set("sim_host_seconds", 0);
  return outcome.dump();
}

struct Pass {
  std::vector<double> setup_s;  ///< spawn until ready, one per daemon
  double wall_s = 0.0;
  double rss_mb = 0.0;
  double status_rtt_ms = 0.0;
  double events = 0.0;
  double sim_host_s = 0.0;
  std::vector<double> latency_ms;  ///< completed requests
  std::map<std::string, std::vector<double>> by_source;
  json::Value metrics;  ///< GET /v1/metrics at the end of the pass
  double queue_depth_max = 0.0;
  /// Offline verification call times (reported by traced runs).
  std::map<std::string, std::vector<double>> verify_ms;
};

/// Re-runs `frame`'s spec offline through campaign::resolve_spec and
/// campaign::execute_spec, then stores and reloads the outcome through a
/// ResultCache; every served byte must match.
void verify_offline(const json::Value& request_payload, const json::Value& frame,
                    campaign::ResultCache& cache, Tracer& tracer,
                    std::int64_t req, Pass& pass, Report& rep) {
  Tracer::Scope root(tracer, "verify", req);
  const harness::RunSpec spec = harness::run_spec_from_json(request_payload);
  std::map<std::string, double> calib;
  if (spec.calibrate_procs > 0) {
    Tracer::Scope span(tracer, "campaign.calibrate");
    calib = campaign::run_calibration(spec);
  }
  harness::RunSpec resolved;
  {
    Tracer::Scope span(tracer, "campaign.resolve");
    resolved = campaign::resolve_spec(spec, spec.calibrate_procs > 0 ? &calib
                                                                    : nullptr);
    pass.verify_ms["campaign.resolve_ms"].push_back(span.stop() * 1e3);
  }
  rep.check(harness::run_spec_to_json(resolved).dump() ==
                frame.at("spec").dump(),
            "served resolved spec differs from offline resolve_spec");
  const std::string digest = harness::run_spec_digest_hex(resolved);
  rep.check(digest == frame.at("digest").as_string(),
            "served digest differs from offline run_spec_digest");
  harness::RunOutcome out;
  {
    Tracer::Scope span(tracer, "campaign.execute");
    out = campaign::execute_spec(resolved, /*with_metrics=*/true);
    pass.verify_ms["campaign.execute_ms"].push_back(span.stop() * 1e3);
  }
  json::Value doc;
  std::string text;
  {
    Tracer::Scope span(tracer, "json.outcome_dump");
    doc = harness::outcome_to_json(out);
    text = doc.dump();
    pass.verify_ms["json.outcome_dump_ms"].push_back(span.stop() * 1e3);
  }
  {
    Tracer::Scope span(tracer, "json.outcome_parse");
    (void)harness::outcome_from_json(json::Value::parse(text));
    pass.verify_ms["json.outcome_parse_ms"].push_back(span.stop() * 1e3);
  }
  rep.check(outcome_bytes(doc) == outcome_bytes(frame.at("outcome")),
            "served outcome for " + digest +
                " differs from offline campaign::execute_spec");
  {
    Tracer::Scope span(tracer, "campaign.cache_store");
    cache.store(digest, doc);
    pass.verify_ms["campaign.cache_store_ms"].push_back(span.stop() * 1e3);
  }
  std::optional<json::Value> loaded;
  {
    Tracer::Scope span(tracer, "campaign.cache_load");
    loaded = cache.load(digest);
    pass.verify_ms["campaign.cache_load_ms"].push_back(span.stop() * 1e3);
  }
  rep.check(loaded.has_value() && loaded->dump() == text,
            "ResultCache round trip changed outcome " + digest);
}

Pass run_pass(const Options& opts, const Pools& pools, int index, bool traced,
              Tracer& tracer, Report& rep) {
  Pass pass;
  const fs::path dir = fs::path(opts.out_dir) / ("serve-pass-" + std::to_string(index));
  const std::vector<MixRequest> mix = make_mix(pools, opts.seed, index);
  Tracer::Scope pass_span(tracer, "serve.pass", index);

  for (int i = 0; i < kSetupProbes; ++i) {
    const std::int64_t spawn = now_ns();
    Daemon probe(opts.stgsim, dir / ("probe-" + std::to_string(i)));
    probe.wait_ready(30.0);
    pass.setup_s.push_back((now_ns() - spawn) * 1e-9);
  }
  const std::int64_t spawn = now_ns();
  Daemon daemon(opts.stgsim, dir / "daemon");
  {
    Tracer::Scope span(tracer, "serve.spawn");
    daemon.wait_ready(30.0);
  }
  pass.setup_s.push_back((now_ns() - spawn) * 1e-9);

  std::vector<double> rtt;
  for (int i = 0; i < 20; ++i) {
    Tracer::Scope span(tracer, "serve.status");
    const serve::HttpResponse r =
        serve::http_request(kHost, daemon.port(), "GET", "/v1/status", "");
    rtt.push_back(span.stop() * 1e3);
    rep.check(r.status == 200, "GET /v1/status failed");
  }
  pass.status_rtt_ms = median(rtt);

  // The closed loop. Responses are kept raw and checked after the clock
  // stops, so parsing them costs the measured latency nothing.
  std::vector<serve::HttpResponse> responses(mix.size());
  std::vector<double> latency(mix.size(), -1.0);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> loop_done{false};
  std::thread monitor;
  std::vector<std::thread> clients;
  // Joins every thread on every path, exceptions included.
  struct JoinAll {
    std::atomic<bool>& done;
    std::thread& monitor;
    std::vector<std::thread>& clients;
    ~JoinAll() {
      for (std::thread& t : clients) {
        if (t.joinable()) t.join();
      }
      done.store(true);
      if (monitor.joinable()) monitor.join();
    }
  } join_all{loop_done, monitor, clients};
  if (traced) {
    // Samples the executor's permit queue while the loop runs.
    monitor = std::thread([&] {
      while (!loop_done.load()) {
        try {
          const json::Value m = json::Value::parse(
              serve::http_request(kHost, daemon.port(), "GET", "/v1/metrics", "")
                  .body);
          pass.queue_depth_max =
              std::max(pass.queue_depth_max, scalar(m, "serve.queue_depth"));
        } catch (const std::exception&) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  const std::int64_t loop_start = now_ns();
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      const std::string client = "load-" + std::to_string(c);
      for (std::size_t k; (k = next.fetch_add(1)) < mix.size();) {
        const std::string body = request_body(mix[k], client);
        Tracer::Scope span(tracer, "serve.request",
                           static_cast<std::int64_t>(k));
        try {
          responses[k] = serve::http_request(kHost, daemon.port(), "POST",
                                             "/v1/request", body);
          latency[k] = span.stop() * 1e3;
        } catch (const std::exception&) {
          // A refused or dropped connection: a failed request.
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  pass.wall_s = (now_ns() - loop_start) * 1e-9;
  loop_done.store(true);
  if (monitor.joinable()) monitor.join();

  pass.metrics = json::Value::parse(
      serve::http_request(kHost, daemon.port(), "GET", "/v1/metrics", "").body);
  {
    Tracer::Scope span(tracer, "serve.shutdown");
    pass.rss_mb = daemon.shutdown();
  }

  // Check every response; remember the first frame per spec for the
  // offline comparison.
  std::set<std::string> touched_specs, touched_calibrations;
  std::map<std::string, std::pair<const json::Value*, json::Value>> first_frame;
  std::map<std::string, std::string> outcome_of_digest;
  auto touch = [&](const harness::RunSpec& spec) {
    touched_specs.insert(harness::run_spec_to_json(spec).dump());
    if (spec.config.mode == harness::Mode::kAnalytical) {
      touched_calibrations.insert(harness::calibration_digest_hex(spec));
    }
  };
  for (std::size_t k = 0; k < mix.size(); ++k) {
    ++rep.attempted;
    const bool is_run = mix[k].kind == serve::RequestKind::kRun;
    if (is_run) {
      touch(harness::run_spec_from_json(*mix[k].payload));
    } else {
      for (const auto& r : campaign::parse_scenario(*mix[k].payload).runs) {
        touch(r.spec);
      }
    }
    if (latency[k] < 0 || responses[k].status != 200) {
      ++rep.failed;
      continue;
    }
    json::Value f;
    try {
      f = json::Value::parse(responses[k].body);
    } catch (const std::exception&) {
      ++rep.failed;
      continue;
    }
    const json::Value* event = f.find("event");
    if (event == nullptr || !event->is_string() ||
        event->as_string() != "result") {
      ++rep.failed;
      continue;
    }
    pass.latency_ms.push_back(latency[k]);
    if (!is_run) {
      rep.check(f.at("report").is_object(), "campaign frame has no report");
      continue;
    }
    const std::string source = f.at("source").as_string();
    pass.by_source[source].push_back(latency[k]);
    const std::string digest = f.at("digest").as_string();
    const json::Value& outcome = f.at("outcome");
    rep.check(outcome.at("status").as_string() == "ok",
              "served run " + digest + " did not end ok");
    const std::string bytes = outcome.dump();
    const auto [it, fresh] = outcome_of_digest.emplace(digest, bytes);
    rep.check(fresh || it->second == bytes,
              "two responses for " + digest + " carry different outcomes");
    if (source == "executed") {
      pass.events += outcome.at("messages").as_number() +
                     outcome.at("slices").as_number();
      pass.sim_host_s += outcome.at("sim_host_seconds").as_number();
    }
    if (fresh) first_frame.emplace(digest, std::make_pair(mix[k].payload, f));
  }

  // The dedup contract: each distinct spec (and calibration) executed once.
  rep.check(scalar(pass.metrics, "serve.executed") ==
                static_cast<double>(touched_specs.size()),
            "daemon executed " +
                std::to_string(scalar(pass.metrics, "serve.executed")) +
                " runs for " + std::to_string(touched_specs.size()) +
                " distinct specs");
  rep.check(scalar(pass.metrics, "serve.calibrations_run") ==
                static_cast<double>(touched_calibrations.size()),
            "daemon ran " +
                std::to_string(scalar(pass.metrics, "serve.calibrations_run")) +
                " calibrations for " +
                std::to_string(touched_calibrations.size()) + " distinct ones");

  // Offline comparison on a seeded sample of the specs served.
  campaign::ResultCache cache((dir / "verify-cache").string());
  std::vector<std::string> digests;
  for (const auto& [d, unused] : first_frame) digests.push_back(d);
  Rng pick(opts.seed + 7919ULL * static_cast<std::uint64_t>(index));
  for (int i = 0; i < kVerifiedPerPass && !digests.empty(); ++i) {
    const std::size_t at = pick.next_below(digests.size());
    const auto& [payload, frame] = first_frame.at(digests[at]);
    verify_offline(*payload, frame, cache, tracer, index, pass, rep);
    digests.erase(digests.begin() + static_cast<std::ptrdiff_t>(at));
  }
  fs::remove_all(dir);
  return pass;
}

}  // namespace

std::vector<std::string> serve_mix_requests(std::uint64_t seed, int pass) {
  const Pools pools = make_pools(seed);
  std::vector<std::string> out;
  for (const MixRequest& m : make_mix(pools, seed, pass)) {
    out.push_back(request_body(m, "load"));
  }
  return out;
}

Report run_serve_mix(const Options& opts, Tracer& tracer) {
  Report rep;
  rep.concurrency.set("connections", kConnections);
  rep.concurrency.set("jobs", kJobs);
  const Pools pools = make_pools(opts.seed);
  rep.details.set("distinct_run_specs",
                  static_cast<std::int64_t>(pools.runs.size()));

  const int min_passes = opts.trace ? 4 : 3;
  std::vector<Pass> passes;
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    const bool traced = opts.trace && i % 2 == 0;
    passes.push_back(run_pass(opts, pools, i, traced, tracer, rep));
    if ((now_ns() - start) * 1e-9 >= opts.seconds && i + 1 >= min_passes) break;
  }
  rep.details.set("passes", static_cast<std::int64_t>(passes.size()));
  rep.details.set("requests_per_pass",
                  static_cast<std::int64_t>(passes.front().latency_ms.size()));

  // Medians over passes (setup_s: over every daemon spawned); a traced run
  // reports only the per-layer set.
  std::map<std::string, std::vector<double>> e2e, layer;
  std::vector<double> traced_p50, untraced_p50;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const bool traced = opts.trace && i % 2 == 0;
    const double p50 = percentile(p.latency_ms, 50);
    (traced ? traced_p50 : untraced_p50).push_back(p50);
    std::vector<double>& setup = e2e["setup_s"];
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    e2e["wall_s"].push_back(p.wall_s);
    e2e["peak_rss_mb"].push_back(p.rss_mb);
    e2e["req_p50_ms"].push_back(p50);
    e2e["req_p99_ms"].push_back(percentile(p.latency_ms, 99));
    e2e["req_per_s"].push_back(static_cast<double>(p.latency_ms.size()) /
                               p.wall_s);
    if (!traced) continue;
    const json::Value& m = p.metrics;
    layer["campaign.executed"].push_back(scalar(m, "serve.executed"));
    layer["campaign.cache_hits"].push_back(scalar(m, "serve.cache_hits"));
    layer["campaign.dedup_joined"].push_back(scalar(m, "serve.dedup_joined"));
    layer["campaign.calibrations_run"].push_back(
        scalar(m, "serve.calibrations_run"));
    layer["campaign.calibrations_cached"].push_back(
        scalar(m, "serve.calibrations_cached"));
    layer["campaign.hit_rate"].push_back(scalar(m, "serve.cache_hit_rate"));
    layer["campaign.queue_depth_max"].push_back(p.queue_depth_max);
    layer["serve.status_rtt_ms"].push_back(p.status_rtt_ms);
    for (const auto& [source, name] :
         {std::pair<const char*, const char*>{"cache_hit", "serve.hit_ms_p50"},
          {"dedup_joined", "serve.join_ms_p50"},
          {"executed", "serve.exec_ms_p50"}}) {
      const auto it = p.by_source.find(source);
      layer[name].push_back(it == p.by_source.end()
                                ? 0.0
                                : percentile(it->second, 50));
    }
    for (const auto& [name, xs] : p.verify_ms) {
      layer[name].push_back(median(xs));
    }
  }
  for (const auto& [name, xs] : e2e) rep.metrics[name] = median(xs);
  // Each pass executes only a few dozen short runs, so the simulation rate
  // pools every pass's executions instead of taking a median of ratios.
  double events = 0.0, sim_host_s = 0.0;
  for (const Pass& p : passes) {
    events += p.events;
    sim_host_s += p.sim_host_s;
  }
  rep.metrics["events_per_s"] = events / std::max(1e-9, sim_host_s);
  if (opts.trace) {
    for (const auto& [name, xs] : layer) rep.metrics[name] = median(xs);
    const double base = median(untraced_p50);
    rep.metrics["obs.trace_overhead_pct"] =
        (median(traced_p50) - base) / base * 100.0;
  }
  return rep;
}

}  // namespace stgbench
