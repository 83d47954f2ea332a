// Tests for the serve subsystem: the versioned wire protocol, the shared
// structured-error envelope, the Executor's in-flight dedup contract (one
// execution, N responders, byte-identical outcomes), concurrent cache
// access, the Service's admission/drain contract, and the HTTP loopback
// path — including the byte-identity of a served campaign report with the
// offline campaign runner's.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/exec.hpp"
#include "campaign/executor.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "harness/config_json.hpp"
#include "harness/digest.hpp"
#include "serve/daemon.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/errors.hpp"
#include "support/json.hpp"

namespace stgsim {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("stgsim-serve-test-" + tag + "-" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string sub(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

/// Cheap resolved spec (sample app, direct execution, milliseconds).
harness::RunSpec tiny_spec(int procs = 2, int work = 1000) {
  json::Value doc = json::Value::parse(R"({
    "app": "sample", "mode": "de", "seed": 7,
    "options": {"iters": "2", "work": ")" +
                                       std::to_string(work) + R"("}
  })");
  doc.set("procs", procs);
  return harness::run_spec_from_json(doc);
}

json::Value tiny_scenario() {
  return json::Value::parse(R"({
    "name": "serve-test",
    "defaults": {"machine": "ibm_sp", "seed": 11},
    "sweeps": [
      {
        "app": "sample",
        "options": {"iters": 2, "work": 1500},
        "procs": [2, 3],
        "mode": ["de"]
      }
    ]
  })");
}

/// Collects every frame a Service emits for one request.
std::vector<json::Value> collect(serve::Service& service,
                                 const serve::Request& req) {
  std::vector<json::Value> frames;
  service.handle(req, [&](const json::Value& f) { frames.push_back(f); });
  return frames;
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(ServeWire, RequestRoundTripsEveryKind) {
  for (const serve::RequestKind kind :
       {serve::RequestKind::kRun, serve::RequestKind::kCampaign,
        serve::RequestKind::kStatus, serve::RequestKind::kMetrics,
        serve::RequestKind::kShutdown}) {
    serve::Request req;
    req.kind = kind;
    req.client = "roundtrip";
    req.stream = true;
    req.retry_failed = true;
    if (kind == serve::RequestKind::kRun ||
        kind == serve::RequestKind::kCampaign) {
      req.payload = json::Value::object();
      req.payload.set("app", "sample");
    }
    const serve::Request back =
        serve::request_from_json(serve::request_to_json(req));
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.client, "roundtrip");
    EXPECT_TRUE(back.stream);
    EXPECT_TRUE(back.retry_failed);
    EXPECT_EQ(serve::request_to_json(back).dump(),
              serve::request_to_json(req).dump());
  }
}

TEST(ServeWire, RejectsUnknownProtoStructurally) {
  json::Value doc = json::Value::object();
  doc.set("proto", "stgsim-serve-99");
  doc.set("kind", "status");
  try {
    serve::request_from_json(doc);
    FAIL() << "unknown proto must be rejected";
  } catch (const errors::StructuredError& e) {
    EXPECT_EQ(e.code(), "serve.unsupported_proto");
    EXPECT_EQ(e.category(), errors::kCategoryUsage);
    // The rejection names what IS supported.
    const json::Value& supported = e.detail().at("supported");
    ASSERT_GE(supported.as_array().size(), 1u);
    EXPECT_EQ(supported.as_array().back().as_string(), serve::kServeProto);
  }
}

TEST(ServeWire, RejectsMissingProtoAndUnknownKeys) {
  json::Value no_proto = json::Value::object();
  no_proto.set("kind", "status");
  EXPECT_THROW(serve::request_from_json(no_proto), errors::StructuredError);

  json::Value extra = json::Value::object();
  extra.set("proto", serve::kServeProto);
  extra.set("kind", "status");
  extra.set("wat", 1);
  EXPECT_THROW(serve::request_from_json(extra), errors::StructuredError);
}

TEST(ServeWire, PublishedProtosEndWithCurrent) {
  ASSERT_FALSE(serve::published_protos().empty());
  EXPECT_EQ(serve::published_protos().back(), serve::kServeProto);
  EXPECT_TRUE(serve::proto_supported(serve::kServeProto));
  EXPECT_FALSE(serve::proto_supported("stgsim-serve-99"));
}

// ---------------------------------------------------------------------------
// Structured-error envelope
// ---------------------------------------------------------------------------

TEST(ErrorEnvelope, ShapeAndBytesAreStable) {
  const errors::StructuredError e("serve.queue_full",
                                  errors::kCategoryBudgetExceeded,
                                  "request queue is full");
  const json::Value env = errors::error_envelope(e);
  EXPECT_EQ(env.dump(),
            R"({"error":{"api":"stgsim-error-1","category":"budget_exceeded",)"
            R"("code":"serve.queue_full","message":"request queue is full"}})");
}

TEST(ErrorEnvelope, CategoriesMapToHistoricalExitCodes) {
  EXPECT_EQ(errors::category_exit_code(errors::kCategoryUsage), 1);
  EXPECT_EQ(errors::category_exit_code(errors::kCategoryOutOfMemory), 2);
  EXPECT_EQ(errors::category_exit_code(errors::kCategoryDeadlock), 3);
  EXPECT_EQ(errors::category_exit_code(errors::kCategoryBudgetExceeded), 4);
  EXPECT_EQ(errors::category_exit_code(errors::kCategoryInternalError), 5);
  EXPECT_EQ(errors::category_exit_code(errors::kCategoryDivergence), 6);
  EXPECT_EQ(errors::category_exit_code("never-heard-of-it"), 5);
}

TEST(ErrorEnvelope, DaemonFrameEmbedsIdenticalEnvelopeBody) {
  const errors::StructuredError e("usage.removed_flag", errors::kCategoryUsage,
                                  "--threads was removed; use --workers");
  const json::Value env = errors::error_envelope(e);
  const json::Value f = serve::error_frame(env);
  // The frame's "error" member IS the envelope's inner object, byte for
  // byte — the daemon and --json-errors share one serialization.
  EXPECT_EQ(f.at("error").dump(), env.at("error").dump());
}

// ---------------------------------------------------------------------------
// Executor: in-flight dedup, one execution N responders
// ---------------------------------------------------------------------------

TEST(Executor, ConcurrentIdenticalRunsExecuteOnceAndShareBytes) {
  ScratchDir dir("dedup");
  campaign::Executor::Options eo;
  eo.cache_dir = dir.sub("cache");
  campaign::Executor exec(eo);

  const harness::RunSpec resolved = tiny_spec(2, 4000);
  constexpr int kThreads = 8;
  std::vector<std::string> outcome_bytes(kThreads);
  std::vector<campaign::Executor::Source> sources(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const campaign::Executor::Result r = exec.run_resolved(resolved);
      outcome_bytes[t] = harness::outcome_to_json(r.outcome).dump();
      sources[t] = r.source;
    });
  }
  for (auto& t : pool) t.join();

  const campaign::Executor::Stats st = exec.stats();
  EXPECT_EQ(st.executed, 1u) << "identical in-flight specs must execute once";
  EXPECT_EQ(st.executed + st.cache_hits + st.dedup_joined,
            static_cast<std::uint64_t>(kThreads));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(outcome_bytes[t], outcome_bytes[0])
        << "every responder must receive byte-identical outcomes";
  }
  // The cache now holds the one stored entry; a fresh probe is a hit with
  // the same bytes.
  const campaign::Executor::Result again = exec.run_resolved(resolved);
  EXPECT_EQ(again.source, campaign::Executor::Source::kCacheHit);
  EXPECT_EQ(harness::outcome_to_json(again.outcome).dump(), outcome_bytes[0]);
}

TEST(Executor, CalibrationsDedupAcrossConcurrentCallers) {
  ScratchDir dir("calib");
  campaign::Executor::Options eo;
  eo.cache_dir = dir.sub("cache");
  campaign::Executor exec(eo);

  json::Value doc = json::Value::parse(R"({
    "app": "sample", "mode": "am", "calibrate": 2, "seed": 3,
    "options": {"iters": "2", "work": "2000"}
  })");
  const harness::RunSpec spec = harness::run_spec_from_json(doc);

  constexpr int kThreads = 6;
  std::vector<std::string> tables(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      tables[t] = harness::params_to_json(exec.calibration(spec)).dump();
    });
  }
  for (auto& t : pool) t.join();

  const campaign::Executor::Stats st = exec.stats();
  EXPECT_EQ(st.calibrations_run, 1u);
  EXPECT_EQ(st.calibrations_run + st.calibrations_cached +
                st.calibrations_joined,
            static_cast<std::uint64_t>(kThreads));
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(tables[t], tables[0]);
}

TEST(Executor, PermitPoolBoundsConcurrentExecutions) {
  ScratchDir dir("permits");
  campaign::Executor::Options eo;
  eo.cache_dir = dir.sub("cache");
  eo.max_concurrency = 1;
  campaign::Executor exec(eo);

  // Distinct specs so nothing dedups; with one permit they serialize but
  // all complete.
  std::vector<std::thread> pool;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      const campaign::Executor::Result r =
          exec.run_resolved(tiny_spec(2, 1000 + 17 * t));
      if (r.outcome.ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(exec.stats().executed, 4u);
}

// ---------------------------------------------------------------------------
// Concurrent cache access
// ---------------------------------------------------------------------------

TEST(ResultCacheConcurrency, RacingStoresOfOneKeyLeaveAValidEntry) {
  ScratchDir dir("race");
  const campaign::ResultCache cache(dir.sub("cache"));

  // Two workers racing to store the same key (as two daemon processes
  // sharing a cache directory would): atomic tmp+rename means the survivor
  // is one complete, checksum-valid document — never a torn hybrid.
  json::Value a = json::Value::object();
  a.set("outcome", "aaaaaaaa");
  json::Value b = json::Value::object();
  b.set("outcome", "bbbbbbbb");
  constexpr int kRounds = 64;
  std::thread t1([&] {
    for (int i = 0; i < kRounds; ++i) cache.store("00deadbeef00", a);
  });
  std::thread t2([&] {
    for (int i = 0; i < kRounds; ++i) cache.store("00deadbeef00", b);
  });
  t1.join();
  t2.join();

  const auto doc = cache.load("00deadbeef00");
  ASSERT_TRUE(doc.has_value());
  const std::string v = doc->at("outcome").as_string();
  EXPECT_TRUE(v == "aaaaaaaa" || v == "bbbbbbbb") << v;
}

TEST(ResultCacheConcurrency, KillMidRequestResumesByReExecuting) {
  ScratchDir dir("resume");
  campaign::Executor::Options eo;
  eo.cache_dir = dir.sub("cache");

  const harness::RunSpec resolved = tiny_spec(2, 3000);
  const std::string digest = harness::run_spec_digest_hex(resolved);
  std::string first_digest;
  {
    campaign::Executor exec(eo);
    first_digest = harness::run_digest_hex(exec.run_resolved(resolved).outcome);
  }

  // "Kill" between execution and durability: the entry vanishes (the cache
  // file is the only durable state, so a request killed before store left
  // nothing). A new daemon must re-execute and reproduce the same run
  // digest — the bit-identity contract covers simulated results; host
  // wall-clock (sim_host_seconds) is deliberately outside it.
  campaign::ResultCache cache(eo.cache_dir);
  cache.remove(digest);
  {
    campaign::Executor exec(eo);
    const campaign::Executor::Result r = exec.run_resolved(resolved);
    EXPECT_EQ(r.source, campaign::Executor::Source::kExecuted);
    EXPECT_EQ(harness::run_digest_hex(r.outcome), first_digest);
  }

  // A torn entry (killed mid-write without the atomic rename — simulated
  // by truncation) reads as a miss, never an error.
  {
    std::ofstream torn(cache.path_for(digest),
                       std::ios::binary | std::ios::trunc);
    torn << "{\"payload\": {\"outco";
  }
  {
    campaign::Executor exec(eo);
    const campaign::Executor::Result r = exec.run_resolved(resolved);
    EXPECT_EQ(r.source, campaign::Executor::Source::kExecuted);
    EXPECT_EQ(harness::run_digest_hex(r.outcome), first_digest);
  }
  // Once durable, a cache hit replays the stored outcome byte-for-byte.
  {
    campaign::Executor exec(eo);
    const campaign::Executor::Result a = exec.run_resolved(resolved);
    campaign::Executor exec2(eo);
    const campaign::Executor::Result b = exec2.run_resolved(resolved);
    EXPECT_EQ(a.source, campaign::Executor::Source::kCacheHit);
    EXPECT_EQ(b.source, campaign::Executor::Source::kCacheHit);
    EXPECT_EQ(harness::outcome_to_json(a.outcome).dump(),
              harness::outcome_to_json(b.outcome).dump());
  }
}

// ---------------------------------------------------------------------------
// Service: admission, budgets, drain
// ---------------------------------------------------------------------------

serve::Request run_request(const std::string& client) {
  serve::Request req;
  req.kind = serve::RequestKind::kRun;
  req.client = client;
  req.payload = json::Value::parse(R"({
    "app": "sample", "mode": "de", "procs": 2, "seed": 7,
    "options": {"iters": "2", "work": "1000"}
  })");
  return req;
}

/// Holds one streaming request open: the emit callback blocks on its
/// first frame until release() — the request keeps its admission ticket
/// the whole time, giving tests a deterministic "daemon is busy" state.
class HeldRequest {
 public:
  HeldRequest(serve::Service& service, serve::Request req) {
    req.stream = true;  // streaming emits an early frame we can block in
    worker_ = std::thread([this, &service, req = std::move(req)] {
      service.handle(req, [this](const json::Value&) {
        std::unique_lock lk(mu_);
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lk, [this] { return released_; });
      });
    });
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return entered_; });
  }
  void release() {
    {
      std::lock_guard lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  ~HeldRequest() {
    release();
    worker_.join();
  }

 private:
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(Service, QueueFullRejectionIsStructuredBudgetExceeded) {
  ScratchDir dir("qfull");
  serve::Service::Options so;
  so.cache_dir = dir.sub("cache");
  so.max_active_requests = 1;
  serve::Service service(so);

  HeldRequest busy(service, run_request("alice"));
  const std::vector<json::Value> frames =
      collect(service, run_request("bob"));
  busy.release();

  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].at("event").as_string(), "error");
  EXPECT_EQ(frames[0].at("error").at("code").as_string(), "serve.queue_full");
  EXPECT_EQ(frames[0].at("error").at("category").as_string(),
            errors::kCategoryBudgetExceeded);
}

TEST(Service, PerClientBudgetRejectsOnlyTheGreedyClient) {
  ScratchDir dir("budget");
  serve::Service::Options so;
  so.cache_dir = dir.sub("cache");
  so.max_active_requests = 8;
  so.max_inflight_per_client = 1;
  serve::Service service(so);

  HeldRequest busy(service, run_request("alice"));
  const std::vector<json::Value> rejected =
      collect(service, run_request("alice"));
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].at("error").at("code").as_string(),
            "serve.client_budget");

  // A different client is under its own budget and completes normally.
  const std::vector<json::Value> ok = collect(service, run_request("bob"));
  busy.release();
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok.back().at("event").as_string(), "result");

  // Per-client rejection counters surfaced in service metrics.
  const obs::MetricsSnapshot m = service.metrics_snapshot();
  EXPECT_EQ(m.value("serve.rejections.client.alice"), 1.0);
  EXPECT_EQ(m.value("serve.rejected.client_budget"), 1.0);
}

TEST(Service, DrainRejectsNewWorkAndWaitIdleReturns) {
  ScratchDir dir("drain");
  serve::Service::Options so;
  so.cache_dir = dir.sub("cache");
  serve::Service service(so);

  service.begin_drain();
  EXPECT_TRUE(service.draining());
  const std::vector<json::Value> frames =
      collect(service, run_request("late"));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].at("error").at("code").as_string(), "serve.draining");
  service.wait_idle();  // nothing active: returns immediately

  // Observability bypasses admission even while draining.
  serve::Request status;
  status.kind = serve::RequestKind::kStatus;
  const std::vector<json::Value> sf = collect(service, status);
  ASSERT_EQ(sf.size(), 1u);
  EXPECT_EQ(sf[0].at("event").as_string(), "result");
  EXPECT_TRUE(sf[0].at("status").at("draining").as_bool());
}

TEST(Service, WatchdogClampBoundsRunHostBudget) {
  ScratchDir dir("watchdog");
  serve::Service::Options so;
  so.cache_dir = dir.sub("cache");
  so.max_run_host_seconds = 123.0;
  serve::Service service(so);

  const std::vector<json::Value> frames =
      collect(service, run_request("clamped"));
  ASSERT_FALSE(frames.empty());
  const json::Value& result = frames.back();
  ASSERT_EQ(result.at("event").as_string(), "result");
  // The clamp is visible in the canonical spec echoed back (and therefore
  // in the cache key).
  EXPECT_EQ(result.at("spec").at("max_host_sec").as_number(), 123.0);
}

// ---------------------------------------------------------------------------
// Service: campaign byte-identity with the offline runner
// ---------------------------------------------------------------------------

TEST(Service, ServedCampaignReportMatchesOfflineRunnerByteForByte) {
  ScratchDir dir("byteid");

  serve::Service::Options so;
  so.cache_dir = dir.sub("serve-cache");
  so.jobs = 2;
  serve::Service service(so);
  serve::Request req;
  req.kind = serve::RequestKind::kCampaign;
  req.client = "tester";
  req.payload = tiny_scenario();
  const std::vector<json::Value> frames = collect(service, req);
  ASSERT_FALSE(frames.empty());
  const json::Value& result = frames.back();
  ASSERT_EQ(result.at("event").as_string(), "result") << result.dump();

  campaign::CampaignOptions copts;
  copts.jobs = 2;
  copts.cache_dir = dir.sub("offline-cache");
  const campaign::CampaignResult offline =
      run_campaign(campaign::parse_scenario(tiny_scenario()), copts);

  EXPECT_EQ(result.at("report").dump(2),
            campaign::report_json(offline).dump(2));
  EXPECT_EQ(result.at("report_csv").as_string(),
            campaign::report_csv(offline));
}

TEST(Service, ConcurrentIdenticalCampaignsExecuteEachRunOnce) {
  ScratchDir dir("camp-dedup");
  serve::Service::Options so;
  so.cache_dir = dir.sub("cache");
  so.jobs = 2;
  so.max_active_requests = 8;
  serve::Service service(so);

  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<std::int64_t> campaign_hits(kClients, 0);
  std::vector<std::thread> pool;
  for (int c = 0; c < kClients; ++c) {
    pool.emplace_back([&, c] {
      serve::Request req;
      req.kind = serve::RequestKind::kCampaign;
      req.client = "client-" + std::to_string(c);
      req.payload = tiny_scenario();
      std::vector<json::Value> frames;
      service.handle(req,
                     [&](const json::Value& f) { frames.push_back(f); });
      ASSERT_FALSE(frames.empty());
      ASSERT_EQ(frames.back().at("event").as_string(), "result");
      reports[c] = frames.back().at("report").dump();
      campaign_hits[c] =
          frames.back().at("summary").at("cache_hits").as_int();
    });
  }
  for (auto& t : pool) t.join();

  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(reports[c], reports[0])
        << "every client must receive byte-identical reports";
  }
  // The scenario has 2 unique runs: across all N concurrent identical
  // campaigns each executes exactly once. Every other run request is
  // answered without executing: by the campaign layer's own cache probe
  // (a campaign that starts after an earlier one stored its runs never
  // reaches the executor), or by an executor cache hit or dedup join.
  // Which path each takes depends on thread timing; the total does not.
  const campaign::Executor::Stats st = service.executor().stats();
  EXPECT_EQ(st.executed, 2u);
  std::uint64_t campaign_cache_hits = 0;
  for (const std::int64_t h : campaign_hits) {
    campaign_cache_hits += static_cast<std::uint64_t>(h);
  }
  EXPECT_EQ(st.cache_hits + st.dedup_joined + campaign_cache_hits,
            2u * (kClients - 1));
}

// ---------------------------------------------------------------------------
// HTTP loopback
// ---------------------------------------------------------------------------

TEST(ServeHttp, LoopbackStatusAndErrorEnvelopeBytes) {
  ScratchDir dir("http");
  serve::Service::Options so;
  so.cache_dir = dir.sub("cache");
  serve::Service service(so);
  serve::HttpServer server;
  serve::HttpServer::Options ho;  // 127.0.0.1, ephemeral port
  const int port = server.start(ho, serve::make_http_handler(service));
  ASSERT_GT(port, 0);

  // Status route.
  const serve::HttpResponse status =
      serve::http_request("127.0.0.1", port, "GET", "/v1/status", "");
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(json::Value::parse(status.body).at("proto").as_string(),
            serve::kServeProto);

  // An unsupported proto comes back 400 with the bare envelope — the SAME
  // bytes errors::error_envelope produces (daemon/CLI shared surface).
  const std::string bad = R"({"proto":"stgsim-serve-99","kind":"status"})";
  const serve::HttpResponse rejected =
      serve::http_request("127.0.0.1", port, "POST", "/v1/request", bad);
  EXPECT_EQ(rejected.status, 400);
  const json::Value env = json::Value::parse(rejected.body);
  EXPECT_EQ(env.at("error").at("api").as_string(), errors::kErrorApi);
  EXPECT_EQ(env.at("error").at("code").as_string(),
            "serve.unsupported_proto");
  try {
    serve::request_from_json(json::Value::parse(bad));
    FAIL();
  } catch (const errors::StructuredError& e) {
    EXPECT_EQ(rejected.body, errors::error_envelope(e).dump(2) + "\n");
  }

  // Streaming run request over the wire: NDJSON frames, result last.
  serve::Request req = run_request("http-client");
  req.stream = true;
  std::vector<json::Value> frames;
  const int code = serve::http_request_stream(
      "127.0.0.1", port, "POST", "/v1/request",
      serve::request_to_json(req).dump(), [&](const std::string& line) {
        if (!line.empty()) frames.push_back(json::Value::parse(line));
      });
  EXPECT_EQ(code, 200);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().at("event").as_string(), "result");
  EXPECT_EQ(frames.back().at("outcome").at("status").as_string(), "ok");

  // Shutdown route begins the drain.
  const serve::HttpResponse down =
      serve::http_request("127.0.0.1", port, "POST", "/v1/shutdown", "");
  EXPECT_EQ(down.status, 200);
  EXPECT_TRUE(service.shutdown_requested());
  EXPECT_TRUE(service.draining());
  server.stop();
}

}  // namespace
}  // namespace stgsim
