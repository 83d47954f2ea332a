// Serve-load smoke benchmark (not a paper figure): drives serve::Service
// in-process with a pool of client threads firing a mix of identical and
// distinct run requests, then repeats the whole mix against the warm
// cache. This is the regression guard for the campaign-service admission
// and dedup paths: each unique spec must execute exactly once on the cold
// pass (everything else is a cache hit or an in-flight dedup join), the
// warm pass must be 100% cache hits, and request latency percentiles are
// archived so a slow lock or a serialized executor shows up as a step in
// the JSON CI stores.
//
// Usage: perf_serve_load [--clients N] [--requests M] [--distinct K]
//                        [--jobs J] [--out FILE]
//   --clients N    concurrent client threads (default 8)
//   --requests M   requests per client per pass (default 16)
//   --distinct K   distinct run specs the mix cycles through (default 4)
//   --jobs J       executor permit-pool size (default 4)
//   --out FILE     JSON output path (default BENCH_serve_load.json)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "campaign/executor.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/json.hpp"
#include "support/numparse.hpp"

using namespace stgsim;

namespace {

using Clock = std::chrono::steady_clock;

/// One distinct run spec: the sample kernel with a work knob that keys the
/// content address, so --distinct K yields exactly K cache entries.
serve::Request make_request(int client, int distinct_id) {
  serve::Request req;
  req.kind = serve::RequestKind::kRun;
  req.client = "client-" + std::to_string(client);
  json::Value payload = json::Value::object();
  payload.set("app", "sample");
  payload.set("mode", "de");
  payload.set("procs", 2);
  payload.set("seed", 5);
  json::Value opts = json::Value::object();
  opts.set("iters", "2");
  opts.set("work", std::to_string(1000 + 100 * distinct_id));
  payload.set("options", opts);
  req.payload = std::move(payload);
  return req;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct PassResult {
  std::vector<double> latencies_ms;  // sorted
  double wall_sec = 0.0;
  std::size_t errors = 0;
};

/// Fires clients x requests at the service, round-robin over the distinct
/// specs, and collects per-request latency.
PassResult run_pass(serve::Service& service, int clients, int requests,
                    int distinct) {
  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::size_t> errors(clients, 0);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      per_client[c].reserve(requests);
      for (int r = 0; r < requests; ++r) {
        const serve::Request req = make_request(c, (c + r) % distinct);
        const Clock::time_point t0 = Clock::now();
        json::Value last;
        service.handle(req, [&](const json::Value& f) { last = f; });
        per_client[c].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
        if (last.at("event").as_string() != "result") ++errors[c];
      }
    });
  }
  for (auto& t : pool) t.join();
  PassResult out;
  out.wall_sec = std::chrono::duration<double>(Clock::now() - start).count();
  for (int c = 0; c < clients; ++c) {
    out.latencies_ms.insert(out.latencies_ms.end(), per_client[c].begin(),
                            per_client[c].end());
    out.errors += errors[c];
  }
  std::sort(out.latencies_ms.begin(), out.latencies_ms.end());
  return out;
}

json::Value pass_json(const PassResult& pass, int total_requests) {
  json::Value out = json::Value::object();
  out.set("requests", total_requests);
  out.set("errors", static_cast<std::int64_t>(pass.errors));
  out.set("wall_sec", pass.wall_sec);
  out.set("requests_per_sec",
          pass.wall_sec > 0.0 ? total_requests / pass.wall_sec : 0.0);
  out.set("latency_ms_p50", percentile(pass.latencies_ms, 0.50));
  out.set("latency_ms_p95", percentile(pass.latencies_ms, 0.95));
  out.set("latency_ms_p99", percentile(pass.latencies_ms, 0.99));
  return out;
}

json::Value executor_json(const campaign::Executor::Stats& st) {
  json::Value out = json::Value::object();
  out.set("executed", static_cast<std::int64_t>(st.executed));
  out.set("cache_hits", static_cast<std::int64_t>(st.cache_hits));
  out.set("dedup_joined", static_cast<std::int64_t>(st.dedup_joined));
  const double lookups =
      static_cast<double>(st.executed + st.cache_hits + st.dedup_joined);
  out.set("hit_rate",
          lookups > 0.0 ? static_cast<double>(st.cache_hits + st.dedup_joined) /
                              lookups
                        : 0.0);
  return out;
}

long long parse_flag(int argc, char** argv, int& i, const char* name) {
  if (i + 1 >= argc) {
    std::cerr << name << " needs a value\n";
    std::exit(1);
  }
  long long v = 0;
  if (support::parse_i64(argv[++i], &v) != support::ParseNumStatus::kOk ||
      v <= 0) {
    std::cerr << name << ": expected a positive integer\n";
    std::exit(1);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 8;
  int requests = 16;
  int distinct = 4;
  int jobs = 4;
  std::string out_path = "BENCH_serve_load.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clients") == 0) {
      clients = static_cast<int>(parse_flag(argc, argv, i, "--clients"));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      requests = static_cast<int>(parse_flag(argc, argv, i, "--requests"));
    } else if (std::strcmp(argv[i], "--distinct") == 0) {
      distinct = static_cast<int>(parse_flag(argc, argv, i, "--distinct"));
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = static_cast<int>(parse_flag(argc, argv, i, "--jobs"));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "unknown flag " << argv[i] << "\n";
      return 1;
    }
  }

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() /
      ("stgsim-serve-bench-" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_dir);

  serve::Service::Options so;
  so.cache_dir = cache_dir.string();
  so.jobs = jobs;
  so.max_active_requests = 0;       // the bench saturates on purpose
  so.max_inflight_per_client = 0;   // (admission is tested elsewhere)
  serve::Service service(so);

  const int total = clients * requests;
  std::cout << "serve-load: " << clients << " clients x " << requests
            << " requests, " << distinct << " distinct specs, jobs=" << jobs
            << "\n";

  const PassResult cold = run_pass(service, clients, requests, distinct);
  const campaign::Executor::Stats cold_stats = service.executor().stats();
  const PassResult warm = run_pass(service, clients, requests, distinct);
  const campaign::Executor::Stats warm_stats = service.executor().stats();

  // Warm-pass deltas: everything after the cold pass must be a cache hit.
  const std::uint64_t warm_executed = warm_stats.executed - cold_stats.executed;
  const std::uint64_t warm_hits = warm_stats.cache_hits - cold_stats.cache_hits;

  json::Value doc = json::Value::object();
  doc.set("bench", "serve_load");
  json::Value cfg = json::Value::object();
  cfg.set("clients", clients);
  cfg.set("requests_per_client", requests);
  cfg.set("distinct_specs", distinct);
  cfg.set("jobs", jobs);
  cfg.set("host_cores",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  doc.set("config", cfg);
  doc.set("host", benchx::host_json());
  json::Value cold_doc = pass_json(cold, total);
  cold_doc.set("executor", executor_json(cold_stats));
  doc.set("cold", cold_doc);
  json::Value warm_doc = pass_json(warm, total);
  warm_doc.set("warm_executed", static_cast<std::int64_t>(warm_executed));
  warm_doc.set("warm_cache_hits", static_cast<std::int64_t>(warm_hits));
  doc.set("warm", warm_doc);

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << doc.dump(2) << "\n";
  out.close();
  std::filesystem::remove_all(cache_dir);

  std::cout << "cold: executed=" << cold_stats.executed
            << " hits=" << cold_stats.cache_hits
            << " dedup_joined=" << cold_stats.dedup_joined
            << " p95=" << pass_json(cold, total).at("latency_ms_p95").as_number()
            << "ms\n";
  std::cout << "warm: executed=" << warm_executed << " hits=" << warm_hits
            << " p95=" << pass_json(warm, total).at("latency_ms_p95").as_number()
            << "ms\n";
  std::cout << "wrote " << out_path << "\n";

  bool ok = true;
  if (cold_stats.executed != static_cast<std::uint64_t>(distinct)) {
    std::cerr << "FAIL: cold pass executed " << cold_stats.executed
              << " runs, expected exactly " << distinct << "\n";
    ok = false;
  }
  if (warm_executed != 0) {
    std::cerr << "FAIL: warm pass executed " << warm_executed
              << " runs, expected 0 (100% cache hits)\n";
    ok = false;
  }
  if (cold.errors + warm.errors != 0) {
    std::cerr << "FAIL: " << (cold.errors + warm.errors)
              << " requests did not end in a result frame\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
