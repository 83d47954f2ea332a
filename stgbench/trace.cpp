#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "support/json.hpp"

namespace stgbench {

namespace {

struct OpenSpan {
  const Tracer* tracer;
  int id;
  std::int64_t req;
};

thread_local std::vector<OpenSpan> t_open;

int thread_index() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, int> ids;
  std::lock_guard lk(mu);
  return ids.try_emplace(std::this_thread::get_id(),
                         static_cast<int>(ids.size()))
      .first->second;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t req)
    : tracer_(tracer) {
  span_.name = std::move(name);
  span_.req = req;
  if (tracer_.enabled_) {
    {
      std::lock_guard lk(tracer_.mu_);
      span_.id = tracer_.next_id_++;
    }
    for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
      if (it->tracer != &tracer_) continue;
      span_.parent = it->id;
      if (span_.req < 0) span_.req = it->req;
      break;
    }
    span_.tid = thread_index();
    t_open.push_back({&tracer_, span_.id, span_.req});
  }
  span_.start_ns = now_ns();
}

double Tracer::Scope::stop() {
  if (open_) {
    span_.end_ns = now_ns();
    open_ = false;
    if (tracer_.enabled_) {
      if (!t_open.empty() && t_open.back().id == span_.id) t_open.pop_back();
      std::lock_guard lk(tracer_.mu_);
      tracer_.spans_.push_back(span_);
    }
  }
  return span_.seconds();
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::totals_under(int root) const {
  const std::vector<Span> all = spans();
  std::unordered_map<int, int> parent_of;
  for (const Span& s : all) parent_of[s.id] = s.parent;
  std::map<std::string, double> out;
  for (const Span& s : all) {
    for (int at = s.id; at >= 0; at = parent_of.count(at) ? parent_of[at] : -1) {
      if (at == root) {
        out[s.name] += s.seconds();
        break;
      }
    }
  }
  return out;
}

double Tracer::self_seconds(int id) const {
  double self = 0.0;
  for (const Span& s : spans()) {
    if (s.id == id) self += s.seconds();
    if (s.parent == id) self -= s.seconds();
  }
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::unordered_map<int, double> child_seconds;
  std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) {
    if (s.parent >= 0) child_seconds[s.parent] += s.seconds();
    origin = std::min(origin, s.start_ns);
  }
  stgsim::json::Value events = stgsim::json::Value::array();
  for (const Span& s : all) {
    stgsim::json::Value args = stgsim::json::Value::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("req", s.req);
    args.set("self_us", (s.seconds() - child_seconds[s.id]) * 1e6);
    stgsim::json::Value e = stgsim::json::Value::object();
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", s.tid);
    e.set("ts", (s.start_ns - origin) * 1e-3);
    e.set("dur", (s.end_ns - s.start_ns) * 1e-3);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  stgsim::json::Value doc = stgsim::json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << doc.dump() << '\n';
}

}  // namespace stgbench
