#include "spans.h"

#include <atomic>

#include "common/json.h"

namespace perfbench {

namespace {

thread_local std::vector<long> open_stack;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

}  // namespace

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

long SpanLog::begin(std::string name, std::string arg) {
  Span s;
  s.name = std::move(name);
  s.arg = std::move(arg);
  s.parent = open_stack.empty() ? -1 : open_stack.back();
  s.tid = thread_index();
  long id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<long>(spans_.size());
    s.t0_s = now();
    spans_.push_back(std::move(s));
  }
  open_stack.push_back(id);
  return id;
}

void SpanLog::end(long id) {
  const double t = now();
  open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1_s = t;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Scope::Scope(std::string name, std::string arg)
    : id_(SpanLog::instance().begin(std::move(name), std::move(arg))) {}

Scope::~Scope() { SpanLog::instance().end(id_); }

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.seconds();
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& lt = out[spans[i].name];
    lt.total_s += spans[i].seconds();
    lt.self_s += spans[i].seconds() - child_s[i];
    ++lt.calls;
  }
  return out;
}

std::string chrome_trace(const std::vector<Span>& spans) {
  namespace json = bricksim::json;
  json::Value events = json::Value::array();
  for (const Span& s : spans) {
    json::Value e = json::Value::object();
    e["name"] = s.name;
    e["cat"] = s.name.substr(0, s.name.find('.'));
    e["ph"] = "X";
    e["ts"] = s.t0_s * 1e6;
    e["dur"] = s.seconds() * 1e6;
    e["pid"] = 1;
    e["tid"] = s.tid;
    if (!s.arg.empty()) {
      json::Value args = json::Value::object();
      args["on"] = s.arg;
      e["args"] = args;
    }
    events.push_back(e);
  }
  json::Value doc = json::Value::object();
  doc["traceEvents"] = events;
  doc["displayTimeUnit"] = "ms";
  return doc.dump() + "\n";
}

}  // namespace perfbench
