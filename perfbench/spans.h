// In-memory span recorder for the traced benchmark run.
//
// A span is a named interval around one call into a BrickSim layer, with
// the span that was open on the same thread when it began as its parent.
// Spans are kept in memory and written out once at the end, as Chrome
// trace-event JSON plus self-time and per-config tables.  The recorder is
// the benchmark's own: the program under test carries no instrumentation.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  ///< layer boundary, e.g. "simt.replay"
  std::string arg;   ///< what the call worked on, e.g. a config key
  long parent = -1;  ///< index of the enclosing span on the same thread
  int tid = 0;
  double t0_s = 0, t1_s = 0;  ///< seconds since the recorder's epoch
  double seconds() const { return t1_s - t0_s; }
};

class SpanLog {
 public:
  static SpanLog& instance();

  long begin(std::string name, std::string arg);
  void end(long id);
  std::vector<Span> spans() const;

  /// Seconds since the recorder was created.
  double now() const;

 private:
  SpanLog();
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: open for the lifetime of the object.
class Scope {
 public:
  Scope(std::string name, std::string arg = "");
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  long id_;
};

/// Runs `f` inside a span and returns its result.
template <class F>
auto timed(const char* name, const std::string& arg, F&& f) {
  Scope s(name, arg);
  return f();
}

/// Total and self seconds per span name.  Self time is the span's duration
/// minus the part its direct children cover.
struct LayerTime {
  double total_s = 0;
  double self_s = 0;
  long calls = 0;
};
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
std::string chrome_trace(const std::vector<Span>& spans);

}  // namespace perfbench
