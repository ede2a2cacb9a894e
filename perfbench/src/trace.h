#ifndef NATIX_PERFBENCH_TRACE_H_
#define NATIX_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark's own code around calls into the
// library and by its FileBackend / PageProvider decorators. Each span
// carries a name of the form "<layer>:<call>", its start and end, the span
// that was open on the same thread when it started (its parent), the
// thread, and the id of the op or query it belongs to. While tracing is
// off a Span costs one relaxed atomic load.
namespace perfbench {

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

/// Turns recording on or off for every thread.
void EnableTracing(bool on);
bool TracingEnabled();

/// Drops every recorded span and window (call with no span open).
void ClearTrace();

/// Fresh id for one op or query; spans opened on this thread until the
/// next SetTraceOp() carry it.
uint64_t NewTraceOp();
void SetTraceOp(uint64_t op);

/// RAII span. `name` must have static storage ("storage.backend:read").
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  struct ThreadLog* log_ = nullptr;
  int32_t index_ = -1;
};

/// Runs `f` inside a span named `name` and stores its wall time in `*ns`
/// (timed whether or not tracing is on).
template <typename F>
auto TimedCall(const char* name, uint64_t* ns, F&& f) {
  Span span(name);
  const uint64_t t0 = NowNs();
  auto result = f();
  *ns = NowNs() - t0;
  return result;
}

/// RAII marker of a worker thread's measured wall interval. gap_ms is
/// the summed window time minus the top-level spans opened inside
/// windows.
class TraceWindow {
 public:
  TraceWindow();
  ~TraceWindow();
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

 private:
  struct ThreadLog* log_ = nullptr;
  uint64_t start_ns_ = 0;
};

struct TraceSummary {
  /// Self time per layer in ms: each span's duration minus the part its
  /// child spans cover, summed by the layer prefix of the span name.
  std::map<std::string, double> self_ms;
  /// Spans per full span name.
  std::map<std::string, uint64_t> count;
  double gap_ms = 0;
};

/// Aggregates every span recorded since the last ClearTrace().
TraceSummary SummarizeTrace();

/// Writes every recorded span as CSV (name, start_ns, end_ns, parent,
/// thread, op). Returns false on an I/O error.
bool WriteTrace(const std::string& path);

}  // namespace perfbench

#endif  // NATIX_PERFBENCH_TRACE_H_
