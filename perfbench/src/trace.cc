#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;
  uint64_t op;
  bool in_window;
};

/// One thread's spans. Only its own thread appends; SummarizeTrace() and
/// WriteTrace() read it after the traced phase, once every worker has
/// been joined.
struct ThreadLog {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;
  uint64_t op = 0;
  int window_depth = 0;
  uint64_t window_ns = 0;
  uint64_t dropped = 0;
};

namespace {

/// Spans kept per thread; beyond it spans are counted as dropped so a
/// long traced run cannot exhaust memory.
constexpr size_t kMaxSpansPerThread = size_t{1} << 21;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_op{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu
thread_local ThreadLog* t_log = nullptr;

ThreadLog* LocalLog() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<uint32_t>(g_logs.size() - 1);
    t_log = g_logs.back().get();
  }
  return t_log;
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t colon = s.find(':');
  return colon == std::string::npos ? s : s.substr(0, colon);
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void ClearTrace() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& log : g_logs) {
    log->spans.clear();
    log->open.clear();
    log->window_ns = 0;
    log->dropped = 0;
  }
}

uint64_t NewTraceOp() {
  return g_next_op.fetch_add(1, std::memory_order_relaxed);
}

void SetTraceOp(uint64_t op) {
  if (TracingEnabled()) LocalLog()->op = op;
}

Span::Span(const char* name) {
  if (!TracingEnabled()) return;
  ThreadLog* log = LocalLog();
  if (log->spans.size() >= kMaxSpansPerThread) {
    ++log->dropped;
    return;
  }
  log_ = log;
  index_ = static_cast<int32_t>(log->spans.size());
  log->spans.push_back({name, NowNs(), 0,
                        log->open.empty() ? -1 : log->open.back(), log->op,
                        log->window_depth > 0});
  log->open.push_back(index_);
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  log_->open.pop_back();
}

TraceWindow::TraceWindow() {
  if (!TracingEnabled()) return;
  log_ = LocalLog();
  ++log_->window_depth;
  start_ns_ = NowNs();
}

TraceWindow::~TraceWindow() {
  if (log_ == nullptr) return;
  log_->window_ns += NowNs() - start_ns_;
  --log_->window_depth;
}

TraceSummary SummarizeTrace() {
  TraceSummary out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& log : g_logs) {
    const std::vector<SpanRecord>& spans = log->spans;
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0 && s.end_ns != 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    uint64_t top_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns == 0) continue;
      const uint64_t dur = s.end_ns - s.start_ns;
      out.self_ms[LayerOf(s.name)] +=
          static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e6;
      ++out.count[s.name];
      if (s.parent < 0 && s.in_window) top_ns += dur;
    }
    if (log->dropped > 0) {
      std::fprintf(stderr, "perfbench: thread %u dropped %llu spans\n",
                   log->thread,
                   static_cast<unsigned long long>(log->dropped));
    }
    out.gap_ms += (static_cast<double>(log->window_ns) -
                   static_cast<double>(top_ns)) /
                  1e6;
  }
  return out;
}

bool WriteTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,thread,op\n");
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& log : g_logs) {
      for (const SpanRecord& s : log->spans) {
        std::fprintf(f, "%s,%llu,%llu,%d,%u,%llu\n", s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns), s.parent,
                     log->thread, static_cast<unsigned long long>(s.op));
      }
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
