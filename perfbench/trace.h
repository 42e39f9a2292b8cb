// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public API (nothing inside src/ is instrumented). A span's
// name is "<layer>.<operation>", e.g. "bsp.profile"; the layer is the
// part before the first dot. Spans of one unit of work share a request
// id. Spans stay in memory until the run ends, when they are reduced to
// per-layer self times and written out as Chrome trace-event JSON.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // static string: "<layer>.<operation>"
  int64_t parent = -1;    // index of the enclosing span, -1 for a root
  uint64_t request = 0;
  uint32_t thread = 0;    // small per-thread index, for the trace viewer
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  uint64_t count = 0;
  double self_s = 0.0;  // durations minus the time covered by children
};

/// Thread-safe span store. Children may run on other threads than their
/// parent (the benchmark fans predictions out over a pool), so a root's
/// self time subtracts the union of its children's intervals, not their
/// sum. Below the roots every span's children run on its own thread,
/// one after another.
class Tracer {
 public:
  /// Opens a span and returns its index.
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t index);

  /// Totals per span name.
  std::map<std::string, SpanTotals> TotalsByName() const;

  /// Share of the roots' summed duration during which at least one
  /// child span was open: the part of the timed wall time the layer
  /// spans account for.
  double AttributedShare() const;

  /// Writes {"traceEvents": [...]} (complete "X" events, microseconds)
  /// for the first `max_spans` spans, which keeps the file loadable in a
  /// trace viewer.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. `tracer` may be null (untraced runs), making this a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             uint64_t request)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1
                                 : tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
