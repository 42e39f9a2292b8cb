#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Length of the union of [start, end) intervals.
double UnionSeconds(std::vector<std::pair<Clock::time_point,
                                          Clock::time_point>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  bool open = false;
  Clock::time_point lo;
  Clock::time_point hi;
  for (const auto& [start, end] : intervals) {
    if (open && start <= hi) {
      hi = std::max(hi, end);
      continue;
    }
    if (open) covered += Seconds(hi - lo);
    lo = start;
    hi = end;
    open = true;
  }
  if (open) covered += Seconds(hi - lo);
  return covered;
}

// Per span: the time its children cover (the union of their intervals).
std::vector<double> ChildCoverage(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  std::vector<double> covered(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!children[i].empty()) covered[i] = UnionSeconds(std::move(children[i]));
  }
  return covered;
}

}  // namespace

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.thread = ThreadIndex();
  span.start = Clock::now();
  span.end = span.start;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end = now;
}

std::map<std::string, SpanTotals> Tracer::TotalsByName() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> covered = ChildCoverage(spans_);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double duration = Seconds(spans_[i].end - spans_[i].start);
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.self_s += std::max(0.0, duration - covered[i]);
  }
  return totals;
}

double Tracer::AttributedShare() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> covered = ChildCoverage(spans_);
  double roots = 0.0;
  double attributed = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    roots += Seconds(spans_[i].end - spans_[i].start);
    attributed += covered[i];
  }
  return roots > 0.0 ? attributed / roots : 0.0;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  std::fputs("{\"traceEvents\":[\n", out);
  for (size_t i = 0; i < std::min(spans_.size(), max_spans); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", name.c_str(), layer.c_str(), s.thread,
                 1e6 * Seconds(s.start - origin),
                 1e6 * Seconds(s.end - s.start),
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
