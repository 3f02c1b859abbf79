#ifndef NLQ_REPOBENCH_TRACE_H_
#define NLQ_REPOBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sample_stats.h"

namespace nlq::repobench {

/// One timed call from the benchmark into a layer. Spans nest on the
/// thread that opened them; `parent` indexes the same log.
struct Span {
  const char* name = "";  // a string literal or a static class name
  int64_t start_ns = 0;   // steady clock, since the process started
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t op_id = 0;
};

/// Spans of one driving thread, kept in memory until the run ends. A
/// disabled log records nothing, so untraced runs pay one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int32_t Begin(const char* name, uint64_t op_id);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op_id = 0)
      : log_(log), id_(log->enabled() ? log->Begin(name, op_id) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Nanoseconds on the steady clock since the process started.
int64_t NowNs();

/// Per span name: every span's duration and self time (duration minus
/// the time its child spans cover), in milliseconds.
struct SpanTimes {
  Samples total_ms;
  Samples self_ms;
};
std::map<std::string, SpanTimes> SummarizeSpans(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line:
/// {"thread":0,"id":3,"parent":1,"op":17,"name":"engine.execute",
///  "start_ns":...,"end_ns":...}
Status WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs);

}  // namespace nlq::repobench

#endif  // NLQ_REPOBENCH_TRACE_H_
