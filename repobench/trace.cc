#include "trace.h"

#include <chrono>
#include <cstdio>

namespace nlq::repobench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int32_t SpanLog::Begin(const char* name, uint64_t op_id) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op_id = op_id;
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a skipped level.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, SpanTimes> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTimes> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t total = spans[i].end_ns - spans[i].start_ns;
      SpanTimes& t = out[spans[i].name];
      t.total_ms.Add(static_cast<double>(total) / 1e6);
      t.self_ms.Add(static_cast<double>(total - child_ns[i]) / 1e6);
    }
  }
  return out;
}

Status WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i, s.parent, static_cast<unsigned long long>(s.op_id),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace nlq::repobench
