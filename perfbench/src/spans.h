#ifndef CYQR_PERFBENCH_SPANS_H_
#define CYQR_PERFBENCH_SPANS_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions; each has
// a name, start, end, parent span and request id, is kept in memory while
// the run lasts, and is written out once at the end.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace cyqr::perfbench {

struct Span {
  const char* name = "";  // Static string: "<layer>.<call>".
  int64_t id = 0;
  int64_t parent = 0;   // 0 for a root span.
  int64_t request = 0;  // Operation the span belongs to.
  double start_us = 0;  // Microseconds since the recorder's epoch.
  double end_us = 0;
  double value = 0;     // Count recorded at the same boundary, if any.
};

/// Collects spans from any thread. A thread accumulates the spans of one
/// operation in its own pending list (see ScopedSpan) and hands them over
/// with one Commit per operation, so the lock is taken once per operation.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double NowMicros() const;
  int64_t NextId();
  void Commit(std::vector<Span>* spans);
  std::vector<Span> Spans() const;

  /// Span durations by name, in microseconds.
  std::map<std::string, std::vector<double>> Durations() const;
  /// Span values by name.
  std::map<std::string, std::vector<double>> Values() const;
  /// Self time by name: each span's duration minus the part of its
  /// interval that its children cover.
  std::map<std::string, std::vector<double>> SelfTimes() const;

  /// Writes one line per span (name, id, parent, request, start, end,
  /// self, value) as tab-separated text.
  [[nodiscard]] Status WriteTsv(const std::string& path) const;

 private:
  const int64_t epoch_ns_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The spans one thread has opened or closed but not yet committed. The
/// innermost open ScopedSpan is the parent of the next one opened on the
/// same thread.
struct ThreadSpans {
  std::vector<Span> done;
  int64_t current_parent = 0;
  int64_t request = 0;
};

/// This thread's pending spans.
ThreadSpans& PendingSpans();

/// Times a scope into the calling thread's pending list. A null recorder
/// makes it a no-op, so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }
  void set_value(double value) { span_.value = value; }

 private:
  SpanRecorder* recorder_;
  Span span_;
  int64_t saved_parent_ = 0;
};

}  // namespace cyqr::perfbench

#endif  // CYQR_PERFBENCH_SPANS_H_
