#include "src/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace cyqr::perfbench {

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Self time of every span, indexed like `spans`.
std::vector<double> ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    children[it->second].push_back({s.start_us, s.end_us});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double begin = spans[i].start_us;
    const double end = spans[i].end_us;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = begin;  // Right edge of the union covered so far.
    for (const auto& [kid_begin, kid_end] : kids) {
      const double lo = std::max(kid_begin, reach);
      const double hi = std::min(kid_end, end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(kid_end, end));
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_ns_(SteadyNanos()) {}

double SpanRecorder::NowMicros() const {
  return static_cast<double>(SteadyNanos() - epoch_ns_) / 1e3;
}

int64_t SpanRecorder::NextId() {
  // ordering: relaxed — ids only need to be unique, not ordered.
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void SpanRecorder::Commit(std::vector<Span>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> SpanRecorder::Durations() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : Spans()) out[s.name].push_back(s.end_us - s.start_us);
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::Values() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : Spans()) out[s.name].push_back(s.value);
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfTimes() const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = ComputeSelfTimes(spans);
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(self[i]);
  }
  return out;
}

Status SpanRecorder::WriteTsv(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = ComputeSelfTimes(spans);
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << "name\tid\tparent\trequest\tstart_us\tend_us\tself_us\tvalue\n";
  char line[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line), "%s\t%lld\t%lld\t%lld\t%.3f\t%.3f\t%.3f\t%g\n",
                  s.name, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request), s.start_us, s.end_us,
                  self[i], s.value);
    out << line;
  }
  out.close();
  if (!out) return Status::IoError("failed writing " + path);
  return Status::OK();
}

ThreadSpans& PendingSpans() {
  thread_local ThreadSpans pending;
  return pending;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  ThreadSpans& pending = PendingSpans();
  span_.name = name;
  span_.id = recorder_->NextId();
  span_.parent = pending.current_parent;
  span_.request = pending.request;
  saved_parent_ = pending.current_parent;
  pending.current_parent = span_.id;
  span_.start_us = recorder_->NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_us = recorder_->NowMicros();
  ThreadSpans& pending = PendingSpans();
  pending.current_parent = saved_parent_;
  pending.done.push_back(span_);
}

}  // namespace cyqr::perfbench
