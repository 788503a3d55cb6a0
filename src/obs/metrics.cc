#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "core/check.h"
#include "core/file_util.h"

namespace cyqr {

namespace {

/// Relaxed CAS add for atomic doubles (libstdc++'s fetch_add on
/// atomic<double> is a CAS loop anyway; writing it out keeps the memory
/// order explicit).
void AtomicAdd(std::atomic<double>* target, double delta) {
  // ordering: relaxed — the CAS loop guarantees lossless accumulation; the
  // value publishes nothing else.
  double current = target->load(std::memory_order_relaxed);
  // ordering: relaxed — the CAS loop needs only atomicity of this double; it
  // publishes nothing else.
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  // ordering: relaxed — CAS loop keeps the max exact; the value publishes
  // nothing else.
  double current = target->load(std::memory_order_relaxed);
  // ordering: relaxed — the CAS loop needs only atomicity of this double; it
  // publishes nothing else.
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

/// The unit vocabulary of the naming convention. `per_sec` is special-cased
/// in IsValidMetricName because it spans two segments.
const char* const kUnitSuffixes[] = {
    "total", "millis", "micros", "seconds", "bytes", "tokens",
    "ratio", "count",  "state",  "norm",    "value",
};

/// Canonical sorted-label key used to identify one instrument inside a
/// family. 0x1f separators cannot appear in validated names/labels.
std::string LabelKey(const MetricLabels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return key;
}

MetricLabels SortedLabels(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  for (const auto& [k, v] : labels) {
    CYQR_CHECK_MSG(!k.empty(), "metric label keys must be non-empty");
  }
  return labels;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Renders `{k="v",...}` (empty string for no labels); `extra` appends one
/// more pair (the histogram `le` label).
std::string LabelBlock(const MetricLabels& labels,
                       const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

/// Compact deterministic number rendering: integers print without a
/// decimal point; everything else gets shortest-ish %g.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return value > 0 ? "+Inf" : (value < 0 ? "-Inf" : "NaN");
  }
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

/// JSON value rendering: non-finite doubles become null (valid JSON).
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return FormatNumber(value);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonLabels(const MetricLabels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(k);
    out += "\": \"";
    out += JsonEscape(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Lowercase-hex rendering of an exemplar trace id (matches the /tracez
/// display format, so an id scraped from /metrics greps straight into it).
std::string TraceIdHex(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

void Gauge::Add(double delta) { AtomicAdd(&value_, delta); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  CYQR_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    CYQR_CHECK_MSG(bounds_[i] < bounds_[i + 1],
                   "histogram bounds must be strictly increasing");
  }
  const size_t n = bounds_.size() + 1;
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(n);
  exemplars_ = std::make_unique<ExemplarSlot[]>(n);
  for (size_t i = 0; i < n; ++i) {
    // ordering: relaxed — zeroes a just-allocated array before any reader can
    // hold a reference to it.
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<double> Histogram::DefaultLatencyBoundsMillis() {
  return {0.05, 0.1, 0.25, 0.5, 1.0,   2.5,   5.0,   10.0,
          25.0, 50.0, 100.0, 250.0, 500.0, 1000.0};
}

std::vector<double> Histogram::DefaultTimeBoundsMicros() {
  return {10.0, 50.0,  100.0, 500.0, 1e3, 5e3,
          1e4,  5e4,   1e5,   5e5,   1e6, 5e6};
}

void Histogram::Observe(double value, uint64_t exemplar_id) {
  // Linear scan instead of binary search: latency distributions put most
  // observations in the first buckets, so the common case is one or two
  // well-predicted comparisons (lower_bound mispredicts ~log2(n) times).
  const size_t n = bounds_.size();
  size_t bucket = n;
  for (size_t i = 0; i < n; ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  // ordering: relaxed — observability counter/snapshot; no other memory is
  // published or consumed through it.
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  if (exemplar_id != 0) {
    // ordering: relaxed — exemplars are last-writer-wins breadcrumbs;
    // tearing across the (id, value) pair is accepted by contract.
    exemplars_[bucket].trace_id.store(exemplar_id,
                                      std::memory_order_relaxed);
    // ordering: relaxed — same breadcrumb contract as the id store above.
    exemplars_[bucket].value.store(value, std::memory_order_relaxed);
  }
  AtomicAdd(&sum_, value);
  AtomicMax(&max_, value);
}

uint64_t Histogram::ExemplarTraceId(size_t i) const {
  CYQR_CHECK_LE(i, bounds_.size());
  // ordering: relaxed — breadcrumb snapshot; staleness is acceptable.
  return exemplars_[i].trace_id.load(std::memory_order_relaxed);
}

double Histogram::ExemplarValue(size_t i) const {
  CYQR_CHECK_LE(i, bounds_.size());
  // ordering: relaxed — breadcrumb snapshot; staleness is acceptable.
  return exemplars_[i].value.load(std::memory_order_relaxed);
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    // ordering: relaxed — stat snapshot for reporting; a stale value is
    // acceptable.
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  const int64_t n = Count();
  return n > 0 ? Sum() / static_cast<double>(n) : 0.0;
}

int64_t Histogram::BucketCount(size_t i) const {
  CYQR_CHECK_LE(i, bounds_.size());
  // ordering: relaxed — stat snapshot for reporting; a stale value is
  // acceptable.
  return buckets_[i].load(std::memory_order_relaxed);
}

double Histogram::QuantileEstimate(double q) const {
  const int64_t total = Count();
  if (total <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  const size_t n = bounds_.size();
  int64_t cumulative = 0;
  for (size_t i = 0; i <= n; ++i) {
    const int64_t in_bucket = BucketCount(i);
    if (in_bucket == 0) continue;
    const int64_t previous = cumulative;
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    if (i == n) return Max();  // Overflow bucket: best answer is the max.
    const double lower = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
    const double upper = bounds_[i];
    const double fraction = std::max(
        0.0, (rank - static_cast<double>(previous)) /
                 static_cast<double>(in_bucket));
    return std::min(lower + fraction * (upper - lower), Max());
  }
  return Max();
}

bool IsValidMetricName(const std::string& name) {
  if (name.rfind("cyqr_", 0) != 0) return false;
  if (name.back() == '_' || name.find("__") != std::string::npos) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  // cyqr_<layer>_<name>_<unit>: at least four segments.
  if (std::count(name.begin(), name.end(), '_') < 3) return false;
  if (name.ends_with("_per_sec")) return true;
  const size_t last = name.rfind('_');
  const std::string unit = name.substr(last + 1);
  for (const char* known : kUnitSuffixes) {
    if (unit == known) return true;
  }
  return false;
}

MetricsRegistry::Family* MetricsRegistry::GetFamily(const std::string& name,
                                                    Kind kind) {
  CYQR_CHECK_MSG(IsValidMetricName(name), name.c_str());
  Family& family = families_[name];
  if (family.instruments.empty()) {
    family.kind = kind;
  } else {
    CYQR_CHECK_MSG(family.kind == kind,
                   "instrument re-registered with a different type");
  }
  return &family;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  MetricLabels sorted = SortedLabels(labels);
  const std::string key = LabelKey(sorted);
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, Kind::kCounter);
  Instrument& inst = family->instruments[key];
  if (inst.counter == nullptr) {
    inst.labels = std::move(sorted);
    inst.counter = std::make_unique<Counter>();
  }
  return inst.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  MetricLabels sorted = SortedLabels(labels);
  const std::string key = LabelKey(sorted);
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, Kind::kGauge);
  Instrument& inst = family->instruments[key];
  if (inst.gauge == nullptr) {
    inst.labels = std::move(sorted);
    inst.gauge = std::make_unique<Gauge>();
  }
  return inst.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds,
                                         const MetricLabels& labels) {
  MetricLabels sorted = SortedLabels(labels);
  const std::string key = LabelKey(sorted);
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, Kind::kHistogram);
  Instrument& inst = family->instruments[key];
  if (inst.histogram == nullptr) {
    inst.labels = std::move(sorted);
    inst.histogram = std::make_unique<Histogram>(bounds);
  } else {
    CYQR_CHECK_MSG(inst.histogram->bounds() == bounds,
                   "histogram re-registered with different bounds");
  }
  return inst.histogram.get();
}

std::string MetricsRegistry::ExpositionText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    const char* type = family.kind == Kind::kCounter   ? "counter"
                       : family.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    out += "# TYPE " + name + " " + type + "\n";
    for (const auto& [key, inst] : family.instruments) {
      (void)key;
      if (family.kind == Kind::kCounter) {
        out += name + LabelBlock(inst.labels) + " " +
               FormatNumber(static_cast<double>(inst.counter->Value())) +
               "\n";
      } else if (family.kind == Kind::kGauge) {
        out += name + LabelBlock(inst.labels) + " " +
               FormatNumber(inst.gauge->Value()) + "\n";
      } else {
        const Histogram& h = *inst.histogram;
        // OpenMetrics-style exemplar suffix: a bucket that saw an exemplar
        // appends ` # {trace_id="<hex>"} <value>` — the join key into
        // /tracez for one concrete request that landed in that bucket.
        const auto exemplar_suffix = [&h](size_t i) -> std::string {
          const uint64_t id = h.ExemplarTraceId(i);
          if (id == 0) return "";
          return " # {trace_id=\"" + TraceIdHex(id) + "\"} " +
                 FormatNumber(h.ExemplarValue(i));
        };
        int64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          out += name + "_bucket" +
                 LabelBlock(inst.labels,
                            "le=\"" + FormatNumber(h.bounds()[i]) + "\"") +
                 " " + FormatNumber(static_cast<double>(cumulative)) +
                 exemplar_suffix(i) + "\n";
        }
        out += name + "_bucket" +
               LabelBlock(inst.labels, "le=\"+Inf\"") + " " +
               FormatNumber(static_cast<double>(h.Count())) +
               exemplar_suffix(h.bounds().size()) + "\n";
        out += name + "_sum" + LabelBlock(inst.labels) + " " +
               FormatNumber(h.Sum()) + "\n";
        out += name + "_count" + LabelBlock(inst.labels) + " " +
               FormatNumber(static_cast<double>(h.Count())) + "\n";
      }
    }
  }
  return out;
}

std::string MetricsRegistry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const auto& [name, family] : families_) {
    for (const auto& [key, inst] : family.instruments) {
      (void)key;
      const std::string head = "    {\"name\": \"" + JsonEscape(name) +
                               "\", \"labels\": " + JsonLabels(inst.labels);
      if (family.kind == Kind::kCounter) {
        if (!counters.empty()) counters += ",\n";
        counters += head + ", \"value\": " +
                    JsonNumber(static_cast<double>(inst.counter->Value())) +
                    "}";
      } else if (family.kind == Kind::kGauge) {
        if (!gauges.empty()) gauges += ",\n";
        gauges += head + ", \"value\": " + JsonNumber(inst.gauge->Value()) +
                  "}";
      } else {
        const Histogram& h = *inst.histogram;
        if (!histograms.empty()) histograms += ",\n";
        std::string buckets;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          if (!buckets.empty()) buckets += ", ";
          buckets += "{\"le\": " + JsonNumber(h.bounds()[i]) +
                     ", \"count\": " +
                     JsonNumber(static_cast<double>(h.BucketCount(i))) + "}";
        }
        buckets += buckets.empty() ? "" : ", ";
        buckets +=
            "{\"le\": \"+Inf\", \"count\": " +
            JsonNumber(static_cast<double>(h.BucketCount(h.bounds().size()))) +
            "}";
        histograms += head +
                      ", \"count\": " +
                      JsonNumber(static_cast<double>(h.Count())) +
                      ", \"sum\": " + JsonNumber(h.Sum()) +
                      ", \"max\": " + JsonNumber(h.Max()) +
                      ", \"mean\": " + JsonNumber(h.Mean()) +
                      ", \"p50\": " + JsonNumber(h.QuantileEstimate(0.5)) +
                      ", \"p90\": " + JsonNumber(h.QuantileEstimate(0.9)) +
                      ", \"p99\": " + JsonNumber(h.QuantileEstimate(0.99)) +
                      ", \"buckets\": [" + buckets + "]}";
      }
    }
  }
  return "{\n  \"version\": 1,\n  \"counters\": [\n" + counters +
         "\n  ],\n  \"gauges\": [\n" + gauges +
         "\n  ],\n  \"histograms\": [\n" + histograms + "\n  ]\n}\n";
}

Status MetricsRegistry::WriteJsonSnapshot(const std::string& path) const {
  // Atomic (temp + fsync + rename): a scraper or the bench checker reading
  // mid-write sees the previous complete snapshot, never a torn file.
  return WriteStringToFileAtomic(path, JsonSnapshot());
}

Status MetricsRegistry::WriteExpositionText(const std::string& path) const {
  return WriteStringToFileAtomic(path, ExpositionText());
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked so instruments resolved at static-init time stay
  // valid through static destruction at process exit.
  static MetricsRegistry* global =
      new MetricsRegistry();  // NOLINT(cyqr-raw-owning-new)
  return *global;
}

}  // namespace cyqr
