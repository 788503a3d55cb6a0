#include "src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cyqr::perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

constexpr double kHistogramLowUs = 0.1;
constexpr double kHistogramGrowth = 1.01;

}  // namespace

void LatencyHistogram::Add(double us) {
  const double position =
      std::log(std::max(us, kHistogramLowUs) / kHistogramLowUs) /
      std::log(kHistogramGrowth);
  ++counts_[std::min(static_cast<size_t>(position), kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(std::ceil(q * static_cast<double>(count_)),
                                 1.0, static_cast<double>(count_));
  int64_t below = 0;
  size_t i = 0;
  while (below + counts_[i] < rank) below += counts_[i++];
  const double within =
      (rank - static_cast<double>(below) - 0.5) / static_cast<double>(counts_[i]);
  return kHistogramLowUs *
         std::pow(kHistogramGrowth, static_cast<double>(i) + within);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Report::Check(const std::string& kind, bool ok,
                   const std::string& detail) {
  ++checks_run_[kind];
  if (!ok) {
    // Print the first few failures of each kind; the count says the rest.
    if (checks_failed_[kind]++ < 5) {
      std::fprintf(stderr, "check failed [%s]: %s\n", kind.c_str(),
                   detail.c_str());
    }
  }
  return ok;
}

void Report::Expect(const std::string& kind) { expected_.push_back(kind); }

bool Report::Correct() const {
  for (const auto& [kind, n] : checks_failed_) {
    if (n > 0) return false;
  }
  for (const std::string& kind : expected_) {
    if (checks_run_.count(kind) == 0) {
      std::fprintf(stderr, "check never ran: %s\n", kind.c_str());
      return false;
    }
  }
  return true;
}

void Report::Print(const std::string& workload, bool trace) const {
  const bool correct = Correct();
  std::printf("workload %s (%s run)\n", workload.c_str(),
              trace ? "traced" : "untraced");
  for (const auto& [kind, n] : checks_run_) {
    auto failed = checks_failed_.find(kind);
    std::printf("  check %-34s %8lld run %6lld failed\n", kind.c_str(),
                static_cast<long long>(n),
                static_cast<long long>(
                    failed == checks_failed_.end() ? 0 : failed->second));
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  operations attempted %lld failed %lld; correct: %s\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), correct ? "yes" : "NO");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace cyqr::perfbench
