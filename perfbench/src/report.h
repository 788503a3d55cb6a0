#ifndef CYQR_PERFBENCH_REPORT_H_
#define CYQR_PERFBENCH_REPORT_H_

// What one benchmark run reports: its metrics with units, the operations
// it attempted and how many failed, and the outcome of every correctness
// check. The last line printed is one JSON object the run script parses.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cyqr::perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Durations in microseconds, counted into log-scale buckets 1% wide from
/// 0.1 us to about 100 s. Its memory is fixed, so a run that completes more
/// operations does not grow the harness's resident set.
class LatencyHistogram {
 public:
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  /// Nearest-rank percentile (q in [0, 1]), placed within its bucket by
  /// the rank's position among the bucket's values; 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr size_t kBuckets = 2100;
  std::array<int64_t, kBuckets> counts_{};
  int64_t count_ = 0;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Records one correctness check of kind `kind`; a false `ok` marks the
  /// run incorrect and prints `detail`. Returns `ok`.
  bool Check(const std::string& kind, bool ok, const std::string& detail);
  /// Declares a check kind the run must execute at least once: a run in
  /// which a declared kind never ran is not correct, so a passing run
  /// means its checks ran.
  void Expect(const std::string& kind);

  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// True when every check passed and every expected check kind ran.
  bool Correct() const;

  /// Prints the human-readable report to stdout, then the JSON line.
  void Print(const std::string& workload, bool trace) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, int64_t> checks_run_;
  std::map<std::string, int64_t> checks_failed_;
  std::vector<std::string> expected_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace cyqr::perfbench

#endif  // CYQR_PERFBENCH_REPORT_H_
