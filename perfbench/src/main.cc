// cyqr_perfbench: runs one workload of the end-to-end benchmark and prints
// its report; the last line of standard output is one JSON object.
//
//   cyqr_perfbench --workload search_head --seed 1 --seconds 10 --trace 0
//
// Workloads: search_head, search_tail, precompute, train (see README.md).
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced run. Exits 1 when a correctness check
// fails, 2 on bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common.h"
#include "src/report.h"

namespace {

using cyqr::perfbench::Report;
using cyqr::perfbench::RunOptions;

int Usage(const char* problem) {
  std::fprintf(stderr,
               "error: %s\nusage: cyqr_perfbench --workload "
               "search_head|search_tail|precompute|train --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               problem);
  return 2;
}

// Host-wide CPU ticks (all, stolen) from /proc/stat; zeros when unreadable.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0;
  double total = 0;
  double steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;  // user nice system idle iowait irq softirq steal
  }
  return {total, steal};
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out_dir = ".bench_build";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(("bad number for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::string& w = options.workload;
  if (w != "search_head" && w != "search_tail" && w != "precompute" &&
      w != "train") {
    return Usage("unknown workload");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  options.work_dir =
      out_dir + "/work/" + w + "-" + std::to_string(::getpid());
  options.span_path = out_dir + "/trace/" + w + ".spans.tsv";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (!ec) std::filesystem::create_directories(out_dir + "/trace", ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  // The host's stolen CPU time during the run goes to standard error: it is
  // what moves a run's timings most (see README.md, "Reference figures").
  const auto ticks_before = CpuTicks();
  Report report;
  if (options.trace) cyqr::perfbench::ReportPerLayerDefaults(&report);
  if (w == "search_head" || w == "search_tail") {
    cyqr::perfbench::RunSearch(options, w == "search_head", &report);
  } else if (w == "precompute") {
    cyqr::perfbench::RunPrecompute(options, &report);
  } else {
    cyqr::perfbench::RunTrain(options, &report);
  }
  if (!options.trace) {
    report.Set("peak_rss_mb", cyqr::perfbench::PeakRssMb(), "MB");
  }
  const auto ticks_after = CpuTicks();
  const double total = ticks_after.first - ticks_before.first;
  std::fprintf(stderr, "host cpu stolen during the run: %.2f%%\n",
               total > 0 ? 100.0 * (ticks_after.second - ticks_before.second) /
                               total
                         : 0.0);
  std::filesystem::remove_all(options.work_dir, ec);
  report.Print(w, options.trace);
  return report.Correct() ? 0 : 1;
}
