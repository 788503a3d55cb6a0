#ifndef CYQR_PERFBENCH_COMMON_H_
#define CYQR_PERFBENCH_COMMON_H_

// Pieces every workload shares: run options, repeated set-up, the search
// page (merged retrieval + ranking) with its checks, and the metric lists.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/retrieval.h"
#include "src/report.h"
#include "src/setup.h"
#include "src/spans.h"

namespace cyqr::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // Scratch files of this run (removed at exit).
  std::string span_path;  // Where a traced run writes its spans.
};

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time in milliseconds of the calling thread, or of the whole process
/// (every thread, user and system). The kernel leaves out of both the time
/// the hypervisor gave the vCPU to other tenants (paravirtual steal-time
/// accounting), and neither counts time a blocked thread waited to be
/// woken, so on a shared host they follow the program's own work.
double ThreadCpuMillis();
double ProcessCpuMillis();

/// The speed of a vCPU on a shared host moves by a fifth or more within
/// seconds, as other tenants load the core's float units and caches, and
/// the CPU time of the same work moves with it: precompute's identical
/// rounds took 500-860 ms of CPU time within one run. A reference slice, a
/// fixed float matrix product the size of the models' own, run on the
/// benchmark's thread between operations, measures that speed; over those
/// rounds its time followed the rounds' with a correlation of 0.96. The
/// timings are reported in reference milliseconds (unit ref_ms): CPU
/// milliseconds scaled to the speed at which one slice takes
/// kReferenceSliceMs.
inline constexpr double kReferenceSliceMs = 0.3;

/// Reference slices run on one thread, and their CPU time.
class SpeedProbe {
 public:
  /// Runs one slice on the calling thread; returns its CPU time in ms.
  double Run();
  void Merge(const SpeedProbe& other);
  /// ref_ms per CPU ms at the mean speed of the slices run; 1 when none ran.
  double Scale() const;
  double slice_ms() const { return slice_ms_; }
  int64_t slices() const { return slices_; }

 private:
  double slice_ms_ = 0;
  int64_t slices_ = 0;
};

/// Set-up is run at least kSetupRepetitions times per run, and more while
/// the repetitions have taken less than kSetupMinSeconds (at most
/// kSetupMaxRepetitions); setup_s is the median. A set-up of tens of
/// milliseconds is then timed over a second, not three short samples.
inline constexpr int kSetupRepetitions = 3;
inline constexpr int kSetupMaxRepetitions = 25;
inline constexpr double kSetupMinSeconds = 1.0;

/// Runs Setup as above, checks that every repetition built
/// bit-identical models and cache, reports setup_s (untraced run) or the
/// per-phase medians (traced run), and returns the last Env.
std::unique_ptr<Env> SetupRepeated(const SetupSpec& spec,
                                   const RunOptions& options,
                                   Report* report);

/// Sets every per-layer metric to 0 with its unit; a workload then
/// overwrites the ones its layers measure (0 = the layer does no work in
/// this workload).
void ReportPerLayerDefaults(Report* report);

/// Median of `by_name[name]` times `scale`; 0 when no span has that name.
double MedianOf(const std::map<std::string, std::vector<double>>& by_name,
                const char* name, double scale = 1);

/// Writes a traced run's spans to options.span_path (a failure to write is
/// reported on standard error; the run's figures do not depend on it).
void WriteSpans(const SpanRecorder& recorder, const RunOptions& options);

/// Reports the tracing overhead: the traced phase's op_p50 against the
/// untraced phase's.
void ReportTraceOverhead(double untraced_p50, double traced_p50,
                         Report* report);

/// One search result page: merged-tree retrieval over the query and its
/// rewrites, then the ranker over the candidates.
struct Page {
  RetrievalEngine::Result merged;
  std::vector<Bm25Scorer::Scored> ranked;
};

std::vector<std::vector<std::string>> QueryWithRewrites(
    const std::vector<std::string>& query,
    const std::vector<std::vector<std::string>>& rewrites);

/// Computes a page through the public untraced path (RetrieveMerged +
/// Rank) and checks it: the merged result covers RetrieveSeparate, and the
/// ranking is ordered by PairwiseRanker::Score recomputed per document.
Page CheckedPage(const Env& env, const std::vector<std::string>& query,
                 const std::vector<std::vector<std::string>>& rewrites,
                 Report* report);

/// Share of the top kPageSize slots holding a product whose MatchScore
/// against `intent` is above 0; a missing slot counts as a miss.
double IntentHitAt10(const Env& env, const QueryIntent& intent,
                     const std::vector<Bm25Scorer::Scored>& ranked);

/// Popularity-weighted means of intent_hit_at_10 and rewrite_relevance over
/// `queries`, given each query's rewrites and page.
struct Quality {
  double intent_hit_at_10 = 0;
  double rewrite_relevance = 0;
};
Quality WeightedQuality(
    const Env& env, const std::vector<int64_t>& queries,
    const std::vector<std::vector<std::vector<std::string>>>& rewrites,
    const std::vector<Page>& pages);

/// Timing figures, in ref_ms: the process's CPU time per operation, and
/// percentiles of the time of one operation (see README.md for what an
/// operation's time is on each workload).
struct Figures {
  double cpu_per_op = 0;
  double op_p50 = 0;
  double op_p99 = 0;
};

/// Figures over a stretch of operations that took `op_ms` each while the
/// process spent `cpu_ms` of CPU time, both in milliseconds at a speed
/// whose SpeedProbe::Scale is `scale`; the percentiles are taken over all
/// of them.
Figures SpanFigures(const std::vector<double>& op_ms, double cpu_ms,
                    double scale);

/// A timed phase is a run of rounds that each repeat the same work
/// (precompute: one pass over the queries; train: one job) or last the
/// same time (search), and the phase's figures are the median of each
/// figure over its rounds: a change that slows half the rounds or more
/// shows in full. `whole` (the figures over the whole phase), the phase's
/// wall-clock rate `ops_per_s`, the rounds' CPU costs and the reference
/// slice times behind `scales` go to standard error beside it.
Figures MedianOfRounds(const std::string& what,
                       const std::vector<Figures>& rounds, const Figures& whole,
                       double ops_per_s, const std::vector<double>& scales);

/// MedianOfRounds for a phase of rounds of `per_round` operations each,
/// except that op_p99 is taken over every op of the phase, each scaled by
/// its round's speed; `op_ms` holds the rounds' operation times one round
/// after another, `round_cpu_ms` the process CPU time of each round and
/// `round_scales` its SpeedProbe::Scale.
Figures FiguresOfRounds(const std::string& what,
                        const std::vector<double>& round_cpu_ms,
                        const std::vector<double>& round_scales,
                        const std::vector<double>& op_ms, size_t per_round,
                        double phase_seconds);

/// Records a self-test outcome: `verdict` is what a check returned on a
/// deliberately corrupted output, and must be a rejection.
void SelfTest(const std::string& kind, const std::string& verdict,
              Report* report);

// The four workloads (search.cc, precompute.cc, train.cc).
void RunSearch(const RunOptions& options, bool head, Report* report);
void RunPrecompute(const RunOptions& options, Report* report);
void RunTrain(const RunOptions& options, Report* report);

}  // namespace cyqr::perfbench

#endif  // CYQR_PERFBENCH_COMMON_H_
