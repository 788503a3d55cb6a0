#include "src/common.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/stopwatch.h"
#include "src/checks.h"

namespace cyqr::perfbench {

namespace {

// What two set-ups must agree on, bit for bit.
struct SetupFingerprint {
  std::vector<std::vector<float>> cycle;
  std::vector<std::vector<float>> direct;
  std::vector<double> ranker;
  std::vector<std::pair<std::string, RewriteKvStore::Rewrites>> head;
};

SetupFingerprint Fingerprint(const Env& env) {
  SetupFingerprint f;
  if (env.cycle != nullptr) f.cycle = ParameterValues(env.cycle->Parameters());
  if (env.direct != nullptr) {
    f.direct = ParameterValues(env.direct->model().Parameters());
  }
  f.ranker = env.ranker->weights();
  f.head = env.head_entries;
  return f;
}

// Per-layer metrics with their units, in report order.
constexpr const char* kPerLayer[][2] = {
    {"serving.queue_wait_us", "us"},
    {"serving.serve_us", "us"},
    {"serving.cache_lookup_us", "us"},
    {"serving.cache_hit_ratio", "ratio"},
    {"serving.model_rewrite_ms", "ms"},
    {"serving.kv_publish_ms", "ms"},
    {"index.merge_us", "us"},
    {"index.retrieve_us", "us"},
    {"index.postings_scanned", "count"},
    {"index.candidates", "count"},
    {"eval.rank_us", "us"},
    {"eval.rank_us_per_candidate", "us"},
    {"nmt.encode_us", "us"},
    {"nmt.step_us", "us"},
    {"nmt.score_ms", "ms"},
    {"decode.beam_ms", "ms"},
    {"decode.topn_ms", "ms"},
    {"decode.steps_per_query", "count"},
    {"rewrite.warmup_step_ms", "ms"},
    {"rewrite.joint_step_ms", "ms"},
    {"rewrite.checkpoint_ms", "ms"},
    {"core.collective_wait_ms_per_step", "ms"},
    {"datagen.world_s", "s"},
    {"index.build_s", "s"},
    {"eval.ranker_train_s", "s"},
    {"rewrite.setup_train_s", "s"},
    {"serving.head_cache_s", "s"},
    {"trace.untraced_op_p50", "ref_ms"},
    {"trace.traced_op_p50", "ref_ms"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void ReportPerLayerDefaults(Report* report) {
  for (const auto& [name, unit] : kPerLayer) report->Set(name, 0, unit);
}

std::unique_ptr<Env> SetupRepeated(const SetupSpec& spec,
                                   const RunOptions& options,
                                   Report* report) {
  std::vector<double> totals;
  std::vector<double> world, index, ranker, train, head_cache;
  std::unique_ptr<Env> env;
  SetupFingerprint first;
  double spent_s = 0;
  for (int rep = 0; rep < kSetupMaxRepetitions; ++rep) {
    if (rep >= kSetupRepetitions && spent_s >= kSetupMinSeconds) break;
    env.reset();  // The previous repetition's memory goes first.
    Stopwatch watch;
    env = Setup(spec);
    totals.push_back(watch.ElapsedSeconds());
    spent_s += totals.back();
    world.push_back(env->phases.world_s);
    index.push_back(env->phases.index_s);
    ranker.push_back(env->phases.ranker_s);
    train.push_back(env->phases.train_s);
    head_cache.push_back(env->phases.head_cache_s);
    if (rep == 0) {
      first = Fingerprint(*env);
      continue;
    }
    const SetupFingerprint again = Fingerprint(*env);
    std::string verdict = CheckParamsIdentical(first.cycle, again.cycle);
    if (verdict.empty()) verdict = CheckParamsIdentical(first.direct, again.direct);
    if (verdict.empty() && (first.ranker != again.ranker ||
                            first.head != again.head)) {
      verdict = "ranker weights or head cache differ";
    }
    report->Check("setup.deterministic", verdict.empty(),
                  "set-up repetition " + std::to_string(rep) + ": " + verdict);
  }
  if (options.trace) {
    report->Set("datagen.world_s", Median(world), "s");
    report->Set("index.build_s", Median(index), "s");
    report->Set("eval.ranker_train_s", Median(ranker), "s");
    report->Set("rewrite.setup_train_s", Median(train), "s");
    report->Set("serving.head_cache_s", Median(head_cache), "s");
  } else {
    report->Set("setup_s", Median(totals), "s");
  }
  std::fprintf(stderr, "set-up: %zu repetitions, median %.3f s\n",
               totals.size(), Median(totals));
  return env;
}

double MedianOf(const std::map<std::string, std::vector<double>>& by_name,
                const char* name, double scale) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Median(it->second) * scale;
}

void WriteSpans(const SpanRecorder& recorder, const RunOptions& options) {
  const Status written = recorder.WriteTsv(options.span_path);
  if (!written.ok()) {
    std::fprintf(stderr, "span file not written: %s\n",
                 written.ToString().c_str());
  }
}

void ReportTraceOverhead(double untraced_p50, double traced_p50,
                         Report* report) {
  report->Set("trace.untraced_op_p50", untraced_p50, "ref_ms");
  report->Set("trace.traced_op_p50", traced_p50, "ref_ms");
  report->Set("trace.overhead_pct",
              untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0)
                               : 0.0,
              "%");
}

std::vector<std::vector<std::string>> QueryWithRewrites(
    const std::vector<std::string>& query,
    const std::vector<std::vector<std::string>>& rewrites) {
  std::vector<std::vector<std::string>> out;
  out.reserve(rewrites.size() + 1);
  out.push_back(query);
  out.insert(out.end(), rewrites.begin(), rewrites.end());
  return out;
}

Page CheckedPage(const Env& env, const std::vector<std::string>& query,
                 const std::vector<std::vector<std::string>>& rewrites,
                 Report* report) {
  const auto queries = QueryWithRewrites(query, rewrites);
  Page page;
  page.merged = env.engine->RetrieveMerged(queries);
  const RetrievalEngine::Result separate = env.engine->RetrieveSeparate(queries);
  const std::string covers =
      CheckMergedCoversSeparate(page.merged.docs, separate.docs);
  report->Check("index.merged_covers_separate", covers.empty(), covers);
  page.ranked = env.ranker->Rank(query, page.merged.docs);
  const auto score = [&env, &query](DocId doc) {
    return env.ranker->Score(query, doc);
  };
  const std::string order =
      CheckRankOrder(page.ranked, page.merged.docs, score);
  report->Check("eval.rank_order", order.empty(), order);
  return page;
}

double IntentHitAt10(const Env& env, const QueryIntent& intent,
                     const std::vector<Bm25Scorer::Scored>& ranked) {
  int64_t hits = 0;
  for (size_t i = 0; i < ranked.size() && i < size_t(kPageSize); ++i) {
    if (env.catalog.MatchScore(intent, env.catalog.product(ranked[i].doc)) >
        0) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(kPageSize);
}

Quality WeightedQuality(
    const Env& env, const std::vector<int64_t>& queries,
    const std::vector<std::vector<std::vector<std::string>>>& rewrites,
    const std::vector<Page>& pages) {
  double weight = 0;
  double hits = 0;
  double relevance = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QuerySpec& q = env.log.queries()[queries[i]];
    const double w = env.log.query_popularity()[queries[i]];
    weight += w;
    hits += w * IntentHitAt10(env, q.intent, pages[i].ranked);
    relevance += w * env.judge->ScoreSet(q.intent, rewrites[i]);
  }
  Quality quality;
  if (weight > 0) {
    quality.intent_hit_at_10 = hits / weight;
    quality.rewrite_relevance = relevance / weight;
  }
  return quality;
}

double ThreadCpuMillis() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ProcessCpuMillis() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double SpeedProbe::Run() {
  // A 32 x 32 float matrix product, repeated: the models' d_model is 32.
  constexpr int kN = 32;
  constexpr int kRepetitions = 100;
  static thread_local float x[kN * kN], y[kN * kN], z[kN * kN];
  for (int i = 0; i < kN * kN; ++i) {
    x[i] = 1.0f + static_cast<float>(i % 7) * 1e-3f;
    y[i] = 1.0f - static_cast<float>(i % 5) * 1e-3f;
  }
  const double start = ThreadCpuMillis();
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (int i = 0; i < kN; ++i) {
      float* row = z + i * kN;
      for (int j = 0; j < kN; ++j) row[j] = 0;
      for (int k = 0; k < kN; ++k) {
        const float xik = x[i * kN + k];
        for (int j = 0; j < kN; ++j) row[j] += xik * y[k * kN + j];
      }
    }
    // Feed the product back so that no repetition can be skipped.
    x[rep % (kN * kN)] = z[(rep * 7) % (kN * kN)] * 1e-3f;
  }
  const double spent_ms = ThreadCpuMillis() - start;
  slice_ms_ += spent_ms;
  ++slices_;
  return spent_ms;
}

void SpeedProbe::Merge(const SpeedProbe& other) {
  slice_ms_ += other.slice_ms_;
  slices_ += other.slices_;
}

double SpeedProbe::Scale() const {
  return slices_ > 0 && slice_ms_ > 0
             ? kReferenceSliceMs * static_cast<double>(slices_) / slice_ms_
             : 1.0;
}

Figures SpanFigures(const std::vector<double>& op_ms, double cpu_ms,
                    double scale) {
  return Figures{
      op_ms.empty() ? 0 : cpu_ms * scale / static_cast<double>(op_ms.size()),
      Percentile(op_ms, 0.5) * scale, Percentile(op_ms, 0.99) * scale};
}

Figures MedianOfRounds(const std::string& what,
                       const std::vector<Figures>& rounds, const Figures& whole,
                       double ops_per_s, const std::vector<double>& scales) {
  std::vector<double> cpu, p50, p99, slice_ms;
  for (const Figures& f : rounds) {
    cpu.push_back(f.cpu_per_op);
    p50.push_back(f.op_p50);
    p99.push_back(f.op_p99);
  }
  for (double scale : scales) slice_ms.push_back(kReferenceSliceMs / scale);
  const auto low = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  const auto high = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  };
  const Figures median{Median(cpu), Median(p50), Median(p99)};
  std::fprintf(stderr,
               "%s: %zu rounds, cpu ref_ms/op min %.6g median %.6g max %.6g; "
               "reference slice ms min %.4g median %.4g max %.4g; whole "
               "phase: %.6g cpu ref_ms/op, op p50 %.6g ref_ms, p99 %.6g "
               "ref_ms, %.6g ops/s wall clock\n",
               what.c_str(), rounds.size(), low(cpu), median.cpu_per_op,
               high(cpu), low(slice_ms), Median(slice_ms), high(slice_ms),
               whole.cpu_per_op, whole.op_p50, whole.op_p99, ops_per_s);
  return median;
}

Figures FiguresOfRounds(const std::string& what,
                        const std::vector<double>& round_cpu_ms,
                        const std::vector<double>& round_scales,
                        const std::vector<double>& op_ms, size_t per_round,
                        double phase_seconds) {
  std::vector<Figures> rounds;
  std::vector<double> scales;
  std::vector<double> scaled_ops;  // Every op, in ref_ms.
  double cpu_ref_ms = 0;
  // A round short of operations (a failed journal check) is left out.
  for (size_t r = 0;
       r < round_cpu_ms.size() && (r + 1) * per_round <= op_ms.size(); ++r) {
    const auto first = op_ms.begin() + static_cast<ptrdiff_t>(r * per_round);
    const std::vector<double> ops(first,
                                  first + static_cast<ptrdiff_t>(per_round));
    rounds.push_back(SpanFigures(ops, round_cpu_ms[r], round_scales[r]));
    scales.push_back(round_scales[r]);
    for (double ms : ops) scaled_ops.push_back(ms * round_scales[r]);
    cpu_ref_ms += round_cpu_ms[r] * round_scales[r];
  }
  const Figures whole = SpanFigures(scaled_ops, cpu_ref_ms, 1.0);
  Figures figures = MedianOfRounds(
      what, rounds, whole,
      phase_seconds > 0 ? static_cast<double>(op_ms.size()) / phase_seconds
                        : 0.0,
      scales);
  // A round holds too few ops for a tail (40 queries, 96 steps): the p99
  // is taken over every op of the phase.
  figures.op_p99 = whole.op_p99;
  return figures;
}

void SelfTest(const std::string& kind, const std::string& verdict,
              Report* report) {
  report->Check("selftest." + kind, !verdict.empty(),
                "the " + kind + " check accepted a corrupted output");
}

}  // namespace cyqr::perfbench
