// precompute: the nightly job. CycleRewriter::Rewrite runs one query at a
// time over the distinct head queries; each round then publishes the table
// into a RewriteKvStore and saves the checksummed snapshot. One operation
// is one query.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "core/math.h"
#include "core/string_util.h"
#include "decode/topn_sampling.h"
#include "nmt/scorer.h"
#include "src/checks.h"
#include "src/common.h"
#include "src/timed.h"

namespace cyqr::perfbench {

namespace {

uint64_t HashResults(const std::vector<CycleRewriter::Result>& results) {
  uint64_t h = kFnvBasis;
  for (const CycleRewriter::Result& r : results) {
    for (const RewriteCandidate& c : r.rewrites) {
      h = Fnv1a(h, c.ids.data(), c.ids.size() * sizeof(int32_t));
      h = Fnv1a(h, &c.log_prob, sizeof(c.log_prob));
    }
    h = Fnv1a(h, "|", 1);
  }
  return h;
}

// CycleRewriter::RewriteIds replayed through the public decode and scoring
// functions over timing wrappers, so the traced run can time each stage.
// Same calls in the same order with the same random stream: the result must
// equal CycleRewriter's bit for bit (checked by the caller).
CycleRewriter::Result ReplayRewrite(const Seq2SeqModel& forward,
                                    const Seq2SeqModel& backward,
                                    const Vocabulary& vocab,
                                    const std::vector<int32_t>& query_ids,
                                    const RewriteOptions& options,
                                    SpanRecorder* recorder) {
  NoGradGuard no_grad;
  CycleRewriter::Result result;
  Rng rng(options.seed);
  DecodeOptions title_options;
  title_options.beam_size = options.k;
  title_options.top_n = options.top_n;
  title_options.max_len = options.max_title_len;
  {
    ScopedSpan span(recorder, "decode.topn");
    result.synthetic_titles =
        TopNSamplingDecode(forward, query_ids, title_options, rng);
  }
  std::vector<std::vector<int32_t>> titles;
  std::vector<double> title_log_probs;
  for (const DecodedSequence& t : result.synthetic_titles) {
    if (t.ids.empty()) continue;
    titles.push_back(t.ids);
    title_log_probs.push_back(t.log_prob);
  }
  if (titles.empty()) return result;
  DecodeOptions query_options;
  query_options.beam_size = options.k;
  query_options.top_n = options.top_n;
  query_options.max_len = options.max_query_len;
  std::map<std::vector<int32_t>, bool> candidate_set;
  for (const std::vector<int32_t>& title : titles) {
    std::vector<DecodedSequence> queries;
    {
      ScopedSpan span(recorder, "decode.topn");
      queries = TopNSamplingDecode(backward, title, query_options, rng);
    }
    for (const DecodedSequence& q : queries) {
      if (q.ids.empty()) continue;
      if (!options.keep_original && q.ids == query_ids) continue;
      candidate_set.emplace(q.ids, true);
    }
  }
  if (candidate_set.empty()) return result;
  std::vector<std::vector<int32_t>> candidates;
  for (const auto& entry : candidate_set) candidates.push_back(entry.first);
  std::vector<std::vector<double>> back_scores(titles.size());
  for (size_t t = 0; t < titles.size(); ++t) {
    ScopedSpan span(recorder, "nmt.score");
    back_scores[t] = ScoreSequences(backward, titles[t], candidates);
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    std::vector<double> joint(titles.size());
    for (size_t t = 0; t < titles.size(); ++t) {
      joint[t] = title_log_probs[t] + back_scores[t][c];
    }
    RewriteCandidate candidate;
    candidate.ids = candidates[c];
    candidate.tokens = vocab.Decode(candidates[c]);
    candidate.log_prob = LogSumExp(joint);
    result.rewrites.push_back(std::move(candidate));
  }
  std::sort(result.rewrites.begin(), result.rewrites.end(),
            [](const RewriteCandidate& a, const RewriteCandidate& b) {
              return a.log_prob > b.log_prob;
            });
  if (static_cast<int64_t>(result.rewrites.size()) > options.k) {
    result.rewrites.resize(options.k);
  }
  return result;
}

bool SameRewrites(const CycleRewriter::Result& a,
                  const CycleRewriter::Result& b) {
  if (a.rewrites.size() != b.rewrites.size()) return false;
  for (size_t i = 0; i < a.rewrites.size(); ++i) {
    if (a.rewrites[i].ids != b.rewrites[i].ids ||
        a.rewrites[i].log_prob != b.rewrites[i].log_prob) {
      return false;
    }
  }
  return true;
}

struct PhaseResult {
  std::vector<double> cpu_ms;  // Per query, on the thread that runs it.
  // Process CPU time of each round, less its reference slices, and the
  // slices' SpeedProbe::Scale.
  std::vector<double> round_cpu_ms;
  std::vector<double> round_scales;
  double seconds = 0;  // The whole phase.
  std::vector<uint64_t> round_hashes;
  std::vector<CycleRewriter::Result> first_round;
  int64_t queries = 0;
};

struct Inputs {
  std::vector<int64_t> queries;  // Head queries in this run's order.
  RewriteOptions rewrite;
  std::string snapshot_path;
};

// Rounds over every input query until `seconds` have passed. With a
// recorder, each query is replayed through the timed wrappers instead of
// CycleRewriter and checked against `reference`.
PhaseResult RunPhase(Env& env, const Inputs& inputs, double seconds,
                     SpanRecorder* recorder,
                     const std::vector<CycleRewriter::Result>* reference,
                     Report* report) {
  PhaseResult phase;
  const CycleRewriter rewriter(env.cycle.get(), &env.vocab);
  TimedSeq2Seq forward(&env.cycle->forward(), recorder);
  TimedSeq2Seq backward(&env.cycle->backward(), recorder);
  ThreadSpans& mine = PendingSpans();
  const Clock::time_point start = Clock::now();
  const double budget_ms = seconds * 1e3;
  int64_t replay_mismatches = 0;
  while (phase.round_hashes.empty() || MillisSince(start) < budget_ms) {
    const double round_cpu_start = ProcessCpuMillis();
    SpeedProbe probe;
    std::vector<CycleRewriter::Result> round;
    round.reserve(inputs.queries.size());
    for (size_t i = 0; i < inputs.queries.size(); ++i) {
      const std::vector<std::string>& tokens =
          env.log.queries()[inputs.queries[i]].tokens;
      const double query_cpu_start = ThreadCpuMillis();
      if (recorder == nullptr) {
        round.push_back(rewriter.Rewrite(tokens, inputs.rewrite));
      } else {
        mine.request = recorder->NextId();
        const int64_t steps_before = forward.steps() + backward.steps();
        {
          ScopedSpan span(recorder, "rewrite.cycle");
          round.push_back(ReplayRewrite(forward, backward, env.vocab,
                                        env.vocab.Encode(tokens),
                                        inputs.rewrite, recorder));
          span.set_value(static_cast<double>(forward.steps() +
                                             backward.steps() - steps_before));
        }
        recorder->Commit(&mine.done);
        if (!SameRewrites(round.back(), (*reference)[i])) ++replay_mismatches;
      }
      phase.cpu_ms.push_back(ThreadCpuMillis() - query_cpu_start);
      (void)probe.Run();
    }
    // Publish the night's table and save its snapshot.
    std::vector<std::pair<std::string, RewriteKvStore::Rewrites>> entries;
    for (size_t i = 0; i < round.size(); ++i) {
      RewriteKvStore::Rewrites rewrites;
      for (const RewriteCandidate& c : round[i].rewrites) {
        rewrites.push_back(c.tokens);
      }
      entries.emplace_back(
          JoinStrings(env.log.queries()[inputs.queries[i]].tokens),
          std::move(rewrites));
    }
    if (recorder != nullptr) mine.request = recorder->NextId();
    {
      ScopedSpan span(recorder, "serving.kv_publish");
      env.store.PutMany(std::move(entries));
      const Status saved = env.store.Save(inputs.snapshot_path);
      report->Check("serving.snapshot_saved", saved.ok(), saved.ToString());
    }
    if (recorder != nullptr) recorder->Commit(&mine.done);
    phase.round_cpu_ms.push_back(ProcessCpuMillis() - round_cpu_start -
                                 probe.slice_ms());
    phase.round_scales.push_back(probe.Scale());
    phase.round_hashes.push_back(HashResults(round));
    phase.queries += static_cast<int64_t>(round.size());
    if (phase.first_round.empty()) phase.first_round = std::move(round);
  }
  phase.seconds = MillisSince(start) / 1e3;
  if (recorder != nullptr) {
    report->Check("rewrite.replay_matches", replay_mismatches == 0,
                  std::to_string(replay_mismatches) +
                      " traced replays differ from CycleRewriter");
  }
  return phase;
}

void CheckOutputs(const Env& env, const Inputs& inputs,
                  const PhaseResult& phase, Report* report) {
  const RewriteOptions& ro = inputs.rewrite;
  HypothesisEnds ends;
  for (size_t i = 0; i < inputs.queries.size(); ++i) {
    const CycleRewriter::Result& r = phase.first_round[i];
    const std::vector<int32_t> ids =
        env.vocab.Encode(env.log.queries()[inputs.queries[i]].tokens);
    const std::string titles = CheckSampledTitles(
        env.cycle->forward(), ids, r.synthetic_titles, ro.max_title_len,
        &ends);
    report->Check("decode.topn_logprob", titles.empty(), titles);
    const std::string scores =
        CheckRewriteScores(env.cycle->backward(), r.synthetic_titles,
                           r.rewrites);
    report->Check("rewrite.cycle_score", scores.empty(), scores);
    const std::string set = CheckRewriteSet(r.rewrites, ids, ro.k);
    report->Check("rewrite.rewrite_set", set.empty(), set);
  }
  report->Check("decode.topn_eos_compared", ends.eos > 0,
                "no synthetic title ended at end-of-sequence");
  bool rounds_identical = true;
  for (uint64_t h : phase.round_hashes) {
    rounds_identical = rounds_identical && h == phase.round_hashes.front();
  }
  report->Check("rewrite.rounds_identical", rounds_identical,
                "a later round produced different rewrites");
  const std::string snapshot =
      CheckSnapshot(inputs.snapshot_path, *env.store.snapshot());
  report->Check("serving.snapshot_roundtrip", snapshot.empty(), snapshot);
}

void RunSelfTests(const Env& env, const Inputs& inputs,
                  const PhaseResult& phase, Report* report) {
  const RewriteOptions& ro = inputs.rewrite;
  for (size_t i = 0; i < inputs.queries.size(); ++i) {
    const CycleRewriter::Result& r = phase.first_round[i];
    if (r.synthetic_titles.empty() || r.rewrites.size() < 2 ||
        r.rewrites[0].log_prob == r.rewrites[1].log_prob) {
      continue;
    }
    const std::vector<int32_t> ids =
        env.vocab.Encode(env.log.queries()[inputs.queries[i]].tokens);
    std::vector<DecodedSequence> titles = r.synthetic_titles;
    titles[0].log_prob += 0.01;
    HypothesisEnds unused;
    SelfTest("perturbed_logprob",
             CheckSampledTitles(env.cycle->forward(), ids, titles,
                                ro.max_title_len, &unused),
             report);
    std::vector<RewriteCandidate> swapped = r.rewrites;
    std::swap(swapped[0], swapped[1]);
    SelfTest("swapped_rewrite", CheckRewriteSet(swapped, ids, ro.k), report);
    std::vector<RewriteCandidate> rescored = r.rewrites;
    rescored[0].log_prob += 0.01;
    SelfTest("perturbed_score",
             CheckRewriteScores(env.cycle->backward(), r.synthetic_titles,
                                rescored),
             report);
    break;
  }
  // A title shorter than the length limit whose log-prob lacks the
  // end-of-sequence term, as if sampling had stopped without it.
  for (size_t i = 0; i < inputs.queries.size(); ++i) {
    const CycleRewriter::Result& r = phase.first_round[i];
    const std::vector<int32_t> ids =
        env.vocab.Encode(env.log.queries()[inputs.queries[i]].tokens);
    auto title = std::find_if(
        r.synthetic_titles.begin(), r.synthetic_titles.end(),
        [&ro](const DecodedSequence& t) {
          return !t.ids.empty() &&
                 static_cast<int64_t>(t.ids.size()) < ro.max_title_len;
        });
    if (title == r.synthetic_titles.end()) continue;
    std::vector<DecodedSequence> stripped = r.synthetic_titles;
    DecodedSequence& open = stripped[title - r.synthetic_titles.begin()];
    const std::vector<double> tokens =
        TeacherForcedTokenLogProbs(env.cycle->forward(), ids, open.ids);
    open.log_prob = 0;
    for (size_t t = 0; t + 1 < tokens.size(); ++t) open.log_prob += tokens[t];
    HypothesisEnds unused;
    SelfTest("stripped_end_of_sequence",
             CheckSampledTitles(env.cycle->forward(), ids, stripped,
                                ro.max_title_len, &unused),
             report);
    break;
  }
  // A snapshot with one flipped byte must not load as the table.
  std::ifstream in(inputs.snapshot_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!bytes.empty()) {
    bytes[bytes.size() / 2] ^= 0x01;
    const std::string corrupt = inputs.snapshot_path + ".corrupt";
    std::ofstream(corrupt, std::ios::binary) << bytes;
    SelfTest("corrupted_snapshot", CheckSnapshot(corrupt, *env.store.snapshot()),
             report);
  }
}

}  // namespace

void RunPrecompute(const RunOptions& options, Report* report) {
  SetupSpec spec;
  spec.cycle = true;
  std::unique_ptr<Env> env = SetupRepeated(spec, options, report);

  // Inputs from --seed: the order of the head queries. The sampling seed is
  // the job's fixed configuration, so every seed computes the same table.
  Inputs inputs;
  Rng order_rng(Rng::DeriveStreamSeed(options.seed, 1));
  for (size_t i : order_rng.Permutation(env->head.size())) {
    inputs.queries.push_back(env->head[i]);
  }
  inputs.rewrite.k = kRewrites;
  inputs.snapshot_path = options.work_dir + "/head.kv";

  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const PhaseResult untraced =
      RunPhase(*env, inputs, untraced_s, nullptr, nullptr, report);
  report->AddAttempted(untraced.queries);
  SpanRecorder recorder;
  PhaseResult traced;
  if (options.trace) {
    traced = RunPhase(*env, inputs, options.seconds / 2, &recorder,
                      &untraced.first_round, report);
    report->AddAttempted(traced.queries);
  }

  CheckOutputs(*env, inputs, untraced, report);
  RunSelfTests(*env, inputs, untraced, report);
  for (const char* kind :
       {"decode.topn_logprob", "decode.topn_eos_compared", "rewrite.cycle_score", "rewrite.rewrite_set",
        "rewrite.rounds_identical", "serving.snapshot_roundtrip",
        "selftest.perturbed_logprob", "selftest.stripped_end_of_sequence",
        "selftest.swapped_rewrite",
        "selftest.perturbed_score", "selftest.corrupted_snapshot"}) {
    report->Expect(kind);
  }

  if (!options.trace) {
    std::vector<std::vector<std::vector<std::string>>> rewrites;
    std::vector<Page> pages;
    for (size_t i = 0; i < inputs.queries.size(); ++i) {
      std::vector<std::vector<std::string>> tokens;
      for (const RewriteCandidate& c : untraced.first_round[i].rewrites) {
        tokens.push_back(c.tokens);
      }
      pages.push_back(CheckedPage(
          *env, env->log.queries()[inputs.queries[i]].tokens, tokens, report));
      rewrites.push_back(std::move(tokens));
    }
    const Quality quality =
        WeightedQuality(*env, inputs.queries, rewrites, pages);
    const Figures figures = FiguresOfRounds(
        "precompute", untraced.round_cpu_ms, untraced.round_scales,
        untraced.cpu_ms, inputs.queries.size(), untraced.seconds);
    report->Set("cpu_per_op", figures.cpu_per_op, "ref_ms");
    report->Set("op_p50", figures.op_p50, "ref_ms");
    report->Set("op_p99", figures.op_p99, "ref_ms");
    report->Set("intent_hit_at_10", quality.intent_hit_at_10, "ratio");
    report->Set("rewrite_relevance", quality.rewrite_relevance, "score");
    report->Set("eval_loss", CycleEvalLoss(*env->cycle, env->eval_pairs),
                "nats");
    return;
  }
  const auto durations = recorder.Durations();
  report->Set("decode.topn_ms", MedianOf(durations, "decode.topn", 1e-3), "ms");
  report->Set("nmt.encode_us", MedianOf(durations, "nmt.encode"), "us");
  report->Set("nmt.step_us", MedianOf(durations, "nmt.step"), "us");
  report->Set("nmt.score_ms", MedianOf(durations, "nmt.score", 1e-3), "ms");
  report->Set("serving.kv_publish_ms",
              MedianOf(durations, "serving.kv_publish", 1e-3), "ms");
  const auto values = recorder.Values();
  auto steps = values.find("rewrite.cycle");
  if (steps != values.end()) {
    report->Set("decode.steps_per_query", Mean(steps->second), "count");
  }
  const size_t n = inputs.queries.size();
  ReportTraceOverhead(
      FiguresOfRounds("precompute untraced", untraced.round_cpu_ms,
                      untraced.round_scales, untraced.cpu_ms, n,
                      untraced.seconds)
          .op_p50,
      FiguresOfRounds("precompute traced", traced.round_cpu_ms,
                      traced.round_scales, traced.cpu_ms, n, traced.seconds)
          .op_p50,
      report);
  WriteSpans(recorder, options);
}

}  // namespace cyqr::perfbench
