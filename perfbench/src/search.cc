// search_head and search_tail: closed-loop search traffic. Two clients
// send blocking requests to a RewriteServer with two workers; each answer
// then goes through the merged syntax tree, retrieval and the ranker, and
// the first page of results is kept. Client 0 also republishes the
// identical head table into the KV store at a fixed request cadence.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/string_util.h"
#include "decode/beam.h"
#include "index/tree_merge.h"
#include "obs/metrics.h"
#include "serving/backends.h"
#include "serving/rewrite_service.h"
#include "serving/server.h"
#include "src/checks.h"
#include "src/common.h"
#include "src/timed.h"

namespace cyqr::perfbench {

namespace {

constexpr double kDeadlineMillis = 10000.0;  // Far above any healthy request.
constexpr int kClients = 2;
constexpr int64_t kPublishEvery = 2000;  // Client-0 requests per republish.
constexpr int64_t kTraceEvery = 8;       // Traced phase: spans for 1 in 8.
constexpr size_t kStreamLength = size_t{1} << 16;
constexpr size_t kBeamReplayQueries = 64;
constexpr int kRounds = 10;  // A timed phase is kRounds rounds of equal length.
// Each client runs a reference slice (SpeedProbe) after a request when
// this long has passed since its last one: about 2% of its time.
constexpr auto kProbeEvery = std::chrono::milliseconds(20);

// What a request was answered with, as far as the checks need it.
struct Answer {
  int8_t source = 0;
  bool ok = false;
  bool degraded = false;
  int8_t retries = 0;
  uint64_t rewrites_hash = 0;
  uint64_t page_hash = 0;
  bool operator==(const Answer&) const = default;
};

// How often each distinct answer was given, per pool slot. An answer
// depends only on its query, so a slot normally holds one entry and the log
// does not grow with the number of requests a run sends.
struct AnswerLog {
  std::vector<std::vector<std::pair<Answer, int64_t>>> by_slot;

  void Add(size_t slot, const Answer& answer, int64_t count = 1) {
    for (auto& [seen, n] : by_slot[slot]) {
      if (seen == answer) {
        n += count;
        return;
      }
    }
    by_slot[slot].emplace_back(answer, count);
  }
};

// Request timings in fixed-size form, made before the phase starts: the
// harness's memory does not grow with the number of requests a run sends,
// so peak_rss_mb does not follow throughput.
struct Timings {
  // CPU time of the requests completed in each round, on the client and
  // the worker thread together; requests answered after the phase closed
  // count in the last round. A worker's first request has no CPU baseline
  // and is counted in `round_ops` only.
  std::vector<LatencyHistogram> rounds = std::vector<LatencyHistogram>(kRounds);
  std::vector<int64_t> round_ops = std::vector<int64_t>(kRounds);
  LatencyHistogram wall;  // End-to-end wall-clock latency, whole phase.
  LatencyHistogram queue_wait;
  LatencyHistogram serve;  // Worker time: total minus queue wait.

  void Merge(const Timings& other) {
    for (int r = 0; r < kRounds; ++r) {
      rounds[r].Merge(other.rounds[r]);
      round_ops[r] += other.round_ops[r];
    }
    wall.Merge(other.wall);
    queue_wait.Merge(other.queue_wait);
    serve.Merge(other.serve);
  }
  int64_t count() const { return wall.count(); }
};

struct ClientLog {
  AnswerLog answers;
  Timings timings;
  // Client 0 only: the process CPU time when it first saw each round begin.
  std::vector<double> round_cpu_start = std::vector<double>(kRounds, -1);
  std::vector<SpeedProbe> probes = std::vector<SpeedProbe>(kRounds);
};

struct PhaseResult {
  AnswerLog answers;
  Timings timings;
  double seconds = 0;        // From the first request sent to the last answered.
  // Process CPU time of each round, less its reference slices, and the
  // slices' SpeedProbe::Scale.
  std::vector<double> round_cpu_ms;
  std::vector<double> round_scales;
  int64_t kv_calls = 0;
  int64_t kv_hits = 0;
};

// The expected answer for one pool query, computed apart from the serving
// path after the timed phase.
struct Expected {
  std::vector<std::vector<std::string>> rewrites;
  RewriteService::Source source = RewriteService::Source::kCache;
  uint64_t rewrites_hash = 0;
  uint64_t page_hash = 0;
  Page page;
  std::vector<DecodedSequence> beam;  // Tail only: the raw decode.
};

RewriteService::Options ServiceOptions() {
  RewriteService::Options options;
  options.max_rewrites = kRewrites;
  options.max_rewrite_len = kMaxRewriteLen;
  options.default_budget_millis = kDeadlineMillis;
  return options;
}

RewriteServer::Options ServerOptions() {
  RewriteServer::Options options;
  options.num_threads = 2;
  options.queue_depth = 16;
  return options;
}

DecodeOptions DirectDecodeOptions() {
  // What DirectRewriter::Rewrite passes to the beam decoder.
  DecodeOptions options;
  options.beam_size = kRewrites + 1;
  options.max_len = kMaxRewriteLen;
  return options;
}

// The serving stack of one phase. The traced phase puts the timing
// decorators between the service and its backends.
struct Serving {
  Serving(Env& env, SpanRecorder* recorder)
      : kv(&env.store),
        model(env.direct.get()),
        timed_kv(&kv, recorder),
        timed_model(&model, recorder),
        service(recorder != nullptr ? static_cast<KvBackend*>(&timed_kv) : &kv,
                recorder != nullptr ? static_cast<ModelBackend*>(&timed_model)
                                    : &model,
                nullptr, ServiceOptions(), &MetricsRegistry::Global()),
        server(&service, ServerOptions(), &MetricsRegistry::Global()) {}

  KvStoreBackend kv;
  DirectModelBackend model;
  TimedKvBackend timed_kv;
  TimedModelBackend timed_model;
  RewriteService service;
  RewriteServer server;
};

// Pool slots drawn by popularity (Zipfian, as generated) for one client.
std::vector<int32_t> MakeStream(const Env& env,
                                const std::vector<int64_t>& pool,
                                uint64_t seed, int client) {
  std::vector<double> cdf;
  double total = 0;
  for (int64_t q : pool) {
    total += env.log.query_popularity()[q];
    cdf.push_back(total);
  }
  Rng rng(Rng::DeriveStreamSeed(seed, static_cast<uint64_t>(client)));
  std::vector<int32_t> stream(kStreamLength);
  for (int32_t& slot : stream) {
    const double u = rng.NextDouble() * total;
    const size_t i = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    slot = static_cast<int32_t>(std::min(i, pool.size() - 1));
  }
  return stream;
}

// CPU time the calling worker thread spent since it last answered: the
// cost of taking, serving and answering one request. -1 on the thread's
// first answer, which has no baseline.
double WorkerCpuSinceLastAnswer() {
  thread_local double last_ms = -1;
  const double now_ms = ThreadCpuMillis();
  const double spent_ms = last_ms < 0 ? -1 : now_ms - last_ms;
  last_ms = now_ms;
  return spent_ms;
}

struct Served {
  RewriteServer::ServerResponse response;
  double worker_cpu_ms = -1;  // See WorkerCpuSinceLastAnswer.
};

// Submits and blocks like RewriteServer::ServeBlocking, reads the worker's
// CPU time for the request, and moves the spans the timing decorators
// recorded on the worker thread into this thread's pending list under the
// client's serve span. `recorder` is null in the untraced phase and for
// requests the traced phase does not sample; their worker spans are
// dropped.
Served Serve(RewriteServer& server, const std::vector<std::string>& tokens,
             SpanRecorder* recorder) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RewriteServer::ServerResponse response;
    double worker_cpu_ms = -1;
    std::vector<Span> spans;
  };
  auto waiter = std::make_shared<Waiter>();
  ScopedSpan serve_span(recorder, "search.serve");
  const int64_t parent = serve_span.id();
  const int64_t request = PendingSpans().request;
  const bool keep = recorder != nullptr;
  (void)server.Submit(
      tokens, Deadline::AfterMillis(kDeadlineMillis),
      [waiter, parent, request, keep](RewriteServer::ServerResponse response) {
        const double worker_cpu_ms = WorkerCpuSinceLastAnswer();
        ThreadSpans& worker = PendingSpans();
        std::vector<Span> spans;
        if (keep) {
          spans = std::move(worker.done);
          for (Span& s : spans) {
            s.request = request;
            if (s.parent == 0) s.parent = parent;
          }
        }
        worker.done.clear();
        {
          std::lock_guard<std::mutex> lock(waiter->mu);
          waiter->response = std::move(response);
          waiter->worker_cpu_ms = worker_cpu_ms;
          waiter->spans = std::move(spans);
          waiter->done = true;
        }
        waiter->cv.notify_one();
      });
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&waiter] { return waiter->done; });
  std::vector<Span>& mine = PendingSpans().done;
  mine.insert(mine.end(), waiter->spans.begin(), waiter->spans.end());
  return Served{std::move(waiter->response), waiter->worker_cpu_ms};
}

void RunClient(int client, Env& env, Serving& serving,
               const std::vector<int64_t>& pool,
               const std::vector<int32_t>& stream, SpanRecorder* recorder,
               Clock::time_point begin, Clock::time_point end,
               ClientLog* log) {
  ThreadSpans& mine = PendingSpans();
  Clock::time_point last_probe = begin;
  for (int64_t i = 0;; ++i) {
    if (Clock::now() >= end) break;
    const int32_t slot = stream[static_cast<size_t>(i) % stream.size()];
    const std::vector<std::string>& tokens =
        env.log.queries()[pool[slot]].tokens;
    SpanRecorder* sampled =
        recorder != nullptr && i % kTraceEvery == 0 ? recorder : nullptr;
    if (sampled != nullptr) mine.request = sampled->NextId();
    const Clock::time_point start = Clock::now();
    const double cpu_start_ms = ThreadCpuMillis();
    Served served;
    std::vector<Bm25Scorer::Scored> ranked;
    {
      ScopedSpan request_span(sampled, "search.request");
      served = Serve(serving.server, tokens, sampled);
      const auto queries =
          QueryWithRewrites(tokens, served.response.response.rewrites);
      if (recorder == nullptr) {
        const RetrievalEngine::Result merged =
            env.engine->RetrieveMerged(queries);
        ranked = env.ranker->Rank(tokens, merged.docs);
      } else {
        // RetrieveMerged split into its public parts so each is timed.
        TreeMerger::Result merged;
        {
          ScopedSpan span(sampled, "index.merge");
          merged = TreeMerger::Merge(queries);
        }
        PostingList docs;
        {
          ScopedSpan span(sampled, "index.retrieve");
          RetrievalCost cost;
          docs = merged.tree.Evaluate(env.index, &cost);
          span.set_value(static_cast<double>(cost.postings_scanned));
        }
        ScopedSpan span(sampled, "eval.rank");
        ranked = env.ranker->Rank(tokens, docs);
        span.set_value(static_cast<double>(docs.size()));
      }
    }
    const double client_cpu_ms = ThreadCpuMillis() - cpu_start_ms;
    const Clock::time_point done = Clock::now();
    const RewriteServer::ServerResponse& response = served.response;
    Answer answer;
    answer.source = static_cast<int8_t>(response.response.source);
    answer.ok = response.status.ok();
    answer.degraded = response.response.degraded;
    answer.retries = static_cast<int8_t>(response.retries);
    answer.rewrites_hash = HashRewrites(response.response.rewrites);
    answer.page_hash = HashPage(ranked, kPageSize);
    log->answers.Add(static_cast<size_t>(slot), answer);
    Timings& timings = log->timings;
    const int64_t round =
        std::min<int64_t>((done - begin) * kRounds / (end - begin), kRounds - 1);
    if (served.worker_cpu_ms >= 0) {
      timings.rounds[round].Add((client_cpu_ms + served.worker_cpu_ms) * 1e3);
    }
    ++timings.round_ops[round];
    if (client == 0) {
      for (int64_t r = 1; r <= round; ++r) {
        if (log->round_cpu_start[r] < 0) {
          log->round_cpu_start[r] = ProcessCpuMillis();
        }
      }
    }
    timings.wall.Add(
        std::chrono::duration<double, std::micro>(done - start).count());
    timings.queue_wait.Add(response.queue_wait_millis * 1e3);
    timings.serve.Add(
        (response.total_millis - response.queue_wait_millis) * 1e3);
    if (sampled != nullptr) sampled->Commit(&mine.done);
    if (done - last_probe >= kProbeEvery) {
      (void)log->probes[round].Run();
      last_probe = Clock::now();
    }

    if (client == 0 && (i + 1) % kPublishEvery == 0) {
      // The nightly job's write path beside the reads: republish the
      // identical head table.
      auto entries = env.head_entries;
      if (recorder != nullptr) mine.request = recorder->NextId();
      {
        ScopedSpan span(recorder, "serving.kv_publish");
        env.store.PutMany(std::move(entries));
      }
      if (recorder != nullptr) recorder->Commit(&mine.done);
    }
  }
}

PhaseResult RunPhase(Env& env, const std::vector<int64_t>& pool,
                     const std::vector<std::vector<int32_t>>& streams,
                     double seconds, SpanRecorder* recorder) {
  auto serving = std::make_unique<Serving>(env, recorder);
  auto logs = std::make_unique<ClientLog[]>(kClients);
  for (int c = 0; c < kClients; ++c) {
    logs[c].answers.by_slot.resize(pool.size());
  }
  logs[0].round_cpu_start[0] = ProcessCpuMillis();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::thread second([&] {
    RunClient(1, env, *serving, pool, streams[1], recorder, start, end,
              &logs[1]);
  });
  RunClient(0, env, *serving, pool, streams[0], recorder, start, end,
            &logs[0]);
  second.join();
  PhaseResult result;
  result.seconds = MillisSince(start) / 1e3;
  std::vector<double> marks = logs[0].round_cpu_start;
  marks.push_back(ProcessCpuMillis());
  for (int r = kRounds - 1; r >= 1; --r) {
    if (marks[r] < 0) marks[r] = marks[r + 1];  // A round client 0 skipped.
  }
  for (int r = 0; r < kRounds; ++r) {
    SpeedProbe probe = logs[0].probes[r];
    for (int c = 1; c < kClients; ++c) probe.Merge(logs[c].probes[r]);
    result.round_cpu_ms.push_back(marks[r + 1] - marks[r] - probe.slice_ms());
    result.round_scales.push_back(probe.Scale());
  }
  serving->server.Drain();
  result.kv_calls = serving->timed_kv.calls();
  result.kv_hits = serving->timed_kv.hits();
  result.answers.by_slot.resize(pool.size());
  for (int c = 0; c < kClients; ++c) {
    for (size_t slot = 0; slot < pool.size(); ++slot) {
      for (const auto& [answer, n] : logs[c].answers.by_slot[slot]) {
        result.answers.Add(slot, answer, n);
      }
    }
    result.timings.Merge(logs[c].timings);
  }
  return result;
}

// Empty when the request's answer and page match the expected ones.
std::string CheckAnswer(const Answer& r, const Expected& e) {
  if (r.rewrites_hash != e.rewrites_hash) return "served rewrites differ";
  if (r.page_hash != e.page_hash) return "result page differs";
  return "";
}

bool ExpectedRung(const Answer& r, const Expected& e) {
  return r.ok && !r.degraded && r.retries == 0 &&
         r.source == static_cast<int8_t>(e.source);
}

std::vector<Expected> ComputeExpected(const Env& env,
                                      const std::vector<int64_t>& pool,
                                      bool head, HypothesisEnds* ends,
                                      Report* report) {
  std::vector<Expected> expected(pool.size());
  for (size_t slot = 0; slot < pool.size(); ++slot) {
    Expected& e = expected[slot];
    const std::vector<std::string>& tokens = env.log.queries()[pool[slot]].tokens;
    if (head) {
      // What set-up stored, as the cache rung serves it (capped at k).
      e.source = RewriteService::Source::kCache;
      e.rewrites = env.head_entries[slot].second;
      if (static_cast<int64_t>(e.rewrites.size()) > kRewrites) {
        e.rewrites.resize(kRewrites);
      }
      const RewriteKvStore::Rewrites* stored =
          env.store.Get(env.head_entries[slot].first);
      report->Check("serving.store_intact",
                    stored != nullptr && *stored == env.head_entries[slot].second,
                    "store entry changed for '" + JoinStrings(tokens) + "'");
    } else {
      // The direct model with no deadline, and the raw beam decode whose
      // log-probs are checked against teacher forcing.
      e.source = RewriteService::Source::kDirectModel;
      for (RewriteCandidate& c :
           env.direct->Rewrite(tokens, kRewrites, kMaxRewriteLen)) {
        e.rewrites.push_back(std::move(c.tokens));
      }
      const std::vector<int32_t> ids = env.vocab.Encode(tokens);
      e.beam = BeamSearchDecode(env.direct->model(), ids,
                                DirectDecodeOptions());
      const std::string verdict = CheckDecodedLogProbs(
          env.direct->model(), ids, e.beam, kMaxRewriteLen, ends);
      report->Check("decode.beam_logprob", verdict.empty(), verdict);
    }
    e.rewrites_hash = HashRewrites(e.rewrites);
    e.page = CheckedPage(env, tokens, e.rewrites, report);
    e.page_hash = HashPage(e.page.ranked, kPageSize);
  }
  return expected;
}

// Feeds each check an output corrupted on purpose; each must reject it.
void RunSelfTests(const Env& env, const std::vector<int64_t>& pool,
                  const std::vector<Expected>& expected,
                  const PhaseResult& phase, bool head, Report* report) {
  for (size_t slot = 0; slot < pool.size(); ++slot) {
    const std::vector<std::string>& tokens = env.log.queries()[pool[slot]].tokens;
    const auto queries = QueryWithRewrites(tokens, expected[slot].rewrites);
    const PostingList separate = env.engine->RetrieveSeparate(queries).docs;
    if (separate.empty()) continue;
    PostingList dropped = expected[slot].page.merged.docs;
    dropped.erase(std::find(dropped.begin(), dropped.end(), separate[0]));
    SelfTest("dropped_document", CheckMergedCoversSeparate(dropped, separate),
             report);
    break;
  }
  for (size_t slot = 0; slot < pool.size(); ++slot) {
    const Page& page = expected[slot].page;
    if (page.ranked.size() < 2) continue;
    std::vector<Bm25Scorer::Scored> swapped = page.ranked;
    std::swap(swapped[0], swapped[1]);
    const std::vector<std::string>& tokens = env.log.queries()[pool[slot]].tokens;
    SelfTest("swapped_page",
             CheckRankOrder(swapped, page.merged.docs,
                            [&env, &tokens](DocId doc) {
                              return env.ranker->Score(tokens, doc);
                            }),
             report);
    break;
  }
  for (size_t slot = 0; slot < pool.size(); ++slot) {
    if (phase.answers.by_slot[slot].empty()) continue;
    // A request served another query's rewrites.
    Answer swapped = phase.answers.by_slot[slot].front().first;
    for (const Expected& other : expected) {
      if (other.rewrites_hash == expected[slot].rewrites_hash) continue;
      swapped.rewrites_hash = other.rewrites_hash;
      SelfTest("swapped_rewrite", CheckAnswer(swapped, expected[slot]),
               report);
      break;
    }
    break;
  }
  if (!head) {
    for (size_t slot = 0; slot < pool.size(); ++slot) {
      std::vector<DecodedSequence> perturbed = expected[slot].beam;
      if (perturbed.empty()) continue;
      perturbed[0].log_prob += 0.01;
      HypothesisEnds unused;
      const std::vector<std::string>& tokens =
          env.log.queries()[pool[slot]].tokens;
      SelfTest("perturbed_logprob",
               CheckDecodedLogProbs(env.direct->model(),
                                    env.vocab.Encode(tokens), perturbed,
                                    kMaxRewriteLen, &unused),
               report);
      break;
    }
  }
}

// Traced replay of the direct model's beam search over the timing wrapper,
// for distinct tail queries the traced phase served.
void ReplayBeam(const Env& env, const std::vector<int64_t>& pool,
                const std::vector<Expected>& expected,
                const PhaseResult& phase, SpanRecorder* recorder,
                Report* report) {
  TimedSeq2Seq timed(&env.direct->model(), recorder);
  ThreadSpans& mine = PendingSpans();
  size_t replayed = 0;
  for (size_t slot = 0; slot < pool.size() && replayed < kBeamReplayQueries;
       ++slot) {
    if (phase.answers.by_slot[slot].empty()) continue;  // Not served.
    ++replayed;
    const std::vector<int32_t> ids =
        env.vocab.Encode(env.log.queries()[pool[slot]].tokens);
    mine.request = recorder->NextId();
    std::vector<DecodedSequence> hyps;
    {
      ScopedSpan span(recorder, "decode.beam");
      hyps = BeamSearchDecode(timed, ids, DirectDecodeOptions());
    }
    recorder->Commit(&mine.done);
    bool same = hyps.size() == expected[slot].beam.size();
    for (size_t i = 0; same && i < hyps.size(); ++i) {
      same = hyps[i].ids == expected[slot].beam[i].ids &&
             hyps[i].log_prob == expected[slot].beam[i].log_prob;
    }
    report->Check("decode.replay_matches", same,
                  "traced beam replay differs from the plain decode");
  }
}

void ReportTraced(const PhaseResult& phase, const SpanRecorder& recorder,
                  Report* report) {
  report->Set("serving.queue_wait_us",
              phase.timings.queue_wait.Percentile(0.5), "us");
  report->Set("serving.serve_us", phase.timings.serve.Percentile(0.5), "us");
  const auto durations = recorder.Durations();
  const auto values = recorder.Values();
  report->Set("serving.cache_lookup_us",
              MedianOf(durations, "serving.cache_lookup"), "us");
  report->Set("serving.cache_hit_ratio",
              phase.kv_calls > 0
                  ? static_cast<double>(phase.kv_hits) / phase.kv_calls
                  : 0.0,
              "ratio");
  report->Set("serving.model_rewrite_ms",
              MedianOf(durations, "serving.model_rewrite", 1e-3), "ms");
  report->Set("serving.kv_publish_ms",
              MedianOf(durations, "serving.kv_publish", 1e-3), "ms");
  report->Set("index.merge_us", MedianOf(durations, "index.merge"), "us");
  report->Set("index.retrieve_us", MedianOf(durations, "index.retrieve"),
              "us");
  report->Set("eval.rank_us", MedianOf(durations, "eval.rank"), "us");
  report->Set("nmt.encode_us", MedianOf(durations, "nmt.encode"), "us");
  report->Set("nmt.step_us", MedianOf(durations, "nmt.step"), "us");
  report->Set("decode.beam_ms", MedianOf(durations, "decode.beam", 1e-3),
              "ms");
  auto scanned = values.find("index.retrieve");
  if (scanned != values.end()) {
    report->Set("index.postings_scanned", Mean(scanned->second), "count");
  }
  auto candidates = values.find("eval.rank");
  auto rank_time = durations.find("eval.rank");
  if (candidates != values.end() && rank_time != durations.end()) {
    report->Set("index.candidates", Mean(candidates->second), "count");
    double total_candidates = 0;
    double total_us = 0;
    for (double c : candidates->second) total_candidates += c;
    for (double us : rank_time->second) total_us += us;
    report->Set("eval.rank_us_per_candidate",
                total_candidates > 0 ? total_us / total_candidates : 0.0,
                "us");
  }
}

// End-to-end figures of one phase: the median over its rounds.
Figures SearchFigures(const std::string& what, const PhaseResult& phase) {
  const auto figures = [](const LatencyHistogram& cpu_us, int64_t ops,
                          double cpu_ms, double scale) {
    return Figures{ops > 0 ? cpu_ms * scale / static_cast<double>(ops) : 0,
                   cpu_us.Percentile(0.5) / 1e3 * scale,
                   cpu_us.Percentile(0.99) / 1e3 * scale};
  };
  std::vector<Figures> rounds;
  for (int r = 0; r < kRounds; ++r) {
    rounds.push_back(figures(phase.timings.rounds[r],
                             phase.timings.round_ops[r], phase.round_cpu_ms[r],
                             phase.round_scales[r]));
  }
  // The whole phase at its mean speed (its rounds have equal lengths).
  LatencyHistogram whole;
  double cpu_ms = 0;
  double scale = 0;
  for (int r = 0; r < kRounds; ++r) {
    whole.Merge(phase.timings.rounds[r]);
    cpu_ms += phase.round_cpu_ms[r];
    scale += phase.round_scales[r] / kRounds;
  }
  const int64_t ops = phase.timings.count();
  const Figures median = MedianOfRounds(
      what, rounds, figures(whole, ops, cpu_ms, scale),
      phase.seconds > 0 ? static_cast<double>(ops) / phase.seconds : 0.0,
      phase.round_scales);
  std::fprintf(stderr, "%s: wall-clock latency p50 %.6g ms, p99 %.6g ms\n",
               what.c_str(), phase.timings.wall.Percentile(0.5) / 1e3,
               phase.timings.wall.Percentile(0.99) / 1e3);
  return median;
}

}  // namespace

void RunSearch(const RunOptions& options, bool head, Report* report) {
  SetupSpec spec;
  spec.cycle = true;
  spec.serving = true;
  std::unique_ptr<Env> env = SetupRepeated(spec, options, report);
  const std::vector<int64_t>& pool = head ? env->head : env->tail;
  std::vector<std::vector<int32_t>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(MakeStream(*env, pool, options.seed, c));
  }

  // Untraced phase: the end-to-end figures. A traced run spends half its
  // time here (the overhead baseline) and half in the traced phase.
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const PhaseResult untraced = RunPhase(*env, pool, streams, untraced_s, nullptr);
  SpanRecorder recorder;
  PhaseResult traced;
  if (options.trace) {
    traced = RunPhase(*env, pool, streams, options.seconds / 2, &recorder);
  }

  // Checks, outside the timed phases.
  HypothesisEnds ends;
  const std::vector<Expected> expected =
      ComputeExpected(*env, pool, head, &ends, report);
  if (!head) {
    // The log-prob check compared at least one end-of-sequence hypothesis.
    report->Check("decode.beam_eos_compared", ends.eos > 0,
                  "no beam hypothesis ended at end-of-sequence");
    std::fprintf(stderr,
                 "beam hypotheses over %zu tail queries: %lld ended at "
                 "end-of-sequence, %lld at max length, %lld shorter than max "
                 "length without end-of-sequence\n",
                 pool.size(), static_cast<long long>(ends.eos),
                 static_cast<long long>(ends.max_len),
                 static_cast<long long>(ends.short_open));
  }
  report->Expect(head ? "serving.store_intact" : "decode.beam_eos_compared");
  report->Expect("index.merged_covers_separate");
  report->Expect("eval.rank_order");
  report->Expect("search.answers_match");
  const PhaseResult* phases[] = {&untraced, &traced};
  for (const PhaseResult* phase : phases) {
    if (phase->timings.count() == 0) continue;  // Untraced: one phase.
    int64_t failed = 0;
    int64_t mismatched = 0;
    std::string first_mismatch;
    for (size_t slot = 0; slot < pool.size(); ++slot) {
      const Expected& e = expected[slot];
      for (const auto& [answer, n] : phase->answers.by_slot[slot]) {
        if (!ExpectedRung(answer, e)) {
          failed += n;  // Shed, degraded, retried or another rung answered.
          continue;
        }
        const std::string verdict = CheckAnswer(answer, e);
        if (verdict.empty()) continue;
        if (mismatched == 0) {
          first_mismatch = verdict + " for '" +
                           JoinStrings(env->log.queries()[pool[slot]].tokens) +
                           "'";
        }
        mismatched += n;
      }
    }
    report->AddAttempted(phase->timings.count());
    report->AddFailed(failed);
    report->Check("search.answers_match", mismatched == 0,
                  std::to_string(mismatched) + " answers differ; first: " +
                      first_mismatch);
  }
  RunSelfTests(*env, pool, expected, untraced, head, report);
  report->Expect("selftest.dropped_document");
  report->Expect("selftest.swapped_page");
  report->Expect("selftest.swapped_rewrite");
  if (!head) report->Expect("selftest.perturbed_logprob");

  const Figures figures = SearchFigures(options.workload, untraced);
  if (!options.trace) {
    std::vector<std::vector<std::vector<std::string>>> rewrites;
    std::vector<Page> pages;
    for (const Expected& e : expected) {
      rewrites.push_back(e.rewrites);
      pages.push_back(e.page);
    }
    const Quality quality = WeightedQuality(*env, pool, rewrites, pages);
    report->Set("cpu_per_op", figures.cpu_per_op, "ref_ms");
    report->Set("op_p50", figures.op_p50, "ref_ms");
    report->Set("op_p99", figures.op_p99, "ref_ms");
    report->Set("intent_hit_at_10", quality.intent_hit_at_10, "ratio");
    report->Set("rewrite_relevance", quality.rewrite_relevance, "score");
    report->Set("eval_loss",
                head ? CycleEvalLoss(*env->cycle, env->eval_pairs)
                     : MeanTokenNll(env->direct->model(),
                                    env->direct_eval_pairs),
                "nats");
    return;
  }
  if (!head) ReplayBeam(*env, pool, expected, traced, &recorder, report);
  ReportTraced(traced, recorder, report);
  ReportTraceOverhead(figures.op_p50,
                      SearchFigures(options.workload + " traced", traced)
                          .op_p50,
                      report);
  WriteSpans(recorder, options);
}

}  // namespace cyqr::perfbench
