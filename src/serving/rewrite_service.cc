#include "serving/rewrite_service.h"

#include <string>
#include <utility>

#include "core/check.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "obs/flight_recorder.h"

namespace cyqr {
namespace {

// Label values for the `rung` instrument label; indexed by Source.
const char* RungLabel(RewriteService::Source source) {
  return RewriteService::SourceName(source);
}

// Latency histograms record exactly until a series has this many
// observations, then sample (SampleObservation in obs/metrics.h). Deadline
// headroom costs an extra clock read on top of Observe, so it thins out
// more aggressively.
constexpr int64_t kExactObservationWindow = 1024;
constexpr int64_t kLatencySampleStride = 8;
constexpr int64_t kDeadlineSampleStride = 16;

// Rung outcome codes: how RecordRung classifies an outcome, and arg1 of
// the serving.rung flight event.
constexpr int64_t kFlightOutcomeAnswer = 0;
constexpr int64_t kFlightOutcomeMiss = 1;
constexpr int64_t kFlightOutcomeError = 2;
constexpr int64_t kFlightOutcomeSkipped = 3;

}  // namespace

const char* RewriteService::SourceName(Source source) {
  switch (source) {
    case Source::kCache:
      return "cache";
    case Source::kDirectModel:
      return "direct-model";
    case Source::kRuleBased:
      return "rule-based";
    case Source::kPassthrough:
      return "passthrough";
  }
  return "unknown";
}

RewriteService::RewriteService(KvBackend* cache, ModelBackend* model,
                               const RuleBasedRewriter* rule_based,
                               const Options& options,
                               MetricsRegistry* metrics)
    : cache_(cache),
      model_(model),
      rule_based_(rule_based),
      options_(options),
      breaker_(options.breaker) {
  CYQR_CHECK(cache != nullptr);
  InitInstruments(metrics);
}

RewriteService::RewriteService(const RewriteKvStore* store,
                               const DirectRewriter* fallback,
                               const Options& options,
                               const RuleBasedRewriter* rule_based,
                               MetricsRegistry* metrics)
    : owned_cache_(std::make_unique<KvStoreBackend>(store)),
      owned_model_(fallback == nullptr
                       ? nullptr
                       : std::make_unique<DirectModelBackend>(fallback)),
      cache_(owned_cache_.get()),
      model_(owned_model_.get()),
      rule_based_(rule_based),
      options_(options),
      breaker_(options.breaker) {
  CYQR_CHECK(store != nullptr);
  InitInstruments(metrics);
}

void RewriteService::InitInstruments(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  obs_ = std::make_unique<Instruments>();
  obs_->requests = metrics->GetCounter("cyqr_serving_requests_total");
  obs_->degraded = metrics->GetCounter("cyqr_serving_degraded_total");
  obs_->request_latency =
      metrics->GetHistogram("cyqr_serving_request_latency_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_->deadline_remaining =
      metrics->GetHistogram("cyqr_serving_deadline_remaining_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_->breaker_state = metrics->GetGauge("cyqr_serving_breaker_state");
  for (int s = 0; s < 3; ++s) {
    obs_->breaker_transitions[s] = metrics->GetCounter(
        "cyqr_serving_breaker_transitions_total",
        {{"to", CircuitBreaker::StateName(
                    static_cast<CircuitBreaker::State>(s))}});
  }
  for (int r = 0; r < 4; ++r) {
    const MetricLabels labels = {
        {"rung", RungLabel(static_cast<Source>(r))}};
    RungInstruments& rung = obs_->rungs[r];
    rung.attempts =
        metrics->GetCounter("cyqr_serving_rung_attempts_total", labels);
    rung.answers =
        metrics->GetCounter("cyqr_serving_rung_answers_total", labels);
    rung.errors =
        metrics->GetCounter("cyqr_serving_rung_errors_total", labels);
    rung.misses =
        metrics->GetCounter("cyqr_serving_rung_misses_total", labels);
    rung.skipped =
        metrics->GetCounter("cyqr_serving_rung_skipped_total", labels);
    rung.latency =
        metrics->GetHistogram("cyqr_serving_rung_latency_millis",
                              Histogram::DefaultLatencyBoundsMillis(), labels);
  }
  obs_->breaker_state->Set(0.0);  // kClosed.
}

void RewriteService::RecordRung(Source rung, Skip skip, const Status& status,
                                double latency_millis, TraceSpan& span,
                                Response* response) {
  const bool skipped = skip != Skip::kNone;
  int64_t outcome;
  if (skipped) {
    outcome = kFlightOutcomeSkipped;
    span.SetDetail(skip == Skip::kNoBudget      ? "skipped(no budget)"
                   : skip == Skip::kBreakerOpen ? "skipped(breaker open)"
                   : rung == Source::kDirectModel ? "skipped(no model)"
                                                  : "skipped(no rules)");
  } else if (status.ok()) {
    outcome = kFlightOutcomeAnswer;
    span.SetDetail("hit");
  } else if (status.code() == StatusCode::kNotFound) {
    outcome = kFlightOutcomeMiss;
    span.SetDetail("miss");
  } else {
    outcome = kFlightOutcomeError;
    span.SetStatus(status);
  }
  // Ended here so the trace is complete before the request is sampled.
  span.End();

  response->attempts.push_back({rung, status, skipped});
  const bool failure =
      outcome == kFlightOutcomeError ||
      (outcome == kFlightOutcomeSkipped && skip != Skip::kNoBackend);
  if (failure && response->degraded_status.ok()) {
    response->degraded_status = status;
  }

  // Always-on flight event, even with metrics disabled: the recorder is
  // the transient-failure journal, and a rung outcome is exactly the kind
  // of breadcrumb a post-mortem needs. args = (rung index, outcome code).
  static const int32_t kRungEvent =
      FlightRecorder::Global().InternName("serving.rung");
  FlightRecorder::Global().Record(FlightCategory::kServing, kRungEvent,
                                  static_cast<int64_t>(rung), outcome);

  if (obs_ == nullptr) return;
  RungInstruments& in = obs_->rungs[static_cast<size_t>(rung)];
  if (skipped) {
    in.skipped->Increment();
    return;
  }
  // The attempt counter doubles as the per-rung sampling sequence: a hot
  // rung (cache at full traffic) thins its latency histogram to 1-in-8
  // while a cold one (rare model calls) keeps recording exactly.
  const int64_t seq = in.attempts->FetchIncrement();
  if (SampleObservation(seq, kExactObservationWindow, kLatencySampleStride)) {
    in.latency->Observe(latency_millis);
  }
  if (outcome == kFlightOutcomeAnswer) {
    in.answers->Increment();
  } else if (outcome == kFlightOutcomeMiss) {
    in.misses->Increment();
  } else {
    in.errors->Increment();
  }
}

void RewriteService::NoteBreakerState(Trace* trace) {
  const CircuitBreaker::State state = breaker_.state();
  // One atomic exchange claims the transition: under concurrent callers
  // exactly one thread observes (prev != state) per state change and books
  // it. A burst of transitions between two calls can coalesce — transition
  // *counts* are best-effort observability; the state gauge converges.
  // ordering: relaxed — last-seen snapshot for trace annotation; a lost race
  // mislabels one trace at worst.
  const CircuitBreaker::State prev =
      last_breaker_state_.exchange(state, std::memory_order_relaxed);
  if (state == prev) return;
  if (trace != nullptr) {
    trace->Annotate("breaker",
                    std::string(CircuitBreaker::StateName(prev)) + " -> " +
                        CircuitBreaker::StateName(state));
  }
  if (obs_ != nullptr) {
    obs_->breaker_transitions[static_cast<size_t>(state)]->Increment();
    obs_->breaker_state->Set(static_cast<double>(state));
  }
}

RewriteService::Response RewriteService::Serve(
    const std::vector<std::string>& query_tokens) {
  return Serve(query_tokens,
               options_.default_budget_millis > 0
                   ? Deadline::AfterMillis(options_.default_budget_millis)
                   : Deadline::Infinite(),
               nullptr);
}

RewriteService::Response RewriteService::Serve(
    const std::vector<std::string>& query_tokens, Deadline deadline) {
  return Serve(query_tokens, deadline, nullptr);
}

RewriteService::Response RewriteService::Serve(
    const std::vector<std::string>& query_tokens, Deadline deadline,
    Trace* trace) {
  Response response;
  Stopwatch watch;
  const double charged_at_entry = deadline.charged_millis();
  // Wall clock plus virtual (fault-injected) time spent inside this call.
  const auto elapsed = [&] {
    return watch.ElapsedMillis() +
           (deadline.charged_millis() - charged_at_entry);
  };
  // Fills the response from the answering rung and books the whole
  // request. The request counter doubles as the sampling sequence for the
  // request-level histograms; every counter stays exact.
  int64_t request_seq = 0;
  const auto answer = [&](Source source,
                          std::vector<std::vector<std::string>> rewrites) {
    response.source = source;
    response.rewrites = std::move(rewrites);
    if (static_cast<int64_t>(response.rewrites.size()) >
        options_.max_rewrites) {
      response.rewrites.resize(options_.max_rewrites);
    }
    // The cache and the direct model give full-quality answers, degraded
    // only when an upstream rung failed (e.g. a cache outage).
    response.degraded = source == Source::kRuleBased ||
                        source == Source::kPassthrough ||
                        !response.degraded_status.ok();
    response.latency_millis = elapsed();
    // Flight event per finished request: (answering rung, latency in
    // microseconds). Always on — this is what makes the tail of a
    // post-mortem journal identify the in-flight request mix.
    static const int32_t kRequestEvent =
        FlightRecorder::Global().InternName("serving.request");
    FlightRecorder::Global().Record(
        FlightCategory::kServing, kRequestEvent,
        static_cast<int64_t>(response.source),
        static_cast<int64_t>(response.latency_millis * 1000.0));
    if (options_.trace_sampler != nullptr && trace != nullptr) {
      options_.trace_sampler->Sample(*trace, SourceName(response.source));
    }
    if (obs_ == nullptr) return;
    if (SampleObservation(request_seq, kExactObservationWindow,
                          kLatencySampleStride)) {
      // The trace id rides along as the bucket's exemplar — the /metrics
      // -> /tracez join for one concrete request in this bucket.
      obs_->request_latency->Observe(response.latency_millis,
                                     trace != nullptr ? trace->id() : 0);
    }
    if (response.degraded) obs_->degraded->Increment();
  };

  std::unique_ptr<Trace> sampled_trace;
  if (obs_ != nullptr) {
    request_seq = obs_->requests->FetchIncrement();
    if (SampleObservation(request_seq, kExactObservationWindow,
                          kDeadlineSampleStride) &&
        !deadline.infinite()) {
      obs_->deadline_remaining->Observe(deadline.RemainingMillis());
    }
    // Exemplar coverage: requests the caller did not trace get a
    // service-created trace exactly when their latency will be observed,
    // so every exemplar written by answer() resolves in the sampler.
    if (trace == nullptr && options_.trace_sampler != nullptr &&
        SampleObservation(request_seq, kExactObservationWindow,
                          kLatencySampleStride)) {
      sampled_trace = std::make_unique<Trace>();
      trace = sampled_trace.get();
    }
  }

  const std::string key = JoinStrings(query_tokens);

  // Rung 1: precomputed KV cache.
  {
    TraceSpan span(trace, "rung:cache");
    const double rung_start = elapsed();
    RewriteKvStore::Rewrites cached;
    const Status status = cache_->Lookup(key, deadline, &cached);
    RecordRung(Source::kCache, Skip::kNone, status, elapsed() - rung_start,
               span, &response);
    if (status.ok()) {
      answer(Source::kCache, std::move(cached));
      return response;
    }
  }

  // Rung 2: fast direct q2q model — deadline- and breaker-gated.
  if (model_ == nullptr) {
    TraceSpan span(trace, "rung:direct-model");
    RecordRung(Source::kDirectModel, Skip::kNoBackend,
               Status::FailedPrecondition("no direct model configured"), 0.0,
               span, &response);
  } else if (!deadline.HasBudget(options_.model_min_budget_millis)) {
    TraceSpan span(trace, "rung:direct-model");
    RecordRung(Source::kDirectModel, Skip::kNoBudget,
               Status::FailedPrecondition(
                   "deadline budget exhausted before model rung"),
               0.0, span, &response);
  } else if (!breaker_.AllowRequest()) {
    NoteBreakerState(trace);
    TraceSpan span(trace, "rung:direct-model");
    RecordRung(Source::kDirectModel, Skip::kBreakerOpen,
               Status::FailedPrecondition("direct-model circuit breaker open"),
               0.0, span, &response);
  } else {
    NoteBreakerState(trace);
    TraceSpan span(trace, "rung:direct-model");
    const double model_start = elapsed();
    std::vector<RewriteCandidate> candidates;
    Status status =
        model_->Rewrite(query_tokens, options_.max_rewrites,
                        options_.max_rewrite_len, deadline, &candidates);
    std::vector<std::vector<std::string>> rewrites;
    for (RewriteCandidate& c : candidates) {
      rewrites.push_back(std::move(c.tokens));
    }
    if (status.ok() && deadline.Expired()) {
      status = Status::FailedPrecondition(
          "deadline expired during model decode");
    } else if (status.ok() && !rewrites.empty() && !ValidRewrites(rewrites)) {
      status = Status::Internal("direct model returned invalid output");
    }
    if (status.ok()) {
      breaker_.RecordSuccess();
    } else {
      breaker_.RecordFailure();
    }
    NoteBreakerState(trace);
    // A healthy model with nothing to say is a miss, not a failure.
    if (status.ok() && rewrites.empty()) {
      status = Status::NotFound("model produced no rewrites");
    }
    RecordRung(Source::kDirectModel, Skip::kNone, status,
               elapsed() - model_start, span, &response);
    if (status.ok()) {
      answer(Source::kDirectModel, std::move(rewrites));
      return response;
    }
  }

  // Rung 3: rule-based synonym baseline.
  if (rule_based_ == nullptr) {
    TraceSpan span(trace, "rung:rule-based");
    RecordRung(Source::kRuleBased, Skip::kNoBackend,
               Status::FailedPrecondition("no rule-based rewriter configured"),
               0.0, span, &response);
  } else {
    TraceSpan span(trace, "rung:rule-based");
    const double rung_start = elapsed();
    // In-memory synonym lookup: microseconds, cannot block, so
    // RuleBasedRewriter deliberately has no Deadline overload.
    // NOLINTNEXTLINE(cyqr-deadline-propagation): see above.
    std::vector<std::vector<std::string>> rewrites = rule_based_->Rewrite(
        query_tokens, options_.max_rewrites);
    if (rewrites.empty()) {
      RecordRung(Source::kRuleBased, Skip::kNone,
                 Status::NotFound("no synonym phrase matched"),
                 elapsed() - rung_start, span, &response);
    } else {
      RecordRung(Source::kRuleBased, Skip::kNone, Status::OK(),
                 elapsed() - rung_start, span, &response);
      answer(Source::kRuleBased, std::move(rewrites));
      return response;
    }
  }

  // Rung 4: identity passthrough — cannot fail, always answers.
  TraceSpan span(trace, "rung:passthrough");
  RecordRung(Source::kPassthrough, Skip::kNone, Status::OK(), 0.0, span,
             &response);
  answer(Source::kPassthrough, {query_tokens});
  return response;
}

bool RewriteService::ValidRewrites(
    const std::vector<std::vector<std::string>>& rewrites) const {
  for (const std::vector<std::string>& r : rewrites) {
    if (r.empty()) return false;
    if (static_cast<int64_t>(r.size()) > options_.max_rewrite_len) {
      return false;
    }
    for (const std::string& token : r) {
      if (token.empty()) return false;
    }
  }
  return true;
}

void RewriteService::PrecomputeHead(
    const CycleRewriter& rewriter,
    const std::vector<std::vector<std::string>>& head_queries,
    const RewriteOptions& rewrite_options, RewriteKvStore* store) {
  CYQR_CHECK(store != nullptr);
  // Batch the inserts: the store's copy-swap Put would otherwise copy the
  // growing table once per head query.
  std::vector<std::pair<std::string, RewriteKvStore::Rewrites>> entries;
  entries.reserve(head_queries.size());
  for (const auto& query : head_queries) {
    CycleRewriter::Result result = rewriter.Rewrite(query, rewrite_options);
    RewriteKvStore::Rewrites rewrites;
    for (const RewriteCandidate& c : result.rewrites) {
      rewrites.push_back(c.tokens);
    }
    entries.emplace_back(JoinStrings(query), std::move(rewrites));
  }
  store->PutMany(std::move(entries));
}

}  // namespace cyqr
