#include "src/setup.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "datagen/query_pairs.h"
#include "rewrite/trainer.h"
#include "serving/rewrite_service.h"

namespace cyqr::perfbench {

namespace {

void BuildWorld(Env* env) {
  env->catalog = Catalog::Generate({});
  ClickLogConfig log_config;
  log_config.num_distinct_queries = kDistinctQueries;
  log_config.num_sessions = kSessions;
  log_config.seed = kWorldSeed;
  env->log = ClickLog::Generate(env->catalog, log_config);
  const std::vector<TokenPair> token_pairs =
      env->log.TokenPairs(env->catalog);
  std::vector<std::vector<std::string>> corpus;
  for (const TokenPair& p : token_pairs) {
    corpus.push_back(p.query);
    corpus.push_back(p.title);
  }
  env->vocab = Vocabulary::Build(corpus);
  std::vector<SeqPair> all = EncodePairs(token_pairs, env->vocab);
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 10 == 9 ? env->eval_pairs : env->train_pairs)
        .push_back(std::move(all[i]));
  }
  const std::vector<double>& popularity = env->log.query_popularity();
  env->by_popularity.resize(popularity.size());
  std::iota(env->by_popularity.begin(), env->by_popularity.end(), 0);
  std::stable_sort(env->by_popularity.begin(), env->by_popularity.end(),
                   [&popularity](int64_t a, int64_t b) {
                     return popularity[a] > popularity[b];
                   });
}

void BuildIndex(Env* env) {
  for (const Product& p : env->catalog.products()) {
    env->index.AddDocument(p.id, p.title_tokens);
    env->bm25.AddDocument(p.id, p.title_tokens);
  }
  env->engine = std::make_unique<RetrievalEngine>(&env->index);
  env->judge = std::make_unique<RelevanceJudge>(&env->catalog);
}

void TrainRanker(Env* env) {
  env->tower =
      std::make_unique<TwoTowerModel>(env->vocab.size(), 16, env->tower_rng);
  TwoTowerModel::TrainOptions tower_options;
  tower_options.steps = 120;
  (void)env->tower->Train(env->train_pairs, tower_options);
  env->ranker = std::make_unique<PairwiseRanker>(
      &env->catalog, &env->bm25, env->tower.get(), &env->vocab);
  PairwiseRanker::TrainOptions rank_options;
  rank_options.steps = 1500;
  (void)env->ranker->Train(env->log, rank_options);
}

Status TrainCycle(Env* env) {
  env->cycle = std::make_unique<CycleModel>(
      BenchCycleConfig(env->vocab.size()), env->cycle_rng);
  CycleTrainerOptions options;
  options.max_steps = kSetupCycleSteps;
  options.warmup_steps = kSetupCycleSteps;
  options.joint = false;
  options.eval_every = 0;
  CycleTrainer trainer(env->cycle.get(), env->train_pairs, options);
  CYQR_RETURN_IF_ERROR(trainer.Train({}));
  env->cycle->SetTraining(false);
  return Status::OK();
}

void TrainDirect(Env* env) {
  Seq2SeqConfig config;
  config.vocab_size = env->vocab.size();
  config.d_model = 32;
  config.num_heads = 2;
  config.ff_hidden = 64;
  config.num_layers = 1;
  env->direct = std::make_unique<DirectRewriter>(
      DirectArch::kHybrid, config, &env->vocab, env->direct_rng);
  const std::vector<SeqPair> pairs = EncodeQueryPairs(
      MineSynonymousQueryPairs(env->log, /*min_shared_clicks=*/3),
      env->vocab);
  std::vector<SeqPair> train;
  for (size_t i = 0; i < pairs.size(); ++i) {
    (i % 10 == 9 ? env->direct_eval_pairs : train).push_back(pairs[i]);
  }
  SupervisedTrainOptions options;
  options.max_steps = kSetupDirectSteps;
  (void)TrainSupervised(env->direct->model(), train, options);
  env->direct->model().SetTraining(false);
}

void SelectQueries(Env* env) {
  const size_t head = std::min(kHeadQueries, env->by_popularity.size());
  env->head.assign(env->by_popularity.begin(),
                   env->by_popularity.begin() + head);
  const size_t tail_end =
      std::min(head + kTailQueries, env->by_popularity.size());
  env->tail.assign(env->by_popularity.begin() + head,
                   env->by_popularity.begin() + tail_end);
}

void PrecomputeHeadCache(Env* env) {
  CycleRewriter rewriter(env->cycle.get(), &env->vocab);
  std::vector<std::vector<std::string>> queries;
  for (int64_t q : env->head) queries.push_back(env->log.queries()[q].tokens);
  RewriteOptions options;
  options.k = kRewrites;
  RewriteService::PrecomputeHead(rewriter, queries, options, &env->store);
  const RewriteKvStore::Snapshot table = env->store.snapshot();
  for (const auto& tokens : queries) {
    const std::string key = JoinStrings(tokens);
    auto it = table->find(key);
    env->head_entries.emplace_back(
        key, it == table->end() ? RewriteKvStore::Rewrites{} : it->second);
  }
}

}  // namespace

CycleConfig BenchCycleConfig(int64_t vocab_size) {
  CycleConfig config = PaperScaledConfig(vocab_size);
  config.forward.num_layers = 2;
  return config;
}

std::unique_ptr<Env> Setup(const SetupSpec& spec) {
  auto env = std::make_unique<Env>();
  Stopwatch watch;
  BuildWorld(env.get());
  SelectQueries(env.get());
  env->phases.world_s = watch.ElapsedSeconds();
  watch.Restart();
  BuildIndex(env.get());
  env->phases.index_s = watch.ElapsedSeconds();
  watch.Restart();
  TrainRanker(env.get());
  env->phases.ranker_s = watch.ElapsedSeconds();
  watch.Restart();
  if (spec.cycle || spec.serving) {
    const Status trained = TrainCycle(env.get());
    CYQR_CHECK_MSG(trained.ok(), trained.ToString().c_str());
  }
  if (spec.serving) TrainDirect(env.get());
  env->phases.train_s = watch.ElapsedSeconds();
  watch.Restart();
  if (spec.serving) PrecomputeHeadCache(env.get());
  env->phases.head_cache_s = watch.ElapsedSeconds();
  return env;
}

double MeanTokenNll(const Seq2SeqModel& model,
                    const std::vector<SeqPair>& pairs) {
  return std::log(EvaluateTeacherForced(model, pairs).perplexity);
}

double CycleEvalLoss(const CycleModel& model,
                     const std::vector<SeqPair>& eval_pairs) {
  return 0.5 * (MeanTokenNll(model.forward(), eval_pairs) +
                MeanTokenNll(model.backward(), ReversePairs(eval_pairs)));
}

std::vector<std::vector<float>> ParameterValues(
    const std::vector<Tensor>& params) {
  std::vector<std::vector<float>> out;
  out.reserve(params.size());
  for (const Tensor& p : params) {
    out.emplace_back(p.data(), p.data() + p.NumElements());
  }
  return out;
}

}  // namespace cyqr::perfbench
