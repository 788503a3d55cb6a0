#ifndef CYQR_PERFBENCH_SETUP_H_
#define CYQR_PERFBENCH_SETUP_H_

// Set-up shared by the workloads: the synthetic world, the retrieval and
// ranking stack, and the models, all built and trained with the code under
// test on every run (nothing is read from a cache).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/click_log.h"
#include "eval/judge.h"
#include "eval/ranker.h"
#include "eval/two_tower.h"
#include "index/bm25.h"
#include "index/inverted_index.h"
#include "index/retrieval.h"
#include "nmt/scorer.h"
#include "rewrite/cycle_model.h"
#include "rewrite/direct_model.h"
#include "rewrite/inference.h"
#include "serving/kv_store.h"
#include "text/vocabulary.h"

namespace cyqr::perfbench {

// Input make-up. The world is fixed; --seed shapes the traffic and
// schedules the workloads draw from it (see README.md, "Seeds").
inline constexpr int64_t kDistinctQueries = 800;
inline constexpr int64_t kSessions = 40000;
inline constexpr uint64_t kWorldSeed = 11;
inline constexpr size_t kHeadQueries = 40;   // Most popular: the KV head.
inline constexpr size_t kTailQueries = 320;  // Next most popular.
inline constexpr int64_t kSetupCycleSteps = 100;
inline constexpr int64_t kSetupDirectSteps = 100;
inline constexpr int64_t kRewrites = 3;      // k: titles and rewrites.
inline constexpr int64_t kMaxRewriteLen = 10;
inline constexpr int64_t kPageSize = 10;

/// Wall time of each set-up phase, in seconds.
struct SetupPhases {
  double world_s = 0;
  double index_s = 0;
  double ranker_s = 0;
  double train_s = 0;
  double head_cache_s = 0;
};

/// Which parts a workload needs.
struct SetupSpec {
  bool cycle = false;    // Cycle model (forward + backward), trained.
  bool serving = false;  // The head set precomputed into the KV store with
                         // the cycle model, and the direct model trained.
};

/// Everything a workload runs against. Members point at each other, so
/// the object is neither copied nor moved.
struct Env {
  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  // World.
  Catalog catalog;
  ClickLog log;
  Vocabulary vocab;
  std::vector<SeqPair> train_pairs;
  std::vector<SeqPair> eval_pairs;
  std::vector<int64_t> by_popularity;  // Query indices, most popular first.

  // Retrieval and ranking.
  InvertedIndex index;
  Bm25Scorer bm25;
  Rng tower_rng{9};
  std::unique_ptr<TwoTowerModel> tower;
  std::unique_ptr<PairwiseRanker> ranker;
  std::unique_ptr<RetrievalEngine> engine;
  std::unique_ptr<RelevanceJudge> judge;

  // Models.
  Rng cycle_rng{1234};
  std::unique_ptr<CycleModel> cycle;
  Rng direct_rng{42};
  std::unique_ptr<DirectRewriter> direct;
  std::vector<SeqPair> direct_eval_pairs;

  // Serving data.
  std::vector<int64_t> head;  // Head query indices (in the store).
  std::vector<int64_t> tail;  // Tail query indices (absent from it).
  RewriteKvStore store;
  std::vector<std::pair<std::string, RewriteKvStore::Rewrites>> head_entries;

  SetupPhases phases;
};

/// Builds one Env. Deterministic: two calls yield bit-identical models.
std::unique_ptr<Env> Setup(const SetupSpec& spec);

/// The cycle model configuration the workloads use.
CycleConfig BenchCycleConfig(int64_t vocab_size);

/// Held-out teacher-forced mean token NLL (nats) of a model on `pairs`.
double MeanTokenNll(const Seq2SeqModel& model,
                    const std::vector<SeqPair>& pairs);

/// Mean token NLL of the forward and backward models on the held-out
/// query-title pairs.
double CycleEvalLoss(const CycleModel& model,
                     const std::vector<SeqPair>& eval_pairs);

/// Copies of every parameter's values, in order.
std::vector<std::vector<float>> ParameterValues(
    const std::vector<Tensor>& params);

}  // namespace cyqr::perfbench

#endif  // CYQR_PERFBENCH_SETUP_H_
