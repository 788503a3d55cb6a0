#ifndef CYQR_PERFBENCH_CHECKS_H_
#define CYQR_PERFBENCH_CHECKS_H_

// Correctness checks on the program's outputs. Each compares an output
// with a computation made apart from the code path that produced it, or
// with a property the method must have, and returns an empty string when
// the output passes or a description of the first violation. The run's
// self-test feeds each check a corrupted output and requires a rejection.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "decode/common.h"
#include "index/bm25.h"
#include "index/posting.h"
#include "nmt/seq2seq.h"
#include "rewrite/inference.h"
#include "serving/kv_store.h"
#include "tensor/tensor.h"

namespace cyqr::perfbench {

/// Absolute tolerance between an incrementally decoded log-prob and the
/// teacher-forced batched forward pass (float32 arithmetic, different
/// operation order; sequences of at most 21 tokens).
inline constexpr double kLogProbTolerance = 2e-3;

/// Every document of the per-query retrieval union is in the merged-tree
/// result (the merge loses no recall).
std::string CheckMergedCoversSeparate(const PostingList& merged,
                                      const PostingList& separate);

/// `ranked` holds exactly `candidates`, each with the score `score(doc)`
/// recomputed per document, ordered by score (ties by document id).
std::string CheckRankOrder(const std::vector<Bm25Scorer::Scored>& ranked,
                           const PostingList& candidates,
                           const std::function<double(DocId)>& score);

/// Log-probability of each target position under teacher forcing
/// (targets followed by end-of-sequence), from one Forward pass.
std::vector<double> TeacherForcedTokenLogProbs(
    const Seq2SeqModel& model, const std::vector<int32_t>& src,
    const std::vector<int32_t>& tgt);

/// Counts what CheckDecodedLogProbs saw, by how each hypothesis ended.
struct HypothesisEnds {
  int64_t eos = 0;        // Ended at end-of-sequence.
  int64_t max_len = 0;    // Ran out of length without end-of-sequence.
  int64_t short_open = 0; // Neither: shorter than max_len, no end-of-sequence.
};

/// A decoded hypothesis that ended at end-of-sequence has the log-prob
/// ScoreSequence gives its tokens; any other hypothesis has the log-prob of
/// its tokens without the end-of-sequence term. `ends` tallies which kind
/// each hypothesis was.
std::string CheckDecodedLogProbs(const Seq2SeqModel& model,
                                 const std::vector<int32_t>& src,
                                 const std::vector<DecodedSequence>& hyps,
                                 int64_t max_len, HypothesisEnds* ends);

/// Top-n sampled titles: CheckDecodedLogProbs, and in addition every title
/// shorter than `max_len` ended at end-of-sequence (the sampler stops a
/// title only there or at the length limit), so its log-prob carries the
/// end-of-sequence term.
std::string CheckSampledTitles(const Seq2SeqModel& model,
                               const std::vector<int32_t>& src,
                               const std::vector<DecodedSequence>& titles,
                               int64_t max_len, HypothesisEnds* ends);

/// Each rewrite's score is log-sum-exp over the synthetic titles of
/// (title log-prob + backward ScoreSequence(title, rewrite)).
std::string CheckRewriteScores(const Seq2SeqModel& backward,
                               const std::vector<DecodedSequence>& titles,
                               const std::vector<RewriteCandidate>& rewrites);

/// Rewrites are at most k, distinct, differ from the query, and are sorted
/// by score, best first.
std::string CheckRewriteSet(const std::vector<RewriteCandidate>& rewrites,
                            const std::vector<int32_t>& query_ids, int64_t k);

/// The snapshot at `path` loads back into a fresh store as `expected`.
std::string CheckSnapshot(const std::string& path,
                          const RewriteKvStore::Map& expected);

/// Two parameter sets are bit-identical.
std::string CheckParamsIdentical(const std::vector<std::vector<float>>& a,
                                 const std::vector<std::vector<float>>& b);

/// FNV-1a: folds `n` bytes into `hash` (start from kFnvBasis).
inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;
uint64_t Fnv1a(uint64_t hash, const void* data, size_t n);

/// FNV-1a over token lists and over ranked documents (with score bits):
/// compact fingerprints the serving loop records per request so the
/// checks can compare every answer after the timed phase.
uint64_t HashRewrites(const std::vector<std::vector<std::string>>& rewrites);
uint64_t HashPage(const std::vector<Bm25Scorer::Scored>& ranked,
                  size_t page_size);

}  // namespace cyqr::perfbench

#endif  // CYQR_PERFBENCH_CHECKS_H_
