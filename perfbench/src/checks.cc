#include "src/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "core/math.h"
#include "nmt/batch.h"
#include "nmt/scorer.h"
#include "text/vocabulary.h"

namespace cyqr::perfbench {

namespace {

std::string Ids(const std::vector<int32_t>& ids) {
  std::string out;
  for (int32_t id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id);
  }
  return "[" + out + "]";
}

}  // namespace

uint64_t Fnv1a(uint64_t hash, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string CheckMergedCoversSeparate(const PostingList& merged,
                                      const PostingList& separate) {
  const std::set<DocId> have(merged.begin(), merged.end());
  for (DocId d : separate) {
    if (have.count(d) == 0) {
      return "document " + std::to_string(d) +
             " found by separate trees is missing from the merged tree";
    }
  }
  return "";
}

std::string CheckRankOrder(const std::vector<Bm25Scorer::Scored>& ranked,
                           const PostingList& candidates,
                           const std::function<double(DocId)>& score) {
  std::vector<DocId> got;
  for (const auto& s : ranked) got.push_back(s.doc);
  std::vector<DocId> want = candidates;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) return "ranked list is not the candidate set";
  for (size_t i = 0; i < ranked.size(); ++i) {
    const double recomputed = score(ranked[i].doc);
    if (recomputed != ranked[i].score) {
      return "document " + std::to_string(ranked[i].doc) + " ranked with " +
             std::to_string(ranked[i].score) + ", recomputed " +
             std::to_string(recomputed);
    }
    if (i == 0) continue;
    const auto& a = ranked[i - 1];
    const auto& b = ranked[i];
    if (a.score < b.score || (a.score == b.score && a.doc > b.doc)) {
      return "position " + std::to_string(i) + " is out of score order";
    }
  }
  return "";
}

std::vector<double> TeacherForcedTokenLogProbs(
    const Seq2SeqModel& model, const std::vector<int32_t>& src,
    const std::vector<int32_t>& tgt) {
  NoGradGuard no_grad;
  const EncodedBatch src_batch = PadBatch({src});
  const TeacherForcedBatch tf = MakeTeacherForced({tgt});
  const Tensor logits = model.Forward(src_batch, tf.inputs);
  const int64_t v = model.vocab_size();
  std::vector<double> out;
  for (int64_t t = 0; t < tf.inputs.max_len; ++t) {
    if (tf.target_mask[t] == 0.0f) continue;
    const float* row = logits.data() + t * v;
    out.push_back(row[tf.targets[t]] - LogSumExp(row, static_cast<size_t>(v)));
  }
  return out;
}

std::string CheckDecodedLogProbs(const Seq2SeqModel& model,
                                 const std::vector<int32_t>& src,
                                 const std::vector<DecodedSequence>& hyps,
                                 int64_t max_len, HypothesisEnds* ends) {
  for (const DecodedSequence& h : hyps) {
    const double full = ScoreSequence(model, src, h.ids);
    if (std::abs(h.log_prob - full) <= kLogProbTolerance) {
      ++ends->eos;
      continue;
    }
    // Not an end-of-sequence hypothesis: its log-prob omits that term.
    const std::vector<double> tokens =
        TeacherForcedTokenLogProbs(model, src, h.ids);
    double prefix = 0;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) prefix += tokens[i];
    if (std::abs(h.log_prob - prefix) > kLogProbTolerance) {
      return "hypothesis " + Ids(h.ids) + " has log-prob " +
             std::to_string(h.log_prob) + "; teacher forcing gives " +
             std::to_string(full) + " with end-of-sequence, " +
             std::to_string(prefix) + " without";
    }
    ++(static_cast<int64_t>(h.ids.size()) == max_len ? ends->max_len
                                                     : ends->short_open);
  }
  return "";
}

std::string CheckSampledTitles(const Seq2SeqModel& model,
                               const std::vector<int32_t>& src,
                               const std::vector<DecodedSequence>& titles,
                               int64_t max_len, HypothesisEnds* ends) {
  HypothesisEnds mine;
  const std::string verdict =
      CheckDecodedLogProbs(model, src, titles, max_len, &mine);
  ends->eos += mine.eos;
  ends->max_len += mine.max_len;
  ends->short_open += mine.short_open;
  if (!verdict.empty()) return verdict;
  if (mine.short_open > 0) {
    return std::to_string(mine.short_open) +
           " title(s) shorter than the length limit lack the "
           "end-of-sequence term";
  }
  return "";
}

std::string CheckRewriteScores(const Seq2SeqModel& backward,
                               const std::vector<DecodedSequence>& titles,
                               const std::vector<RewriteCandidate>& rewrites) {
  for (const RewriteCandidate& r : rewrites) {
    std::vector<double> joint;
    for (const DecodedSequence& t : titles) {
      if (t.ids.empty()) continue;
      joint.push_back(t.log_prob + ScoreSequence(backward, t.ids, r.ids));
    }
    const double expected = LogSumExp(joint);
    if (std::abs(expected - r.log_prob) > kLogProbTolerance) {
      return "rewrite " + Ids(r.ids) + " scored " +
             std::to_string(r.log_prob) + ", recomputed " +
             std::to_string(expected);
    }
  }
  return "";
}

std::string CheckRewriteSet(const std::vector<RewriteCandidate>& rewrites,
                            const std::vector<int32_t>& query_ids,
                            int64_t k) {
  if (static_cast<int64_t>(rewrites.size()) > k) return "more than k rewrites";
  std::set<std::vector<int32_t>> seen;
  for (size_t i = 0; i < rewrites.size(); ++i) {
    const RewriteCandidate& r = rewrites[i];
    if (r.ids.empty()) return "empty rewrite";
    if (r.ids == query_ids) return "rewrite equals the query";
    if (!seen.insert(r.ids).second) return "duplicate rewrite " + Ids(r.ids);
    if (i > 0 && rewrites[i - 1].log_prob < r.log_prob) {
      return "rewrites not sorted by score at position " + std::to_string(i);
    }
  }
  return "";
}

std::string CheckSnapshot(const std::string& path,
                          const RewriteKvStore::Map& expected) {
  RewriteKvStore loaded;
  const Status status = loaded.Load(path);
  if (!status.ok()) return "snapshot does not load: " + status.ToString();
  if (*loaded.snapshot() != expected) {
    return "loaded snapshot differs from the published table";
  }
  return "";
}

std::string CheckParamsIdentical(const std::vector<std::vector<float>>& a,
                                 const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return "parameter count differs";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return "parameter " + std::to_string(i) + " has a different size";
    }
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
            0) {
      return "parameter " + std::to_string(i) + " differs";
    }
  }
  return "";
}

uint64_t HashRewrites(const std::vector<std::vector<std::string>>& rewrites) {
  uint64_t h = kFnvBasis;
  for (const auto& r : rewrites) {
    for (const std::string& token : r) {
      h = Fnv1a(h, token.data(), token.size());
      h = Fnv1a(h, " ", 1);
    }
    h = Fnv1a(h, "\n", 1);
  }
  return h;
}

uint64_t HashPage(const std::vector<Bm25Scorer::Scored>& ranked,
                  size_t page_size) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < ranked.size() && i < page_size; ++i) {
    h = Fnv1a(h, &ranked[i].doc, sizeof(ranked[i].doc));
    h = Fnv1a(h, &ranked[i].score, sizeof(ranked[i].score));
  }
  return h;
}

}  // namespace cyqr::perfbench
