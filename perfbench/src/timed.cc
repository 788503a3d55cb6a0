#include "src/timed.h"

namespace cyqr::perfbench {

Status TimedKvBackend::Lookup(const std::string& key, Deadline& deadline,
                              RewriteKvStore::Rewrites* out) {
  ScopedSpan span(recorder_, "serving.cache_lookup");
  Status status = inner_->Lookup(key, deadline, out);
  calls_.fetch_add(1);
  if (status.ok()) hits_.fetch_add(1);
  return status;
}

Status TimedModelBackend::Rewrite(const std::vector<std::string>& query_tokens,
                                  int64_t k, int64_t max_len,
                                  Deadline& deadline,
                                  std::vector<RewriteCandidate>* out) {
  ScopedSpan span(recorder_, "serving.model_rewrite");
  return inner_->Rewrite(query_tokens, k, max_len, deadline, out);
}

Tensor TimedSeq2Seq::Forward(const EncodedBatch& src,
                             const EncodedBatch& tgt_in) const {
  ScopedSpan span(recorder_, "nmt.forward");
  return inner_->Forward(src, tgt_in);
}

std::unique_ptr<DecodeState> TimedSeq2Seq::StartDecode(
    const std::vector<int32_t>& src_ids) const {
  ScopedSpan span(recorder_, "nmt.encode");
  return inner_->StartDecode(src_ids);
}

std::vector<float> TimedSeq2Seq::Step(DecodeState& state,
                                      int32_t token) const {
  ScopedSpan span(recorder_, "nmt.step");
  steps_.fetch_add(1);
  return inner_->Step(state, token);
}

}  // namespace cyqr::perfbench
