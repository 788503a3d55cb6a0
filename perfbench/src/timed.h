#ifndef CYQR_PERFBENCH_TIMED_H_
#define CYQR_PERFBENCH_TIMED_H_

// Timing decorators for the traced run. They sit on the library's own
// seams (KvBackend, ModelBackend, Seq2SeqModel), forward every call
// unchanged, and record a span around it.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nmt/seq2seq.h"
#include "serving/backends.h"
#include "src/spans.h"

namespace cyqr::perfbench {

/// KvBackend decorator: span "serving.cache_lookup" plus hit/call counts.
class TimedKvBackend : public KvBackend {
 public:
  /// `inner` must outlive the decorator; `recorder` may be null.
  TimedKvBackend(KvBackend* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] Status Lookup(const std::string& key, Deadline& deadline,
                              RewriteKvStore::Rewrites* out) override;

  int64_t calls() const { return calls_.load(); }
  int64_t hits() const { return hits_.load(); }

 private:
  KvBackend* inner_;
  SpanRecorder* recorder_;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> hits_{0};
};

/// ModelBackend decorator: span "serving.model_rewrite".
class TimedModelBackend : public ModelBackend {
 public:
  /// `inner` must outlive the decorator; `recorder` may be null.
  TimedModelBackend(ModelBackend* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] Status Rewrite(const std::vector<std::string>& query_tokens,
                               int64_t k, int64_t max_len, Deadline& deadline,
                               std::vector<RewriteCandidate>* out) override;

 private:
  ModelBackend* inner_;
  SpanRecorder* recorder_;
};

/// Seq2SeqModel wrapper: spans "nmt.encode" (StartDecode), "nmt.step"
/// (Step) and "nmt.forward" (teacher-forced Forward), and a count of Step
/// calls. Decoders and scorers run over it unchanged.
class TimedSeq2Seq : public Seq2SeqModel {
 public:
  /// `inner` must outlive the wrapper; `recorder` may be null.
  TimedSeq2Seq(const Seq2SeqModel* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  Tensor Forward(const EncodedBatch& src,
                 const EncodedBatch& tgt_in) const override;
  std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const override;
  std::vector<float> Step(DecodeState& state, int32_t token) const override;
  int64_t vocab_size() const override { return inner_->vocab_size(); }
  std::string name() const override { return inner_->name(); }

  int64_t steps() const { return steps_.load(); }

 private:
  const Seq2SeqModel* inner_;
  SpanRecorder* recorder_;
  mutable std::atomic<int64_t> steps_{0};
};

}  // namespace cyqr::perfbench

#endif  // CYQR_PERFBENCH_TIMED_H_
