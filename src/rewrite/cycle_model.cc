#include "rewrite/cycle_model.h"

#include <utility>

#include "core/check.h"
#include "nmt/attention_seq2seq.h"
#include "nmt/transformer.h"

namespace cyqr {

namespace {

std::unique_ptr<Seq2SeqModel> MakeModel(ArchType arch,
                                        const Seq2SeqConfig& config,
                                        Rng& rng) {
  switch (arch) {
    case ArchType::kTransformer:
      return std::make_unique<TransformerSeq2Seq>(config, rng);
    case ArchType::kAttentionRnn:
      return MakeAttentionSeq2Seq(config, rng);
  }
  CYQR_CHECK_MSG(false, "unknown architecture");
  return nullptr;
}

}  // namespace

CycleModel::CycleModel(const CycleConfig& config, Rng& rng)
    : config_(config),
      rng_(&rng),
      forward_(MakeModel(config.arch, config.forward, rng)),
      backward_(MakeModel(config.arch, config.backward, rng)) {}

CycleModel::CycleModel(const CycleConfig& config, Rng& rng,
                       std::unique_ptr<Seq2SeqModel> forward,
                       std::unique_ptr<Seq2SeqModel> backward)
    : config_(config),
      rng_(&rng),
      forward_(std::move(forward)),
      backward_(std::move(backward)) {
  CYQR_CHECK(forward_ != nullptr && backward_ != nullptr);
}

std::vector<Tensor> CycleModel::Parameters() const {
  std::vector<Tensor> params = forward_->Parameters();
  std::vector<Tensor> b = backward_->Parameters();
  params.insert(params.end(), b.begin(), b.end());
  return params;
}

void CycleModel::SetTraining(bool training) {
  forward_->SetTraining(training);
  backward_->SetTraining(training);
}

}  // namespace cyqr
