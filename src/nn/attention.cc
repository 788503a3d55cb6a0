#include "nn/attention.h"

#include <cmath>

#include "core/check.h"

namespace cyqr {

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t num_heads,
                                       Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  CYQR_CHECK_EQ(dim % num_heads, 0);
  RegisterModule(&wq_);
  RegisterModule(&wk_);
  RegisterModule(&wv_);
  RegisterModule(&wo_);
}

Tensor MultiHeadAttention::Forward(const Tensor& query,
                                   const Tensor& keys_values,
                                   const std::vector<float>& mask) const {
  return Attend(query, ProjectKeyValues(keys_values), mask);
}

MultiHeadAttention::KeyValues MultiHeadAttention::ProjectKeyValues(
    const Tensor& keys_values) const {
  CYQR_CHECK_EQ(keys_values.shape().rank(), 3);
  return {wk_.Forward(keys_values), wv_.Forward(keys_values)};
}

Tensor MultiHeadAttention::Attend(const Tensor& query, const KeyValues& kv,
                                  const std::vector<float>& mask) const {
  CYQR_CHECK_EQ(query.shape().rank(), 3);
  CYQR_CHECK_EQ(kv.keys.shape().rank(), 3);
  const int64_t b = query.shape().dim(0);
  const int64_t tq = query.shape().dim(1);
  const int64_t tk = kv.keys.shape().dim(1);

  Tensor q = SplitHeads(wq_.Forward(query), num_heads_);  // [B*H,Tq,dh]
  Tensor k = SplitHeads(kv.keys, num_heads_);             // [B*H,Tk,dh]
  Tensor v = SplitHeads(kv.values, num_heads_);           // [B*H,Tk,dh]

  Tensor scores = MatMul(q, k, /*trans_a=*/false, /*trans_b=*/true);
  scores = Scale(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  if (!mask.empty()) {
    CYQR_CHECK_EQ(static_cast<int64_t>(mask.size()),
                  b * num_heads_ * tq * tk);
    scores = AddMask(scores, mask);
  }
  Tensor attn = Softmax(scores);  // [B*H, Tq, Tk]

  if (capture_weights_) {
    last_tq_ = tq;
    last_tk_ = tk;
    last_attention_.assign(static_cast<size_t>(tq * tk), 0.0f);
    const float* pa = attn.data();
    for (int64_t h = 0; h < num_heads_; ++h) {
      const float* head = pa + h * tq * tk;  // Batch element 0.
      for (int64_t i = 0; i < tq * tk; ++i) {
        last_attention_[i] += head[i] / static_cast<float>(num_heads_);
      }
    }
  }

  Tensor ctx = MatMul(attn, v);  // [B*H, Tq, dh]
  return wo_.Forward(MergeHeads(ctx, num_heads_));
}

}  // namespace cyqr
