#include "nmt/transformer.h"

#include <cmath>

#include "core/check.h"

namespace cyqr {

namespace {

/// Incremental decoding state: per decoder layer, the self-attention keys
/// and values of every token fed so far plus the cross-attention keys and
/// values of the encoder memory, so each Step runs the decoder on the new
/// row alone. Step's logits are bit-identical to the last row of Forward
/// over the same prefix (see MultiHeadAttention). Re-running the decoder
/// over the whole prefix instead, the paper's cost profile in Table V,
/// makes a step cost grow with the prefix. bench_table5_latency times both:
/// about 6 ms cached against 65 ms re-run for a beam-3, 15-step decode
/// (EXPERIMENTS.md).
class TransformerDecodeState : public DecodeState {
 public:
  std::vector<TransformerDecoderLayer::Cache> layers;
  int64_t length = 0;  // Tokens fed so far (the first is BOS).

  /// Copies the self-attention rows (std::vector), so branches never see
  /// each other's tokens. The cross keys/values are shared: never written.
  std::unique_ptr<DecodeState> Clone() const override {
    return std::make_unique<TransformerDecodeState>(*this);
  }
};

}  // namespace

TransformerEncoderLayer::TransformerEncoderLayer(const Seq2SeqConfig& config,
                                                 Rng& rng)
    : self_attn_(config.d_model, config.num_heads, rng),
      ff_(config.d_model, config.ff_hidden, rng),
      norm1_(config.d_model),
      norm2_(config.d_model),
      dropout_(config.dropout, rng) {
  RegisterModule(&self_attn_);
  RegisterModule(&ff_);
  RegisterModule(&norm1_);
  RegisterModule(&norm2_);
  RegisterModule(&dropout_);
}

Tensor TransformerEncoderLayer::Forward(
    const Tensor& x, const std::vector<float>& pad_mask) const {
  Tensor h = norm1_.Forward(x);
  Tensor y = Add(x, dropout_.Forward(self_attn_.Forward(h, h, pad_mask)));
  Tensor h2 = norm2_.Forward(y);
  return Add(y, dropout_.Forward(ff_.Forward(h2)));
}

TransformerDecoderLayer::TransformerDecoderLayer(const Seq2SeqConfig& config,
                                                 Rng& rng)
    : self_attn_(config.d_model, config.num_heads, rng),
      cross_attn_(config.d_model, config.num_heads, rng),
      ff_(config.d_model, config.ff_hidden, rng),
      norm1_(config.d_model),
      norm2_(config.d_model),
      norm3_(config.d_model),
      dropout_(config.dropout, rng) {
  RegisterModule(&self_attn_);
  RegisterModule(&cross_attn_);
  RegisterModule(&ff_);
  RegisterModule(&norm1_);
  RegisterModule(&norm2_);
  RegisterModule(&norm3_);
  RegisterModule(&dropout_);
}

Tensor TransformerDecoderLayer::Forward(
    const Tensor& x, const Tensor& memory,
    const std::vector<float>& causal_mask,
    const std::vector<float>& memory_mask) const {
  const Tensor h = norm1_.Forward(x);
  return Sublayers(x, h, self_attn_.ProjectKeyValues(h), causal_mask,
                   cross_attn_.ProjectKeyValues(memory), memory_mask);
}

TransformerDecoderLayer::Cache TransformerDecoderLayer::StartCache(
    const Tensor& memory) const {
  Cache cache;
  cache.cross = cross_attn_.ProjectKeyValues(memory);
  return cache;
}

Tensor TransformerDecoderLayer::Step(const Tensor& x, Cache& cache) const {
  CYQR_CHECK_EQ(x.NumElements(), x.shape().back());
  const Tensor h = norm1_.Forward(x);
  const MultiHeadAttention::KeyValues row = self_attn_.ProjectKeyValues(h);
  const int64_t d = x.shape().back();
  cache.self_keys.insert(cache.self_keys.end(), row.keys.data(),
                         row.keys.data() + d);
  cache.self_values.insert(cache.self_values.end(), row.values.data(),
                           row.values.data() + d);
  const Shape shape{1, static_cast<int64_t>(cache.self_keys.size()) / d, d};
  // The newest row sees every cached row, so the causal mask of Forward's
  // last row is all zeros; leaving it out changes no bit of the softmax.
  return Sublayers(x, h,
                   {Tensor::FromData(shape, cache.self_keys),
                    Tensor::FromData(shape, cache.self_values)},
                   {}, cache.cross, {});
}

Tensor TransformerDecoderLayer::Sublayers(
    const Tensor& x, const Tensor& h,
    const MultiHeadAttention::KeyValues& self_kv,
    const std::vector<float>& self_mask,
    const MultiHeadAttention::KeyValues& cross_kv,
    const std::vector<float>& cross_mask) const {
  Tensor y = Add(x, dropout_.Forward(self_attn_.Attend(h, self_kv, self_mask)));
  Tensor h2 = norm2_.Forward(y);
  Tensor z =
      Add(y, dropout_.Forward(cross_attn_.Attend(h2, cross_kv, cross_mask)));
  Tensor h3 = norm3_.Forward(z);
  return Add(z, dropout_.Forward(ff_.Forward(h3)));
}

TransformerEncoder::TransformerEncoder(const Seq2SeqConfig& config, Rng& rng)
    : config_(config),
      embedding_(config.vocab_size, config.d_model, rng),
      dropout_(config.dropout, rng),
      final_norm_(config.d_model) {
  CYQR_CHECK_GT(config.vocab_size, 0);
  RegisterModule(&embedding_);
  RegisterModule(&dropout_);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterModule(layers_.back().get());
  }
  RegisterModule(&final_norm_);
}

Tensor TransformerEncoder::Forward(const EncodedBatch& src) const {
  const float scale = std::sqrt(static_cast<float>(config_.d_model));
  Tensor x = Scale(embedding_.Forward(src.ids, src.batch, src.max_len), scale);
  x = dropout_.Forward(AddPositionalEncoding(x));
  const std::vector<float> pad_mask = MakePaddingMask(
      src.batch, config_.num_heads, src.max_len, src.max_len, src.mask);
  for (const auto& layer : layers_) {
    x = layer->Forward(x, pad_mask);
  }
  return final_norm_.Forward(x);
}

TransformerSeq2Seq::TransformerSeq2Seq(const Seq2SeqConfig& config, Rng& rng)
    : config_(config),
      encoder_(config, rng),
      tgt_embedding_(config.vocab_size, config.d_model, rng),
      dropout_(config.dropout, rng),
      final_norm_(config.d_model),
      output_proj_(config.d_model, config.vocab_size, rng) {
  RegisterModule(&encoder_);
  RegisterModule(&tgt_embedding_);
  RegisterModule(&dropout_);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    decoder_layers_.push_back(
        std::make_unique<TransformerDecoderLayer>(config, rng));
    RegisterModule(decoder_layers_.back().get());
  }
  RegisterModule(&final_norm_);
  RegisterModule(&output_proj_);
}

Tensor TransformerSeq2Seq::EmbedTarget(const std::vector<int32_t>& ids,
                                       int64_t batch, int64_t len,
                                       int64_t offset) const {
  const float scale = std::sqrt(static_cast<float>(config_.d_model));
  Tensor x = Scale(tgt_embedding_.Forward(ids, batch, len), scale);
  return dropout_.Forward(AddPositionalEncoding(x, offset));
}

Tensor TransformerSeq2Seq::Logits(const Tensor& x) const {
  return output_proj_.Forward(final_norm_.Forward(x));
}

Tensor TransformerSeq2Seq::Decode(const Tensor& memory,
                                  const std::vector<float>& src_mask,
                                  const EncodedBatch& tgt_in) const {
  const int64_t ts = memory.shape().dim(1);
  Tensor x = EmbedTarget(tgt_in.ids, tgt_in.batch, tgt_in.max_len, 0);
  const std::vector<float> causal = MakeCausalMask(
      tgt_in.batch, config_.num_heads, tgt_in.max_len, tgt_in.mask);
  const std::vector<float> mem_mask = MakePaddingMask(
      tgt_in.batch, config_.num_heads, tgt_in.max_len, ts, src_mask);
  for (const auto& layer : decoder_layers_) {
    x = layer->Forward(x, memory, causal, mem_mask);
  }
  return Logits(x);
}

Tensor TransformerSeq2Seq::Forward(const EncodedBatch& src,
                                   const EncodedBatch& tgt_in) const {
  CYQR_CHECK_EQ(src.batch, tgt_in.batch);
  Tensor memory = encoder_.Forward(src);
  return Decode(memory, src.mask, tgt_in);
}

std::unique_ptr<DecodeState> TransformerSeq2Seq::StartDecode(
    const std::vector<int32_t>& src_ids) const {
  NoGradGuard no_grad;
  auto state = std::make_unique<TransformerDecodeState>();
  // One unpadded source, so the memory mask of Forward is all zeros and
  // Step leaves it out.
  const Tensor memory = encoder_.Forward(PadBatch({src_ids}));
  for (const auto& layer : decoder_layers_) {
    state->layers.push_back(layer->StartCache(memory));
  }
  return state;
}

std::vector<float> TransformerSeq2Seq::Step(DecodeState& state,
                                            int32_t token) const {
  NoGradGuard no_grad;
  auto& s = static_cast<TransformerDecodeState&>(state);
  Tensor x = EmbedTarget({token}, 1, 1, s.length);
  for (size_t i = 0; i < decoder_layers_.size(); ++i) {
    x = decoder_layers_[i]->Step(x, s.layers[i]);
  }
  ++s.length;
  const Tensor logits = Logits(x);
  return std::vector<float>(logits.data(),
                            logits.data() + logits.NumElements());
}

void TransformerSeq2Seq::SetCaptureAttention(bool capture) {
  CYQR_CHECK(!decoder_layers_.empty());
  decoder_layers_.back()->cross_attention().set_capture_weights(capture);
}

const std::vector<float>& TransformerSeq2Seq::LastCrossAttention() const {
  return decoder_layers_.back()->cross_attention().last_attention();
}

int64_t TransformerSeq2Seq::LastAttentionRows() const {
  return decoder_layers_.back()->cross_attention().last_tq();
}

int64_t TransformerSeq2Seq::LastAttentionCols() const {
  return decoder_layers_.back()->cross_attention().last_tk();
}

}  // namespace cyqr
