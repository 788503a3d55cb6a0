#ifndef CYCLEQR_NMT_TRANSFORMER_H_
#define CYCLEQR_NMT_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "nmt/seq2seq.h"
#include "nn/attention.h"
#include "nn/layers.h"

namespace cyqr {

/// One pre-norm transformer encoder block: self-attention + feed-forward,
/// each with residual connection.
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const Seq2SeqConfig& config, Rng& rng);

  Tensor Forward(const Tensor& x, const std::vector<float>& pad_mask) const;

 private:
  MultiHeadAttention self_attn_;
  FeedForward ff_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  Dropout dropout_;
};

/// One pre-norm transformer decoder block: causal self-attention,
/// cross-attention over the encoder memory, feed-forward.
class TransformerDecoderLayer : public Module {
 public:
  /// What incremental decoding keeps per layer: the self-attention keys
  /// and values of the tokens fed so far, and the cross-attention keys and
  /// values of the encoder memory.
  struct Cache {
    std::vector<float> self_keys;    // [t, D], one row per token fed.
    std::vector<float> self_values;  // [t, D]
    MultiHeadAttention::KeyValues cross;  // [1, Ts, D]; never written.
  };

  TransformerDecoderLayer(const Seq2SeqConfig& config, Rng& rng);

  Tensor Forward(const Tensor& x, const Tensor& memory,
                 const std::vector<float>& causal_mask,
                 const std::vector<float>& memory_mask) const;

  /// Projects the cross-attention keys and values of `memory` ([1, Ts, D]).
  Cache StartCache(const Tensor& memory) const;

  /// Forward for the newest position alone: x is its [1, 1, D] input row.
  /// Appends the row's self-attention key and value to `cache` and attends
  /// over all cached rows; equals the last row of Forward over the prefix.
  Tensor Step(const Tensor& x, Cache& cache) const;

  MultiHeadAttention& cross_attention() { return cross_attn_; }
  const MultiHeadAttention& cross_attention() const { return cross_attn_; }

 private:
  /// Everything after the first norm: self-attention of `h` (= norm1(x))
  /// over `self_kv`, cross-attention over `cross_kv`, feed-forward.
  Tensor Sublayers(const Tensor& x, const Tensor& h,
                   const MultiHeadAttention::KeyValues& self_kv,
                   const std::vector<float>& self_mask,
                   const MultiHeadAttention::KeyValues& cross_kv,
                   const std::vector<float>& cross_mask) const;

  MultiHeadAttention self_attn_;
  MultiHeadAttention cross_attn_;
  FeedForward ff_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  LayerNorm norm3_;
  Dropout dropout_;
};

/// Stack of encoder layers with shared token embedding + sinusoidal
/// positions. Reused standalone by the hybrid model (transformer encoder +
/// RNN decoder, paper Section III-G).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const Seq2SeqConfig& config, Rng& rng);

  /// Returns the encoder memory [B, Ts, D].
  Tensor Forward(const EncodedBatch& src) const;

  int64_t d_model() const { return config_.d_model; }
  const Seq2SeqConfig& config() const { return config_; }

 private:
  Seq2SeqConfig config_;
  Embedding embedding_;
  Dropout dropout_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  LayerNorm final_norm_;
};

/// Full transformer encoder-decoder NMT model (Vaswani et al.), the
/// paper's primary architecture for both translation directions.
class TransformerSeq2Seq : public Seq2SeqModel {
 public:
  TransformerSeq2Seq(const Seq2SeqConfig& config, Rng& rng);

  Tensor Forward(const EncodedBatch& src,
                 const EncodedBatch& tgt_in) const override;
  std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const override;
  std::vector<float> Step(DecodeState& state, int32_t token) const override;
  int64_t vocab_size() const override { return config_.vocab_size; }
  std::string name() const override { return "transformer"; }

  /// Enables attention capture on the last decoder layer's cross-attention
  /// (Figure 6 heat maps). LastCrossAttention() returns the head-averaged
  /// weights of batch element 0, row-major [rows, T_src]: after a Forward
  /// the full [T_tgt, T_src] matrix, after a Step the single row of the
  /// token that Step fed.
  void SetCaptureAttention(bool capture);
  const std::vector<float>& LastCrossAttention() const;
  int64_t LastAttentionRows() const;
  int64_t LastAttentionCols() const;

  const Seq2SeqConfig& config() const { return config_; }

 private:
  Tensor Decode(const Tensor& memory, const std::vector<float>& src_mask,
                const EncodedBatch& tgt_in) const;
  /// Scaled embedding plus positional encoding of target ids ([B, T]),
  /// positions starting at `offset`.
  Tensor EmbedTarget(const std::vector<int32_t>& ids, int64_t batch,
                     int64_t len, int64_t offset) const;
  /// Final norm and output projection: decoder states -> logits.
  Tensor Logits(const Tensor& x) const;

  Seq2SeqConfig config_;
  TransformerEncoder encoder_;
  Embedding tgt_embedding_;
  Dropout dropout_;
  std::vector<std::unique_ptr<TransformerDecoderLayer>> decoder_layers_;
  LayerNorm final_norm_;
  Linear output_proj_;
};

}  // namespace cyqr

#endif  // CYCLEQR_NMT_TRANSFORMER_H_
