// Cross-architecture behaviour tests: every Seq2SeqModel must expose
// consistent teacher-forced and incremental-decoding views of the same
// distribution, and must be able to overfit a tiny dataset.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "decode/greedy.h"
#include "decode/topn_sampling.h"
#include "nmt/attention_seq2seq.h"
#include "nmt/hybrid.h"
#include "nmt/rnn.h"
#include "nmt/transformer.h"
#include "rewrite/inference.h"
#include "rewrite/trainer.h"
#include "text/vocabulary.h"

namespace cyqr {
namespace {

Seq2SeqConfig SmallConfig() {
  Seq2SeqConfig config;
  config.vocab_size = 20;
  config.d_model = 16;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.num_layers = 1;
  config.dropout = 0.1f;
  return config;
}

std::unique_ptr<Seq2SeqModel> MakeByName(const std::string& name,
                                         const Seq2SeqConfig& config,
                                         Rng& rng) {
  if (name == "transformer") {
    return std::make_unique<TransformerSeq2Seq>(config, rng);
  }
  if (name == "attention-gru") return MakeAttentionSeq2Seq(config, rng);
  if (name == "pure-rnn") return MakePureRnnSeq2Seq(config, rng);
  if (name == "pure-lstm") {
    return std::make_unique<RnnSeq2Seq>(config, CellType::kLstm,
                                        CellType::kLstm,
                                        AttentionKind::kDot, rng);
  }
  if (name == "hybrid") {
    return std::make_unique<HybridSeq2Seq>(config, CellType::kRnn, rng);
  }
  return nullptr;
}

class Seq2SeqArchTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Seq2SeqArchTest, ForwardShape) {
  Rng rng(1);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  ASSERT_NE(model, nullptr);
  const EncodedBatch src = PadBatch({{4, 5, 6}, {7, 8}});
  const TeacherForcedBatch tf = MakeTeacherForced({{9, 10}, {11}});
  Tensor logits = model->Forward(src, tf.inputs);
  EXPECT_EQ(logits.shape(), Shape({2, tf.inputs.max_len, 20}));
}

TEST_P(Seq2SeqArchTest, StepMatchesTeacherForcedLogits) {
  // The incremental decoder and the teacher-forced forward pass must give
  // identical next-token distributions for the same prefix.
  Rng rng(2);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  model->SetTraining(false);
  NoGradGuard no_grad;
  const std::vector<int32_t> src = {4, 5, 6, 7};
  const std::vector<int32_t> tgt = {9, 10, 11};

  const EncodedBatch src_batch = PadBatch({src});
  const TeacherForcedBatch tf = MakeTeacherForced({tgt});
  Tensor logits = model->Forward(src_batch, tf.inputs);

  auto state = model->StartDecode(src);
  int32_t last = kBosId;
  for (size_t t = 0; t < tgt.size() + 1; ++t) {
    const std::vector<float> step_logits = model->Step(*state, last);
    const float* tf_logits = logits.data() + t * 20;
    for (int v = 0; v < 20; ++v) {
      EXPECT_NEAR(step_logits[v], tf_logits[v], 2e-4f)
          << GetParam() << " step " << t << " vocab " << v;
    }
    if (t < tgt.size()) last = tgt[t];
  }
}

TEST_P(Seq2SeqArchTest, ClonedStatesEvolveIndependently) {
  Rng rng(3);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  model->SetTraining(false);
  NoGradGuard no_grad;
  auto a = model->StartDecode({4, 5});
  model->Step(*a, kBosId);
  auto b = a->Clone();
  // Feed different tokens to the two states; their next logits must differ.
  const std::vector<float> la = model->Step(*a, 6);
  const std::vector<float> lb = model->Step(*b, 7);
  double diff = 0.0;
  for (int v = 0; v < 20; ++v) diff += std::fabs(la[v] - lb[v]);
  EXPECT_GT(diff, 1e-4);
  // And feeding the same token to a fresh clone reproduces the original.
  auto c = model->StartDecode({4, 5});
  model->Step(*c, kBosId);
  const std::vector<float> lc = model->Step(*c, 6);
  for (int v = 0; v < 20; ++v) EXPECT_NEAR(la[v], lc[v], 1e-5f);
}

TEST_P(Seq2SeqArchTest, OverfitsTinyDataset) {
  Rng rng(4);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  const std::vector<SeqPair> data = {
      {{4, 5}, {10, 11, 12}},
      {{6, 7}, {13, 14}},
      {{8}, {15}},
  };
  SupervisedTrainOptions options;
  options.max_steps = 250;
  options.batch_size = 3;
  options.noam_warmup = 50;
  TrainSupervised(*model, data, options);
  model->SetTraining(false);
  for (const SeqPair& p : data) {
    DecodeOptions decode_options;
    decode_options.max_len = 6;
    const DecodedSequence out = GreedyDecode(*model, p.src, decode_options);
    EXPECT_EQ(out.ids, p.tgt) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, Seq2SeqArchTest,
                         ::testing::Values("transformer", "attention-gru",
                                           "pure-rnn", "pure-lstm",
                                           "hybrid"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(TransformerTest, AttentionCaptureProducesDistribution) {
  Rng rng(5);
  TransformerSeq2Seq model(SmallConfig(), rng);
  model.SetTraining(false);
  model.SetCaptureAttention(true);
  NoGradGuard no_grad;
  const std::vector<int32_t> src = {4, 5, 6};
  const auto expect_rows_normalised = [&](int64_t rows) {
    const auto& attn = model.LastCrossAttention();
    ASSERT_EQ(model.LastAttentionCols(), 3);
    ASSERT_EQ(model.LastAttentionRows(), rows);
    ASSERT_EQ(attn.size(), static_cast<size_t>(rows * 3));
    for (int64_t i = 0; i < rows; ++i) {
      float row = 0.0f;
      for (int j = 0; j < 3; ++j) row += attn[i * 3 + j];
      EXPECT_NEAR(row, 1.0f, 1e-4f);
    }
  };

  // Forward captures the full [T_tgt, T_src] matrix.
  const TeacherForcedBatch tf = MakeTeacherForced({{9, 10}});
  model.Forward(PadBatch({src}), tf.inputs);
  expect_rows_normalised(tf.inputs.max_len);

  // Step captures one row: the fed token's.
  auto state = model.StartDecode(src);
  model.Step(*state, kBosId);
  expect_rows_normalised(1);
  model.Step(*state, 9);
  expect_rows_normalised(1);
}

// --------------------- K/V-cached transformer decoding ---------------------

// Last row of the teacher-forced logits over `prefix` (one sequence).
std::vector<float> ForwardLastRow(const Seq2SeqModel& model,
                                  const std::vector<int32_t>& src,
                                  const std::vector<int32_t>& prefix) {
  NoGradGuard no_grad;
  const Tensor logits = model.Forward(PadBatch({src}), PadBatch({prefix}));
  const int64_t v = model.vocab_size();
  const float* last = logits.data() + (logits.NumElements() - v);
  return std::vector<float>(last, last + v);
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Incremental decoding without a cache: each Step re-runs the teacher-forced
// Forward over the whole prefix and keeps its last row.
class PrefixRerunModel : public Seq2SeqModel {
 public:
  explicit PrefixRerunModel(const Seq2SeqModel& inner) : inner_(inner) {}

  Tensor Forward(const EncodedBatch& src,
                 const EncodedBatch& tgt_in) const override {
    return inner_.Forward(src, tgt_in);
  }
  std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const override {
    auto state = std::make_unique<State>();
    state->src = src_ids;
    return state;
  }
  std::vector<float> Step(DecodeState& state, int32_t token) const override {
    auto& s = static_cast<State&>(state);
    s.prefix.push_back(token);
    return ForwardLastRow(inner_, s.src, s.prefix);
  }
  int64_t vocab_size() const override { return inner_.vocab_size(); }
  std::string name() const override { return "prefix-rerun"; }

 private:
  struct State : DecodeState {
    std::vector<int32_t> src;
    std::vector<int32_t> prefix;
    std::unique_ptr<DecodeState> Clone() const override {
      return std::make_unique<State>(*this);
    }
  };
  const Seq2SeqModel& inner_;
};

Seq2SeqConfig KvConfig(int64_t num_layers) {
  Seq2SeqConfig config = SmallConfig();
  config.vocab_size = 40;
  config.num_layers = num_layers;
  return config;
}

std::vector<int32_t> RandomTokens(Rng& rng, int64_t n, int64_t vocab) {
  std::vector<int32_t> ids(static_cast<size_t>(n));
  for (int32_t& id : ids) {
    id = static_cast<int32_t>(rng.NextInt(kNumSpecialTokens, vocab - 1));
  }
  return ids;
}

class TransformerKvCacheTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(TransformerKvCacheTest, StepEqualsForwardLastRowBitForBit) {
  const Seq2SeqConfig config = KvConfig(GetParam());
  Rng rng(11);
  TransformerSeq2Seq model(config, rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  const std::vector<int32_t> src = RandomTokens(rng, 6, config.vocab_size);
  const std::vector<int32_t> tokens =
      RandomTokens(rng, 19, config.vocab_size);

  auto state = model.StartDecode(src);
  std::vector<int32_t> prefix;
  for (size_t len = 1; len <= 20; ++len) {
    const int32_t token = (len == 1) ? kBosId : tokens[len - 2];
    prefix.push_back(token);
    const std::vector<float> step = model.Step(*state, token);
    EXPECT_TRUE(BitEqual(step, ForwardLastRow(model, src, prefix)))
        << GetParam() << " layers, prefix length " << len;
  }
}

TEST_P(TransformerKvCacheTest, ClonedStateBranchesMatchForward) {
  const Seq2SeqConfig config = KvConfig(GetParam());
  Rng rng(12);
  TransformerSeq2Seq model(config, rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  const std::vector<int32_t> src = RandomTokens(rng, 5, config.vocab_size);

  std::vector<int32_t> trunk = {kBosId};
  auto a = model.StartDecode(src);
  model.Step(*a, kBosId);
  for (int32_t token : RandomTokens(rng, 4, config.vocab_size)) {
    model.Step(*a, token);
    trunk.push_back(token);
  }
  auto b = a->Clone();
  std::vector<int32_t> prefix_a = trunk;
  std::vector<int32_t> prefix_b = trunk;
  const std::vector<int32_t> branch_a = RandomTokens(rng, 6, config.vocab_size);
  const std::vector<int32_t> branch_b = RandomTokens(rng, 6, config.vocab_size);
  for (size_t i = 0; i < branch_a.size(); ++i) {
    // Advance the original first so a shared cache would leak into b.
    prefix_a.push_back(branch_a[i]);
    EXPECT_TRUE(BitEqual(model.Step(*a, branch_a[i]),
                         ForwardLastRow(model, src, prefix_a)))
        << "branch a, step " << i;
    prefix_b.push_back(branch_b[i]);
    EXPECT_TRUE(BitEqual(model.Step(*b, branch_b[i]),
                         ForwardLastRow(model, src, prefix_b)))
        << "branch b, step " << i;
  }
}

TEST_P(TransformerKvCacheTest, TopNSamplingMatchesPrefixRerun) {
  const Seq2SeqConfig config = KvConfig(GetParam());
  Rng rng(13);
  TransformerSeq2Seq model(config, rng);
  model.SetTraining(false);
  const PrefixRerunModel rerun(model);
  DecodeOptions options;
  options.beam_size = 3;
  options.top_n = 10;
  options.max_len = 20;
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<int32_t> src = RandomTokens(rng, 4, config.vocab_size);
    Rng cached_rng(100 + trial);
    Rng rerun_rng(100 + trial);
    const std::vector<DecodedSequence> cached =
        TopNSamplingDecode(model, src, options, cached_rng);
    const std::vector<DecodedSequence> reference =
        TopNSamplingDecode(rerun, src, options, rerun_rng);
    ASSERT_EQ(cached.size(), reference.size());
    for (size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i].ids, reference[i].ids) << "trial " << trial;
      EXPECT_EQ(cached[i].log_prob, reference[i].log_prob)
          << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layers, TransformerKvCacheTest,
                         ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "layers_" + std::to_string(info.param);
                         });

TEST(CycleRewriterKvCacheTest, RewriteMatchesPrefixRerun) {
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 36; ++i) corpus.push_back({"w" + std::to_string(i)});
  const Vocabulary vocab = Vocabulary::Build(corpus);
  CycleConfig config;
  config.forward = KvConfig(2);
  config.forward.vocab_size = vocab.size();
  config.backward = KvConfig(1);
  config.backward.vocab_size = vocab.size();
  Rng rng(14);
  CycleModel cached(config, rng);
  cached.SetTraining(false);
  CycleModel rerun(config, rng,
                   std::make_unique<PrefixRerunModel>(cached.forward()),
                   std::make_unique<PrefixRerunModel>(cached.backward()));

  RewriteOptions options;
  options.top_n = 10;
  const CycleRewriter cached_rewriter(&cached, &vocab);
  const CycleRewriter rerun_rewriter(&rerun, &vocab);
  for (const std::vector<std::string>& query :
       {std::vector<std::string>{"w1", "w2", "w3"},
        std::vector<std::string>{"w7", "w30"}}) {
    const CycleRewriter::Result a = cached_rewriter.Rewrite(query, options);
    const CycleRewriter::Result b = rerun_rewriter.Rewrite(query, options);
    ASSERT_EQ(a.synthetic_titles.size(), b.synthetic_titles.size());
    for (size_t i = 0; i < a.synthetic_titles.size(); ++i) {
      EXPECT_EQ(a.synthetic_titles[i].ids, b.synthetic_titles[i].ids);
      EXPECT_EQ(a.synthetic_titles[i].log_prob,
                b.synthetic_titles[i].log_prob);
    }
    ASSERT_EQ(a.rewrites.size(), b.rewrites.size());
    EXPECT_FALSE(a.rewrites.empty());
    for (size_t i = 0; i < a.rewrites.size(); ++i) {
      EXPECT_EQ(a.rewrites[i].ids, b.rewrites[i].ids);
      EXPECT_EQ(a.rewrites[i].log_prob, b.rewrites[i].log_prob);
    }
  }
}

TEST(RnnTest, GruCellKeepsHiddenBounded) {
  Rng rng(6);
  GruCell cell(8, 8, rng);
  Tensor h = Tensor::Zeros(Shape{1, 8});
  Tensor x = Tensor::Randn(Shape{1, 8}, rng, 5.0f);
  for (int t = 0; t < 50; ++t) h = cell.Step(x, h);
  for (int j = 0; j < 8; ++j) {
    EXPECT_LE(std::fabs(h.data()[j]), 1.0f + 1e-5f);
  }
}

TEST(RnnTest, LstmCellKeepsHiddenBounded) {
  Rng rng(8);
  LstmCell cell(8, 8, rng);
  Tensor state = Tensor::Zeros(Shape{1, 16});
  Tensor x = Tensor::Randn(Shape{1, 8}, rng, 5.0f);
  for (int t = 0; t < 50; ++t) state = cell.Step(x, state);
  Tensor h = cell.OutputFromState(state);
  for (int j = 0; j < 8; ++j) {
    EXPECT_LE(std::fabs(h.data()[j]), 1.0f + 1e-5f);
  }
}

TEST(RnnTest, LstmStateRoundTrip) {
  Rng rng(9);
  LstmCell cell(4, 6, rng);
  EXPECT_EQ(cell.state_size(), 12);
  Tensor h = Tensor::Randn(Shape{2, 6}, rng);
  Tensor state = cell.StateFromOutput(h);
  ASSERT_EQ(state.shape(), Shape({2, 12}));
  Tensor back = cell.OutputFromState(state);
  for (int64_t i = 0; i < h.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], h.data()[i]);
  }
  // Cell memory component starts at zero.
  for (int64_t i = 0; i < 12; ++i) {
    if (i % 12 >= 6) {
      EXPECT_FLOAT_EQ(state.data()[i], 0.0f);
    }
  }
}

TEST(RnnTest, EncoderMaskFreezesHiddenOnPadding) {
  Rng rng(7);
  Seq2SeqConfig config = SmallConfig();
  RnnEncoder encoder(config, CellType::kGru, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  // Same sequence with and without trailing padding: final hidden equal.
  EncodedBatch padded = PadBatch({{4, 5}, {4, 5, 6}});  // Row 0 padded.
  RnnEncoder::Output out = encoder.Forward(padded);
  EncodedBatch exact = PadBatch({{4, 5}});
  RnnEncoder::Output ref = encoder.Forward(exact);
  for (int j = 0; j < config.d_model; ++j) {
    EXPECT_NEAR(out.final_hidden.data()[j], ref.final_hidden.data()[j],
                1e-5f);
  }
}

}  // namespace
}  // namespace cyqr
